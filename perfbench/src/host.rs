//! The header every result starts with: host, flush policy, every
//! configuration value and seed the run used; and the speed probe that
//! sets end-to-end times against the host's speed.

use std::path::Path;

use anubis_server::TenantFamily;

use crate::serve::{serve_config, QUOTA_OPS_PER_S};
use crate::{Args, Workload};

/// `rustc --version`, run once and reaped.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fs).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Prints the header, one `# `-prefixed line per item.
pub fn print_header(args: &Args, data_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: {}; cpu: {}; nproc: {nproc}",
        rustc_version(),
        cpu_model()
    );
    println!("# data dir filesystem: {}", fs_type(data_dir));
    println!(
        "# flush policy: one sync_data per WAL frame (one frame per acked write or batch) plus one sync_data per freshness-anchor seal"
    );
    println!(
        "# quota: per-tenant token bucket raised from the 50000 ops/s default to {QUOTA_OPS_PER_S} ops/s so it never limits a measured rate"
    );
    println!(
        "# telemetry registry: {}",
        if std::env::var("ANUBIS_TELEMETRY").as_deref() == Ok("1") {
            "on"
        } else {
            "off (default)"
        }
    );
    let mixes = [
        crate::serving::durable_write(),
        crate::serving::read_mostly(),
    ];
    let mut roster: Vec<(&str, TenantFamily)> = Vec::new();
    for mix in &mixes {
        if args.trace || args.workload.name() == mix.name {
            roster.push((mix.tenant, mix.family));
        }
    }
    if args.trace || args.workload == Workload::CrashRestart {
        roster.extend(crate::crash_restart::TENANTS);
    }
    let cfg = serve_config(Path::new("<run dir>"), &roster);
    println!("# ServeConfig: {cfg:?}");
    println!("# sim AnubisConfig: {:?}", crate::sim_replay::config());
    println!(
        "# seeds: workload seed {}, sim reference seed {}",
        args.seed,
        crate::sim_replay::REFERENCE_SEED
    );
}

/// A fixed CPU kernel that gauges how fast the host runs right now.
///
/// On a shared 2-vCPU Xeon host the same `sim_replay` pair takes 260 to
/// 470 ms as the neighbours' load comes and goes, for minutes at a time
/// and with the thread on CPU throughout, so no statistic over one run
/// removes it. The probe's own time moves with it, and the ratio of the
/// two holds still.
/// The kernel uses no code of the program — a permutation chase through
/// an L2-sized table, multiply-rotate hashing and a hash map with a fixed
/// hasher — so nothing a change to the program does can move it.
pub struct SpeedProbe {
    table: Vec<u32>,
}

impl SpeedProbe {
    /// Nominal probe time: a probe-normalised time is what the measured
    /// time would be on a host where one probe takes this long.
    pub const REFERENCE_NS: f64 = 5e6;

    const TABLE_LEN: usize = 1 << 15;
    const STEPS: u64 = 300_000;

    /// Builds the probe's table (a fixed pseudo-random permutation).
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..Self::TABLE_LEN as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..table.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % (i as u64 + 1)) as usize);
        }
        SpeedProbe { table }
    }

    /// One pass of the kernel; returns its checksum, which is the same on
    /// every pass.
    pub fn kernel(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashMap;
        use std::hash::BuildHasherDefault;
        let mask = self.table.len() - 1;
        let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let (mut i, mut h) = (0_u32, 0_u64);
        for k in 0..Self::STEPS {
            i = self.table[(i as usize ^ h as usize) & mask];
            h = (h ^ u64::from(i))
                .wrapping_mul(0x100_0000_01b3)
                .rotate_left(17);
            h = h.wrapping_add(h >> 29).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *counts.entry(h & 4095).or_insert(0) += k;
        }
        h ^ counts.values().fold(0, |a, v| a ^ v)
    }

    /// Median host time of three passes, after an untimed pass that warms
    /// the caches the measured work just used.
    pub fn time_ns(&self) -> u64 {
        std::hint::black_box(self.kernel());
        let mut ns: [u64; 3] = std::array::from_fn(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(self.kernel());
            t.elapsed().as_nanos() as u64
        });
        ns.sort_unstable();
        ns[1]
    }

    /// `work_ns` normalised to a host whose probe takes
    /// [`Self::REFERENCE_NS`], given the probe time `probe_ns` measured
    /// beside it.
    pub fn normalise(work_ns: u64, probe_ns: u64) -> f64 {
        work_ns as f64 * Self::REFERENCE_NS / probe_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_kernel_does_fixed_work() {
        let p = SpeedProbe::new();
        let mut seen = vec![false; SpeedProbe::TABLE_LEN];
        for &v in &p.table {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "table is a permutation");
        assert_eq!(p.kernel(), SpeedProbe::new().kernel());
    }

    #[test]
    fn normalise_scales_by_probe_time() {
        // A host half as fast doubles both times; the ratio is kept.
        assert_eq!(SpeedProbe::normalise(300_000_000, 5_000_000), 300_000_000.0);
        assert_eq!(
            SpeedProbe::normalise(600_000_000, 10_000_000),
            300_000_000.0
        );
        assert_eq!(SpeedProbe::normalise(300_000_000, 2_500_000), 600_000_000.0);
    }
}
