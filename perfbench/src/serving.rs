//! The two serving workloads: `durable_write` and `read_mostly`.
//!
//! Both drive one tenant of an in-process server, closed loop, from at
//! most two client connections (one per core of the reference host),
//! after a prefill that gives every line of the working set a known
//! value.

use std::path::Path;
use std::time::{Duration, Instant};

use anubis_server::{ServeClient, Server, TenantFamily};
use anubis_workloads::WorkloadSpec;

use crate::host::SpeedProbe;
use crate::serve::{self, Op, Watch, Window};
use crate::stats::{self, median_f64};
use crate::{Metric, Outcome, SETUP_REPS};

/// Untimed load before measuring, so caches and the WAL reach steady
/// state.
const WARMUP: Duration = Duration::from_millis(500);

/// Length of one slice of an untraced measured window.
const SLICE: Duration = Duration::from_secs(1);

/// Ops generated per sequence; clients cycle through it.
const SEQUENCE_OPS: usize = 1 << 17;

/// One serving workload's shape.
pub struct Mix {
    /// Workload name.
    pub name: &'static str,
    /// Tenant name (also its image stem).
    pub tenant: &'static str,
    /// Controller family behind the tenant.
    pub family: TenantFamily,
    /// Client connections (and threads) driving the tenant.
    pub clients: usize,
    /// Lines prefilled and addressed.
    pub lines: u64,
    /// Op mix over those lines.
    pub spec: WorkloadSpec,
    /// Report the headline p50 normalised by a [`SpeedProbe`]: set where
    /// the round trip is CPU work, unset where it waits on the disk.
    pub normalise: bool,
}

/// Lines in the tenant's 1 MiB data space.
pub const ALL_LINES: u64 = (1 << 20) / 64;

/// Hot set of `read_mostly`: 512 lines, whose 64 SGX leaf counter blocks
/// and their ancestors all stay in the 128-slot (8 KiB) combined
/// metadata cache; 640 lines already miss (tested in `layers`).
pub const HOT_LINES: u64 = 512;

/// `durable_write`: single-line writes from two connections, uniform
/// over all 16 384 lines of an AGIT-Plus tenant — a working set four
/// times what the 4 KiB counter and tree caches cover, so every ack also
/// pays metadata misses, and the two writers contend for the tenant lock.
pub fn durable_write() -> Mix {
    Mix {
        name: "durable_write",
        tenant: "dw",
        family: TenantFamily::BonsaiAgitPlus,
        clients: 2,
        lines: ALL_LINES,
        spec: WorkloadSpec::new("durable_write")
            .read_fraction(0.0)
            .footprint_bytes(ALL_LINES * 64)
            .zipf(0.0)
            .sequential(0.0)
            .rewrites(0.0),
        normalise: false,
    }
}

/// `read_mostly`: 95 % reads / 5 % writes, zipf-skewed over a hot set
/// that fits the ASIT tenant's metadata cache, from one connection. Two
/// connections, with the two server threads, oversubscribe the two cores
/// of the reference host, and the read round trip then measures run-queue
/// waits: its median ranged over 31–44 µs in four runs of one build.
pub fn read_mostly() -> Mix {
    Mix {
        name: "read_mostly",
        tenant: "rm",
        family: TenantFamily::SgxAsit,
        clients: 1,
        lines: HOT_LINES,
        spec: WorkloadSpec::new("read_mostly")
            .read_fraction(0.95)
            .footprint_bytes(HOT_LINES * 64)
            .zipf(0.99)
            .sequential(0.0)
            .rewrites(0.0),
        normalise: true,
    }
}

/// A started server with connected clients and a prefilled tenant.
pub struct Rig {
    /// The server (shut down by the caller).
    pub server: Server,
    /// Connected clients, [`Mix::clients`] of them.
    pub clients: Vec<ServeClient>,
    /// Line → last acked version.
    pub ledger: Vec<u32>,
    /// The tenant's WAL image.
    pub wal: std::path::PathBuf,
    /// Where the next window starts in the op sequence.
    next_op: usize,
}

impl Rig {
    /// Closes the clients, then stops the server.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Starts a server for `mix` on a fresh `dir`, waits for full service
/// and prefills the working set.
///
/// # Errors
///
/// Server start, connect or prefill failure.
pub fn set_up(mix: &Mix, dir: &Path, seed: u64) -> Result<Rig, String> {
    let dir = serve::fresh_dir(dir)?;
    let cfg = serve::serve_config(&dir, &[(mix.tenant, mix.family)]);
    let wal = cfg.image_path(mix.tenant);
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let mut clients = serve::connect_all(addr, &vec![mix.tenant; mix.clients])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    serve::wait_full(&mut clients[0])?;
    serve::prefill(&mut clients[0], seed, mix.lines)?;
    Ok(Rig {
        server,
        clients,
        ledger: vec![0; mix.lines as usize],
        wal,
        next_op: 0,
    })
}

/// Sets up [`SETUP_REPS`] times and keeps the last rig; returns it with
/// the median set-up time in seconds.
///
/// # Errors
///
/// As [`set_up`].
pub fn set_up_timed(mix: &Mix, dir: &Path, seed: u64) -> Result<(Rig, f64), String> {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            Rig::shutdown(old);
        }
        let t = Instant::now();
        rig = Some(set_up(mix, dir, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.ok_or("no set-up repetitions")?;
    Ok((rig, median_f64(&times)))
}

/// The op sequence `mix` runs under `seed`.
pub fn ops(mix: &Mix, seed: u64) -> Vec<Op> {
    serve::op_sequence(mix.spec.clone(), mix.lines, SEQUENCE_OPS, seed)
}

/// One slice of a measured window and the speed probe taken before it.
pub struct Slice {
    /// [`SpeedProbe::time_ns`] just before the slice.
    pub probe_ns: u64,
    /// The slice's requests.
    pub window: Window,
}

impl Rig {
    /// Runs `ops` closed-loop on the first `clients` connections for
    /// `dur`, continuing the sequence where the previous window stopped.
    ///
    /// # Errors
    ///
    /// A client thread panicked.
    pub fn window(
        &mut self,
        clients: usize,
        ops: &[Op],
        seed: u64,
        dur: Duration,
        watch: Watch<'_>,
    ) -> Result<Window, String> {
        let start = self.next_op.next_multiple_of(clients);
        let w = serve::closed_loop(
            &mut self.clients[..clients],
            ops,
            start,
            seed,
            &mut self.ledger,
            dur,
            watch,
        )?;
        self.next_op = w.next_op;
        Ok(w)
    }

    /// Warms up, then runs one measured window on every connection. The
    /// warm-up's requests count as attempted.
    ///
    /// # Errors
    ///
    /// A client thread panicked.
    pub fn measure(
        &mut self,
        ops: &[Op],
        seed: u64,
        dur: Duration,
        watch: Watch<'_>,
    ) -> Result<Window, String> {
        let n = self.clients.len();
        let warm = self.window(n, ops, seed, WARMUP, Watch::default())?;
        let mut w = self.window(n, ops, seed, dur, watch)?;
        w.attempted += warm.attempted;
        w.failed += warm.failed;
        w.mismatches += warm.mismatches;
        Ok(w)
    }

    /// Warms up, then runs `dur` as back-to-back [`SLICE`]-long windows on
    /// every connection with a [`SpeedProbe`] pass before each, so that
    /// each slice's latencies can be set against the host's speed at the
    /// time. Returns the warm-up window and the slices.
    ///
    /// # Errors
    ///
    /// A client thread panicked.
    pub fn measure_sliced(
        &mut self,
        ops: &[Op],
        seed: u64,
        dur: Duration,
    ) -> Result<(Window, Vec<Slice>), String> {
        let n = self.clients.len();
        let warm = self.window(n, ops, seed, WARMUP, Watch::default())?;
        let probe = SpeedProbe::new();
        let mut slices = Vec::new();
        for _ in 0..(dur.as_nanos() / SLICE.as_nanos()).max(1) {
            let probe_ns = probe.time_ns();
            let window = self.window(n, ops, seed, SLICE, Watch::default())?;
            slices.push(Slice { probe_ns, window });
        }
        Ok((warm, slices))
    }
}

/// The latencies a mix's end-to-end metrics summarize: writes for
/// `durable_write`, reads for `read_mostly`.
pub fn headline(mix: &Mix, w: &Window) -> Vec<u64> {
    if mix.spec.read_fraction > 0.5 {
        w.read_ns.clone()
    } else {
        w.write_ns.clone()
    }
}

/// The untraced run of a serving workload.
///
/// # Errors
///
/// Set-up failure or too few samples for a tail.
pub fn run(mix: &Mix, dir: &Path, seed: u64, secs: u64) -> Result<Outcome, String> {
    let (mut rig, setup_s) = set_up_timed(mix, dir, seed)?;
    let ops = ops(mix, seed);
    let (warm, slices) = rig.measure_sliced(&ops, seed, Duration::from_secs(secs))?;
    let (reads, bad) = serve::verify_all(&mut rig.clients, seed, &rig.ledger)?;
    let rejects = serve::rejects(&mut rig.clients[0])?;
    rig.shutdown();

    let windows = || std::iter::once(&warm).chain(slices.iter().map(|s| &s.window));
    let attempted: u64 = windows().map(|w| w.attempted).sum();
    let failed: u64 = windows().map(|w| w.failed).sum();
    let mismatches: u64 = windows().map(|w| w.mismatches).sum();
    let sums = slices
        .iter()
        .map(|s| stats::summarize(&headline(mix, &s.window)))
        .collect::<Option<Vec<_>>>()
        .ok_or("too few samples per slice for a tail")?;
    let p50_ns: Vec<f64> = sums.iter().map(|s| s.p50 as f64).collect();
    let tail_ns: Vec<f64> = sums.iter().map(|s| s.tail as f64).collect();
    let rates: Vec<f64> = slices.iter().map(|s| s.window.ops_per_s()).collect();
    let probe_ms: Vec<f64> = slices.iter().map(|s| s.probe_ns as f64 / 1e6).collect();
    // The read round trip is CPU work on both ends of a loopback socket,
    // and its median followed the host's speed (28 to 37 µs over six runs
    // of one build on a shared 2-vCPU Xeon as the host slowed): each
    // slice's p50 is normalised by the speed probe taken before it.
    let time_ns: Vec<f64> = if mix.normalise {
        sums.iter()
            .zip(&slices)
            .map(|(s, sl)| SpeedProbe::normalise(s.p50, sl.probe_ns))
            .collect()
    } else {
        p50_ns.clone()
    };
    let time_us = median_f64(&time_ns) / 1e3;
    let smallest = sums.iter().min_by_key(|s| s.n).ok_or("no slices")?;
    let (rate_name, rate_unit, lat_prefix) = if mix.spec.read_fraction > 0.5 {
        ("mixed_ops_per_s", "ops/s", "read")
    } else {
        ("write_ops_per_s", "acked writes/s", "write")
    };
    println!(
        "# {}: {} requests ({} writes, {} reads) in {} slices of {} s after {} s warm-up on {} connections; {failed} failed",
        mix.name,
        attempted,
        slices.iter().map(|s| s.window.write_ns.len()).sum::<usize>(),
        slices.iter().map(|s| s.window.read_ns.len()).sum::<usize>(),
        slices.len(),
        SLICE.as_secs_f64(),
        WARMUP.as_secs_f64(),
        mix.clients
    );
    println!(
        "# medians over {} slices of at least {} samples:",
        slices.len(),
        smallest.n
    );
    println!(
        "#   {lat_prefix}_p50_us = {:.2} us; speed probe {:.3} ms",
        median_f64(&p50_ns) / 1e3,
        median_f64(&probe_ms)
    );
    if mix.normalise {
        println!(
            "#   {lat_prefix}_p50 normalised to a {:.0} ms probe: {time_us:.2} us (reported as time_us)",
            SpeedProbe::REFERENCE_NS / 1e6
        );
    } else {
        println!("#   {lat_prefix}_p50_us is reported as time_us");
    }
    println!(
        "#   {rate_name} = {:.1} {rate_unit}, {lat_prefix}_p{:.2}_us = {:.2} us (printed only: too unsteady on a shared disk to gate)",
        median_f64(&rates),
        smallest.tail_pct,
        median_f64(&tail_ns) / 1e3
    );
    println!("# read-back: {reads} lines checked against the acked-write ledger, {bad} mismatched");
    println!("# server rejections + retries (TenantStats): {rejects}");
    Ok(Outcome {
        correct: bad == 0 && mismatches == 0,
        attempted: attempted + reads,
        failed: failed + bad,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("time_us", time_us, "us"),
        ],
    })
}

/// Sub-window medians of one serving window.
pub struct Windowed {
    /// Median completed requests per second.
    pub rate: f64,
    /// Median of the sub-windows' tail latency (ns).
    pub tail_ns: f64,
}

/// Cuts `w` into [`stats::SUB_WINDOWS`] sub-windows by completion time
/// and takes the median of each sub-window's rate and tail. `None`
/// when a sub-window has too few samples for a tail.
pub fn windowed(mix: &Mix, w: &Window) -> Option<Windowed> {
    let n = stats::SUB_WINDOWS;
    let span = w.elapsed.as_nanos() as u64;
    let width_s = w.elapsed.as_secs_f64() / n as f64;
    let (at, lat) = if mix.spec.read_fraction > 0.5 {
        (&w.read_at, &w.read_ns)
    } else {
        (&w.write_at, &w.write_ns)
    };
    let mut all_at = w.write_at.clone();
    all_at.extend(&w.read_at);
    let rates: Vec<f64> = stats::sub_windows(&all_at, &all_at, span, n)
        .iter()
        .map(|s| s.len() as f64 / width_s)
        .collect();
    let subs = stats::sub_windows(at, lat, span, n)
        .iter()
        .map(|s| stats::summarize(s))
        .collect::<Option<Vec<_>>>()?;
    let tails: Vec<f64> = subs.iter().map(|s| s.tail as f64).collect();
    Some(Windowed {
        rate: median_f64(&rates),
        tail_ns: median_f64(&tails),
    })
}
