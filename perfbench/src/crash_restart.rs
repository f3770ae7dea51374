//! `crash_restart`: process start → WAL replay → anchor verdict →
//! supervisor ladder → first verified read, on pristine crashed images.
//!
//! Set-up builds the images the way the drill and chaos harnesses do: a
//! child server process takes, on one connection per tenant, the
//! `durable_write` prefill of every line and then a fixed seeded sequence
//! of acked single-line writes, and is then SIGKILLed, so no orderly
//! flush runs and dirty metadata is lost. Every sample restarts from the
//! same images, so restart time never drifts with WAL length, and a
//! rebuild that differs by one byte fails the run.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use anubis_server::{ClientError, ServeError, ServeMode, Server, TenantFamily};

use crate::serve::{self, Op};
use crate::stats::{self, fingerprint_diff, fingerprint_dir, median_f64, FilePrint};
use crate::trace::Tracer;
use crate::{Metric, Outcome, SETUP_REPS};

/// The two tenants every image set holds: one per controller family.
pub const TENANTS: [(&str, TenantFamily); 2] = [
    ("cb", TenantFamily::BonsaiAgitPlus),
    ("cs", TenantFamily::SgxAsit),
];

/// Acked single-line writes per tenant image, after the prefill: the
/// tail the first read after restart checks. The recovery work
/// (`RecoveryReport::total_ops`) is set by the prefilled state and the
/// cache geometry, not by this count (512 and 2 048 writes give the same
/// ops within 0.1 %), so more writes would only lengthen the WAL replay.
const IMAGE_WRITES: usize = 512;

/// Pause between polling reads while a tenant is still recovering. Long
/// enough that polling does not steal the cores the recovery ladders run
/// on, short against the ~30 ms being measured.
const POLL_PAUSE: Duration = Duration::from_micros(500);

/// Marker line the child prints once it listens.
const LISTENING: &str = "PERFBENCH_LISTENING ";

/// The child-process server used to build crashed images: serves the
/// [`TENANTS`] roster on `args[0]` until killed, or until its standard
/// input closes (the parent died).
pub fn child_serve(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        eprintln!("perfbench --child-serve: missing data dir");
        return ExitCode::from(2);
    };
    let server = match Server::start(serve::serve_config(Path::new(dir), &TENANTS)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench --child-serve: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{LISTENING}{}", server.local_addr());
    // Block until the parent kills us; EOF on stdin means it is gone.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
        sink.clear();
    }
    drop(server);
    ExitCode::SUCCESS
}

/// Kills and reaps a child on every exit path.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Per-tenant seed of the image-building write sequence.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed ^ (0xC4A5_0000 + tenant as u64)
}

/// Line → last acked version, per tenant, after the image writes.
pub type ImageLedger = Vec<Vec<u32>>;

/// The image's single-line writes: the `durable_write` op mix.
fn image_ops(seed: u64, tenant: usize) -> Vec<Op> {
    let mix = crate::serving::durable_write();
    serve::op_sequence(mix.spec, mix.lines, IMAGE_WRITES, tenant_seed(seed, tenant))
}

/// Builds one crashed image set in a fresh `dir`: child server, on one
/// connection per tenant a prefill of every line and [`IMAGE_WRITES`]
/// acked writes, SIGKILL.
///
/// # Errors
///
/// Spawn, connect or write failure.
pub fn build_images(dir: &Path, seed: u64) -> Result<ImageLedger, String> {
    let dir = serve::fresh_dir(dir)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = Command::new(exe)
        .arg("--child-serve")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the image server: {e}"))?;
    let mut child = Reaped(child);
    let stdout = child.0.stdout.take().ok_or("image server has no stdout")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading the image server's address: {e}"))?;
    let addr: std::net::SocketAddr = line
        .strip_prefix(LISTENING)
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("image server did not report an address: {line:?}"))?;
    let mut ledger = Vec::new();
    for (t, (name, _)) in TENANTS.iter().enumerate() {
        let mut client = serve::connect(addr, name)?;
        serve::wait_full(&mut client)?;
        let tseed = tenant_seed(seed, t);
        serve::prefill(&mut client, tseed, crate::serving::ALL_LINES)?;
        let mut versions = vec![0u32; crate::serving::ALL_LINES as usize];
        for op in image_ops(seed, t) {
            let v = &mut versions[op.addr as usize];
            *v += 1;
            client
                .write(op.addr, serve::value(tseed, op.addr, *v), 0)
                .map_err(|e| format!("image write: {e}"))?;
        }
        ledger.push(versions);
    }
    // SIGKILL with every write acked and nothing in flight: the image is
    // exactly the acked prefix, with dirty metadata lost.
    drop(child);
    Ok(ledger)
}

/// A verified set of pristine crashed images.
pub struct Images {
    /// Directory of the first build.
    pub dir: PathBuf,
    /// Its acked-write ledger.
    pub ledger: ImageLedger,
    /// Its files' fingerprints.
    pub prints: Vec<FilePrint>,
    /// Median build time (s).
    pub setup_s: f64,
    /// Files (or `"ledger"`) that differed in any rebuild.
    pub diffs: Vec<String>,
}

/// Builds [`SETUP_REPS`] image sets under `root` and checks that every
/// rebuild is byte-identical to the first, which is kept.
///
/// # Errors
///
/// As [`build_images`], or a fingerprint I/O failure.
pub fn set_up(root: &Path, seed: u64) -> Result<Images, String> {
    let mut times = Vec::new();
    let mut first: Option<Images> = None;
    for rep in 0..SETUP_REPS {
        let dir = root.join(format!("image-{rep}"));
        let t = Instant::now();
        let ledger = build_images(&dir, seed)?;
        times.push(t.elapsed().as_secs_f64());
        let prints = fingerprint_dir(&dir).map_err(|e| format!("fingerprinting: {e}"))?;
        match &mut first {
            None => {
                first = Some(Images {
                    dir,
                    ledger,
                    prints,
                    setup_s: 0.0,
                    diffs: Vec::new(),
                })
            }
            Some(f) => {
                let mut d = fingerprint_diff(&f.prints, &prints);
                if f.ledger != ledger {
                    d.push("ledger".to_string());
                }
                f.diffs.extend(d);
                serve::fresh_dir(&dir)?;
            }
        }
    }
    let mut images = first.ok_or("no image builds")?;
    images.setup_s = median_f64(&times);
    Ok(images)
}

/// Returns `to` (created if missing) to the pristine image set `from`,
/// whose fingerprints are `prints`. A restart only appends WAL frames
/// and rewrites the small anchor in place, so a file whose prefix still
/// matches is cut back to its pristine length instead of copied: copying
/// megabytes per sample would leave background writeback that slows
/// every later fsync. Anything else is copied afresh, and extra files
/// are removed.
///
/// # Errors
///
/// Any I/O failure.
pub fn restore_images(from: &Path, prints: &[FilePrint], to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("restoring images: {e}");
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(to).map_err(io)? {
        let entry = entry.map_err(io)?;
        if !prints.iter().any(|p| *p.name == *entry.file_name()) {
            std::fs::remove_file(entry.path()).map_err(io)?;
        }
    }
    for p in prints {
        let dst = to.join(&p.name);
        let len = p.bytes as usize;
        let prefix_intact = std::fs::read(&dst)
            .is_ok_and(|b| b.len() >= len && anubis_server::protocol::fnv1a64(&b[..len]) == p.fnv);
        if prefix_intact {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&dst)
                .and_then(|f| f.set_len(p.bytes))
                .map_err(io)?;
        } else {
            std::fs::copy(from.join(&p.name), &dst).map_err(io)?;
        }
    }
    Ok(())
}

/// Timeline of one restart sample (ns).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// `Server::start` duration.
    pub start: u64,
    /// From start's return until both tenants answered `HelloOk`.
    pub hello: u64,
    /// From the last `HelloOk` until both tenants served a verified
    /// `Full` read.
    pub ready: u64,
}

impl Sample {
    /// Start of `Server::start` to both tenants' first verified read.
    pub fn total(&self) -> u64 {
        self.start + self.hello + self.ready
    }
}

/// What a run of restart samples measured.
#[derive(Default)]
pub struct Restarts {
    /// Completed samples.
    pub samples: Vec<Sample>,
    /// Tenant probes attempted (two per sample).
    pub attempted: u64,
    /// Probes that failed or were refused.
    pub failed: u64,
    /// First Full reads whose value differed from the ledger.
    pub mismatches: u64,
    /// Degraded answers polled through while tenants recovered.
    pub polls: u64,
}

/// Runs restart samples from the pristine `images` for `dur` (at least
/// `min_samples`), restarting in `work`.
///
/// # Errors
///
/// Image restore or server start failure.
pub fn restarts(
    images: &Path,
    work: &Path,
    seed: u64,
    ledger: &ImageLedger,
    dur: Duration,
    min_samples: usize,
    tracer: Option<&Tracer>,
) -> Result<Restarts, String> {
    // Probe lines the single-line writes after the prefill touched, so
    // each first read checks the acked tail the kill left behind.
    let probes: Vec<Vec<u64>> = ledger
        .iter()
        .map(|v| (0..v.len() as u64).filter(|&a| v[a as usize] > 0).collect())
        .collect();
    let prints = fingerprint_dir(images).map_err(|e| format!("fingerprinting: {e}"))?;
    let names: Vec<&str> = TENANTS.iter().map(|(name, _)| *name).collect();
    let mut out = Restarts::default();
    let deadline = Instant::now() + dur;
    let mut k = 0u64;
    // Past the deadline, keep going only for the minimum sample count,
    // and give up after a bounded number of failed attempts.
    let max_extra = 4 * min_samples as u64;
    while Instant::now() < deadline || (out.samples.len() < min_samples && k < max_extra) {
        restore_images(images, &prints, work)?;
        let cfg = serve::serve_config(work, &TENANTS);
        let t0 = Instant::now();
        let server = Server::start(cfg).map_err(|e| format!("restart: {e}"))?;
        let t1 = Instant::now();
        let connected = serve::connect_all(server.local_addr(), &names);
        let t2 = Instant::now();
        out.attempted += TENANTS.len() as u64;
        let mut clients = Vec::new();
        let mut ok = true;
        for c in connected {
            match c {
                Ok(c) => clients.push(c),
                Err(_) => {
                    out.failed += 1;
                    ok = false;
                }
            }
        }
        let mut pending: Vec<usize> = if ok {
            (0..TENANTS.len()).collect()
        } else {
            Vec::new()
        };
        while ok && !pending.is_empty() {
            let mut still = Vec::new();
            for &t in &pending {
                let addrs = &probes[t];
                let addr = addrs[((k * 7919 + t as u64) % addrs.len() as u64) as usize];
                let want = serve::value(tenant_seed(seed, t), addr, ledger[t][addr as usize]);
                match clients[t].read(addr, 0) {
                    Ok((data, ServeMode::Full)) => {
                        if data != want {
                            out.mismatches += 1;
                            out.failed += 1;
                            ok = false;
                        }
                    }
                    Ok((_, _)) | Err(ClientError::Server(ServeError::Degraded { .. })) => {
                        out.polls += 1;
                        still.push(t);
                    }
                    Err(_) => {
                        out.failed += 1;
                        ok = false;
                    }
                }
            }
            pending = still;
            if !pending.is_empty() {
                std::thread::sleep(POLL_PAUSE);
            }
        }
        let t3 = Instant::now();
        drop(clients);
        server.shutdown();
        if ok {
            let s = Sample {
                start: (t1 - t0).as_nanos() as u64,
                hello: (t2 - t1).as_nanos() as u64,
                ready: (t3 - t2).as_nanos() as u64,
            };
            if let Some(tr) = tracer {
                let end = tr.now();
                let begin = end.saturating_sub(s.total());
                let root = tr.record("restart", begin, end, 0, k);
                tr.record("server.start", begin, begin + s.start, root, k);
                tr.record(
                    "server.hello_wait",
                    begin + s.start,
                    begin + s.start + s.hello,
                    root,
                    k,
                );
                tr.record("server.ready_wait", end - s.ready, end, root, k);
            }
            out.samples.push(s);
        }
        k += 1;
    }
    Ok(out)
}

/// Prints the image set's files and the rebuild check.
pub fn print_images(prints: &[FilePrint], diffs: &[String]) {
    for f in prints {
        println!("# image {}: {} bytes, fnv {:016x}", f.name, f.bytes, f.fnv);
    }
    println!(
        "# image rebuilds: {} sets, {}",
        SETUP_REPS,
        if diffs.is_empty() {
            "byte-identical".to_string()
        } else {
            format!("DIFFER in {diffs:?}")
        }
    );
}

/// The untraced `crash_restart` run.
///
/// # Errors
///
/// Set-up failure or too few samples for a tail.
pub fn run(root: &Path, seed: u64, secs: u64) -> Result<Outcome, String> {
    let images = set_up(root, seed)?;
    print_images(&images.prints, &images.diffs);
    let r = restarts(
        &images.dir,
        &root.join("restart"),
        seed,
        &images.ledger,
        Duration::from_secs(secs),
        0,
        None,
    )?;
    let totals: Vec<u64> = r.samples.iter().map(Sample::total).collect();
    let s = stats::summarize(&totals).ok_or("too few restart samples for a tail")?;
    let stage = |f: fn(&Sample) -> u64| {
        let v: Vec<f64> = r.samples.iter().map(|s| f(s) as f64 / 1e6).collect();
        median_f64(&v)
    };
    println!(
        "# crash_restart: {} samples, {} probes, {} failed, {} degraded polls; stage medians (ms): start {:.3}, hello {:.3}, ready {:.3}",
        r.samples.len(),
        r.attempted,
        r.failed,
        r.polls,
        stage(|s| s.start),
        stage(|s| s.hello),
        stage(|s| s.ready)
    );
    println!(
        "#   restart_p50_ms = {:.3} ms (reported as time_us)",
        s.p50 as f64 / 1e6
    );
    println!(
        "#   restart_tail_ms = {:.3} ms at p{:.2} of {} samples (printed only: too unsteady on a shared disk to gate)",
        s.tail as f64 / 1e6,
        s.tail_pct,
        s.n
    );
    Ok(Outcome {
        correct: r.mismatches == 0 && images.diffs.is_empty(),
        attempted: r.attempted + SETUP_REPS as u64,
        failed: r.failed + images.diffs.len() as u64,
        metrics: vec![
            Metric::new("setup_s", images.setup_s, "s"),
            Metric::new("time_us", s.p50 as f64 / 1e3, "us"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_returns_images_to_their_fingerprints() {
        let root = std::env::temp_dir().join(format!("perfbench-restore-{}", std::process::id()));
        let (pristine, work) = (root.join("pristine"), root.join("work"));
        std::fs::create_dir_all(&pristine).expect("mkdir");
        std::fs::write(pristine.join("t.wal"), b"header|frame1|frame2").expect("write");
        std::fs::write(pristine.join("t.wal.anchor"), b"anchor-epoch-7").expect("write");
        let prints = fingerprint_dir(&pristine).expect("fingerprint");
        // A missing work dir is filled from the pristine set.
        restore_images(&pristine, &prints, &work).expect("fill");
        assert!(fingerprint_diff(&prints, &fingerprint_dir(&work).expect("fp")).is_empty());

        // What a restart does: append frames, reseal the anchor in place,
        // leave a compaction temp file.
        std::fs::write(work.join("t.wal"), b"header|frame1|frame2|frame3").expect("append");
        std::fs::write(work.join("t.wal.anchor"), b"anchor-epoch-8").expect("reseal");
        std::fs::write(work.join("t.compact-tmp"), b"x").expect("tmp");
        assert!(!fingerprint_diff(&prints, &fingerprint_dir(&work).expect("fp")).is_empty());
        restore_images(&pristine, &prints, &work).expect("restore");
        assert!(fingerprint_diff(&prints, &fingerprint_dir(&work).expect("fp")).is_empty());

        // A rewritten (compacted) WAL is copied back whole.
        std::fs::write(work.join("t.wal"), b"compacted").expect("rewrite");
        restore_images(&pristine, &prints, &work).expect("restore");
        assert!(fingerprint_diff(&prints, &fingerprint_dir(&work).expect("fp")).is_empty());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
