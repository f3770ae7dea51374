//! The traced run: per-layer metrics from spans recorded around calls
//! into each layer's public functions, the stage ledgers, and the
//! tracing overhead.
//!
//! Every traced run surveys every layer, each probe on the inputs of the
//! workload it explains, so one run reports every per-layer metric. The
//! table [`MAP`] records which end-to-end metric each layer metric
//! should move, and on which workload.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryError,
    SgxController, SgxScheme, Supervised, SupervisedRecovery, Supervisor,
};
use anubis_crypto::otp::IvCounter;
use anubis_crypto::DataCodec;
use anubis_itree::bonsai::BonsaiHasher;
use anubis_nvm::{AnchorPolicy, Block, BlockAddr, FileBackend, FreshnessAnchor};
use anubis_server::{Request, Response, ServeMode, TenantFamily};

use crate::crash_restart::{self, Sample, TENANTS};
use crate::serve::{self, Op, Watch, Window};
use crate::serving::{self, Mix, Rig};
use crate::sim_replay::{self, Scheme, SCHEMES};
use crate::stats::{fingerprint_dir, median_f64, Ledger, Stage};
use crate::trace::Tracer;
use crate::{Args, Metric, Outcome};

/// Layer metric → end-to-end metric it should move → workload. The
/// end-to-end `time_us` is, per workload, normalised by the host speed
/// probe: the median read round trip (`read_mostly`) and the median
/// AGIT-Plus + ASIT replay pair (`sim_replay`).
/// `durable_write` is not a gated workload: its write round trip tracks
/// the shared disk's fsync latency, which drifts by half between sets of
/// runs, so the traced run reports it as `server.write_p50_us`. Nor is
/// `crash_restart`: its restart time moved by up to a quarter within a
/// set of runs, in its `Server::start` and ladder stages, while the
/// speed probe held still, so the traced run reports it as
/// `server.restart_p50_ms`.
#[rustfmt::skip]
pub const MAP: &[(&str, &str, &str)] = &[
    ("server.write_p50_us", "is write_p50_us, kept per-layer (fsync drift)", "durable_write"),
    ("server.lock_wait_us", "server.write_p50_us", "durable_write"),
    ("server.write_residual_us", "server.write_p50_us", "durable_write"),
    ("server.write_ops_per_s", "is write_ops_per_s, kept per-layer (unsteady)", "durable_write"),
    ("server.write_tail_us", "is write_p99_us, kept per-layer (unsteady)", "durable_write"),
    ("server.read_residual_us", "time_us (read_p50_us)", "read_mostly"),
    ("server.mixed_ops_per_s", "is mixed_ops_per_s, kept per-layer", "read_mostly"),
    ("server.read_tail_us", "is read_p99_us, kept per-layer", "read_mostly"),
    ("server.restart_p50_ms", "is restart_p50_ms, kept per-layer (host drift)", "crash_restart"),
    ("server.start_ms", "server.restart_p50_ms", "crash_restart"),
    ("server.hello_wait_ms", "server.restart_p50_ms", "crash_restart"),
    ("server.ready_wait_ms", "server.restart_p50_ms", "crash_restart"),
    ("server.restart_tail_ms", "is restart_tail_ms, kept per-layer (unsteady)", "crash_restart"),
    ("server.rejects_total", "failed count", "read_mostly, crash_restart, durable_write"),
    ("protocol.codec_write_ns", "server.write_p50_us", "durable_write"),
    ("protocol.codec_read_ns", "time_us (read_p50_us)", "read_mostly"),
    ("core.write_mem_ns", "time_us (replay pair); predicted flat on durable_write", "sim_replay"),
    ("core.read_mem_ns", "time_us (read_p50_us, small share; replay pair)", "read_mostly, sim_replay"),
    ("core.write_durable_us", "server.write_p50_us", "durable_write"),
    ("core.reopen_ms.*", "server.restart_p50_ms", "crash_restart"),
    ("core.recover_ms.*", "server.restart_p50_ms", "crash_restart"),
    ("core.recovery_ops.*", "server.restart_p50_ms; exact count", "crash_restart"),
    ("core.recovery_estimated_us.*", "server.restart_p50_ms; exact", "crash_restart"),
    ("nvm.commits_per_write", "server.write_ops_per_s and server.write_p50_us; exact", "durable_write"),
    ("nvm.wal_sync_us", "server.write_p50_us", "durable_write"),
    ("nvm.anchor_seal_us", "server.write_p50_us", "durable_write"),
    ("nvm.compactions", "write tail", "durable_write"),
    ("nvm.wal_open_ms.*", "server.restart_p50_ms", "crash_restart"),
    ("nvm.wal_image_bytes.*", "server.restart_p50_ms; exact", "crash_restart"),
    ("sim.total_ns/nvm_reads/nvm_writes_per_data_write.*", "sim.overhead_pct.*; exact", "sim_replay"),
    ("sim.replay_ops_per_s.*", "time_us (replay pair)", "sim_replay"),
    ("crypto.seal_ns, crypto.open_ns", "time_us (replay pair)", "sim_replay"),
    ("itree.node_digest_ns", "time_us (replay pair)", "sim_replay"),
];

/// Iterations per span in the nanosecond-scale micro probes.
const MICRO_BATCH: u64 = 1_000;

/// Micro-probe batches per metric.
const MICRO_BATCHES: u64 = 50;

/// Ops timed per in-memory controller probe.
const CORE_OPS: usize = 20_000;

/// Offline recovery repetitions per tenant.
const RECOVERY_REPS: usize = 3;

/// Fewest restart samples per traced window, so it has a median and a
/// tail.
const MIN_RESTARTS: usize = 11;

/// Collects metrics and the run's verdict.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn count(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.correct &= w.mismatches == 0;
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }
}

fn p50(tracer: &Tracer, name: &str) -> f64 {
    let mut d = tracer.durations(name);
    d.sort_unstable();
    anubis::telemetry::percentile_of_sorted(&d, 0.5) as f64
}

fn p50_ns(samples: &[u64]) -> f64 {
    let mut d = samples.to_vec();
    d.sort_unstable();
    anubis::telemetry::percentile_of_sorted(&d, 0.5) as f64
}

/// Times [`MICRO_BATCHES`] spans of [`MICRO_BATCH`] calls of `f`;
/// returns the median ns per call.
fn micro(tracer: &Tracer, name: &'static str, parent: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    for b in 0..MICRO_BATCHES {
        tracer.time(name, parent, b, || {
            for _ in 0..MICRO_BATCH {
                f(i);
                i += 1;
            }
        });
    }
    p50(tracer, name) / MICRO_BATCH as f64
}

fn probe_micro(tracer: &Tracer, r: &mut Report) {
    let root = tracer.begin("probe.micro", 0, 0);
    let data = serve::value(1, 2, 3);
    let codec_write = micro(tracer, "protocol.codec_write", root, |i| {
        let req = Request::Write {
            addr: i & 0x3FFF,
            deadline_ms: 0,
            data,
        };
        black_box(Request::decode(&black_box(req.encode())).is_ok());
        black_box(Response::decode(&black_box(Response::WriteOk.encode())).is_ok());
    });
    let codec_read = micro(tracer, "protocol.codec_read", root, |i| {
        let req = Request::Read {
            addr: i & 0x3FFF,
            deadline_ms: 0,
        };
        black_box(Request::decode(&black_box(req.encode())).is_ok());
        let resp = Response::ReadOk {
            data,
            mode: ServeMode::Full,
        };
        black_box(Response::decode(&black_box(resp.encode())).is_ok());
    });
    let key = AnubisConfig::small_test().key;
    let codec = DataCodec::new(key);
    let pt = Block::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
    let ctr = IvCounter::split(3, 17);
    let sealed = codec.seal(BlockAddr::new(9), ctr, &pt);
    let seal = micro(tracer, "crypto.seal", root, |i| {
        black_box(codec.seal(black_box(BlockAddr::new(i)), ctr, black_box(&pt)));
    });
    let open = micro(tracer, "crypto.open", root, |_| {
        black_box(
            codec
                .open(black_box(BlockAddr::new(9)), ctr, black_box(&sealed))
                .is_ok(),
        );
    });
    let hasher = BonsaiHasher::new(key);
    let digest = micro(tracer, "itree.node_digest", root, |i| {
        black_box(hasher.digest(black_box(&Block::from_words([i, 8, 7, 6, 5, 4, 3, 2]))));
    });
    tracer.end(root);
    r.put("protocol.codec_write_ns", codec_write, "ns");
    r.put("protocol.codec_read_ns", codec_read, "ns");
    r.put("crypto.seal_ns", seal, "ns");
    r.put("crypto.open_ns", open, "ns");
    r.put("itree.node_digest_ns", digest, "ns");
}

fn block(b: [u8; 64]) -> Block {
    let mut blk = Block::filled(0);
    blk.as_bytes_mut().copy_from_slice(&b);
    blk
}

/// Prefills `lines` lines (version 0) through `write_batch`.
fn prefill<C: MemoryController>(c: &mut C, seed: u64, lines: u64) -> Result<(), String> {
    for start in (0..lines).step_by(512) {
        let items: Vec<(DataAddr, Block)> = (start..(start + 512).min(lines))
            .map(|a| (DataAddr::new(a), block(serve::value(seed, a, 0))))
            .collect();
        c.write_batch(&items)
            .map_err(|e| format!("core prefill: {e}"))?;
    }
    Ok(())
}

/// In-memory controller probes on the serving workloads' sequences.
fn probe_core_mem(tracer: &Tracer, r: &mut Report, seed: u64) -> Result<(), String> {
    let cfg = AnubisConfig::small_test();
    let root = tracer.begin("probe.core_mem", 0, 0);
    let dw = serving::durable_write();
    let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
    prefill(&mut c, seed, dw.lines)?;
    for (i, op) in serving::ops(&dw, seed).iter().take(CORE_OPS).enumerate() {
        let v = block(serve::value(seed, op.addr, 1 + i as u32));
        tracer
            .time("core.write_mem", root, i as u64, || {
                c.write(DataAddr::new(op.addr), v)
            })
            .map_err(|e| format!("core write: {e}"))?;
    }
    let rm = serving::read_mostly();
    let mut c = SgxController::new(SgxScheme::Asit, &cfg);
    prefill(&mut c, seed, rm.lines)?;
    let reads = serving::ops(&rm, seed).into_iter().filter(|o| !o.write);
    for (i, op) in reads.take(CORE_OPS).enumerate() {
        let got = tracer
            .time("core.read_mem", root, i as u64, || {
                c.read(DataAddr::new(op.addr))
            })
            .map_err(|e| format!("core read: {e}"))?;
        r.attempted += 1;
        if *got.as_bytes() != serve::value(seed, op.addr, 0) {
            r.failed += 1;
            r.correct = false;
        }
    }
    tracer.end(root);
    r.put("core.write_mem_ns", p50(tracer, "core.write_mem"), "ns");
    r.put("core.read_mem_ns", p50(tracer, "core.read_mem"), "ns");
    Ok(())
}

/// Slices the one-connection server window and the direct controller
/// writes are interleaved in, so both see the same device conditions.
const INTERLEAVE: u32 = 10;

/// What the serving probes hand to the ledgers.
struct Serving {
    /// Untraced p50 of the mix's headline op (µs).
    plain_p50: f64,
    /// Tenant rejections plus retries.
    rejects: u64,
}

/// Untraced then traced windows of `mix`, on all its connections, on a
/// fresh rig; records throughput, tail and tracing overhead. Returns the
/// rig (for more windows) and the untraced p50.
fn probe_serving(
    tracer: &Tracer,
    r: &mut Report,
    mix: &Mix,
    dir: &Path,
    seed: u64,
    dur: Duration,
) -> Result<(Rig, Vec<Op>, f64), String> {
    let mut rig = serving::set_up(mix, &dir.join(mix.name), seed)?;
    let ops = serving::ops(mix, seed);
    let plain = rig.measure(&ops, seed, dur, Watch::default())?;
    let wal = rig.wal.clone();
    let watch = Watch {
        tracer: Some(tracer),
        wal: Some(&wal),
    };
    let traced = rig.window(mix.clients, &ops, seed, dur, watch)?;
    for w in [&plain, &traced] {
        r.count(w);
    }
    let plain_p50 = p50_ns(&serving::headline(mix, &plain)) / 1e3;
    let traced_p50 = p50_ns(&serving::headline(mix, &traced)) / 1e3;
    println!(
        "# tracing overhead, {}: p50 {plain_p50:.2} us untraced vs {traced_p50:.2} us traced ({:+.2} us); {:.1} vs {:.1} ops/s",
        mix.name,
        traced_p50 - plain_p50,
        plain.ops_per_s(),
        traced.ops_per_s()
    );
    // The untraced runs print throughput and tail (and the whole of
    // durable_write) without gating them; the traced run records them.
    let s = serving::windowed(mix, &plain).ok_or("too few samples per sub-window")?;
    if mix.spec.read_fraction < 0.5 {
        r.put("nvm.compactions", traced.compactions as f64, "count");
        r.put("server.write_p50_us", plain_p50, "us");
        r.put("server.write_ops_per_s", s.rate, "1/s");
        r.put("server.write_tail_us", s.tail_ns / 1e3, "us");
    } else {
        r.put("server.mixed_ops_per_s", s.rate, "1/s");
        r.put("server.read_tail_us", s.tail_ns / 1e3, "us");
    }
    Ok((rig, ops, plain_p50))
}

/// Read-backs every line, counts rejections and stops the rig.
fn finish(r: &mut Report, mut rig: Rig, seed: u64) -> Result<u64, String> {
    let (reads, bad) = serve::verify_all(&mut rig.clients, seed, &rig.ledger)?;
    r.attempted += reads;
    r.failed += bad;
    r.correct &= bad == 0;
    let rejects = serve::rejects(&mut rig.clients[0])?;
    rig.shutdown();
    Ok(rejects)
}

fn probe_read_mostly(
    tracer: &Tracer,
    r: &mut Report,
    dir: &Path,
    seed: u64,
    dur: Duration,
) -> Result<Serving, String> {
    let (rig, _, plain_p50) = probe_serving(tracer, r, &serving::read_mostly(), dir, seed, dur)?;
    let rejects = finish(r, rig, seed)?;
    Ok(Serving { plain_p50, rejects })
}

/// The durable write path, layer by layer.
struct Durable {
    serving: Serving,
    /// One-connection server write p50 (µs).
    single_p50: f64,
    /// Direct controller write on its own `FileBackend` (µs).
    write: f64,
    /// Frame-sized append plus `sync_data` (µs).
    wal_sync: f64,
    /// Anchor seal (µs).
    seal: f64,
}

/// The `durable_write` server windows, then one-connection server writes
/// interleaved with direct AGIT-Plus writes on a private `FileBackend`
/// in the same data dir, then the device floor and the anchor seal.
fn probe_durable(
    tracer: &Tracer,
    r: &mut Report,
    dir: &Path,
    seed: u64,
    dur: Duration,
) -> Result<Durable, String> {
    let mix = serving::durable_write();
    let (mut rig, ops, plain_p50) = probe_serving(tracer, r, &mix, dir, seed, dur)?;

    let cdir = serve::fresh_dir(&dir.join("core"))?;
    let cfg = AnubisConfig::small_test();
    let path = cdir.join("durable.wal");
    let backend = FileBackend::open_with_anchor(&path, cfg.key.0, AnchorPolicy::Strict)
        .map_err(|e| format!("open: {e}"))?;
    let (mut c, _) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
    Supervisor::new()
        .recover(&mut c)
        .map_err(|e| format!("boot recovery: {e}"))?;
    prefill(&mut c, seed, mix.lines)?;
    let root = tracer.begin("probe.core_durable", 0, 0);
    let commits0 = c.domain().commits();
    let mut size = std::fs::metadata(&path).map_or(0, |m| m.len());
    let mut growth = Vec::new();
    let mut single = Vec::new();
    let mut writes = 0usize;
    for _ in 0..INTERLEAVE {
        let w = rig.window(1, &ops, seed, dur / INTERLEAVE, Watch::default())?;
        r.count(&w);
        single.extend(w.write_ns);
        let until = Instant::now() + dur / INTERLEAVE;
        while Instant::now() < until {
            let op = ops[writes % ops.len()];
            let v = block(serve::value(seed, op.addr, 1 + writes as u32));
            tracer
                .time("core.write_durable", root, writes as u64, || {
                    c.write(DataAddr::new(op.addr), v)
                })
                .map_err(|e| format!("durable write: {e}"))?;
            writes += 1;
            let now = std::fs::metadata(&path).map_or(size, |m| m.len());
            if now > size {
                growth.push(now - size);
            }
            size = now;
        }
    }
    let commits = (c.domain().commits() - commits0) as f64 / writes.max(1) as f64;
    drop(c);
    let rejects = finish(r, rig, seed)?;

    // The device floor: one frame-sized append plus sync_data.
    let frame = p50_ns(&growth).max(1.0) as usize;
    let mut f =
        std::fs::File::create(cdir.join("sync.bin")).map_err(|e| format!("sync file: {e}"))?;
    let bytes = vec![0xA5u8; frame];
    let deadline = Instant::now() + dur / 4;
    let mut i = 0;
    while Instant::now() < deadline {
        tracer
            .time("nvm.wal_sync", root, i, || {
                f.write_all(&bytes).and_then(|()| f.sync_data())
            })
            .map_err(|e| format!("wal sync probe: {e}"))?;
        i += 1;
    }
    let mut anchor = FreshnessAnchor::create(cdir.join("probe.anchor"), cfg.key.0, 1)
        .map_err(|e| format!("anchor: {e}"))?;
    let deadline = Instant::now() + dur / 4;
    let mut epoch = 2;
    while Instant::now() < deadline {
        tracer
            .time("nvm.anchor_seal", root, epoch, || anchor.seal(epoch))
            .map_err(|e| format!("anchor seal: {e}"))?;
        epoch += 1;
    }
    tracer.end(root);
    let d = Durable {
        serving: Serving { plain_p50, rejects },
        single_p50: p50_ns(&single) / 1e3,
        write: p50(tracer, "core.write_durable") / 1e3,
        wal_sync: p50(tracer, "nvm.wal_sync") / 1e3,
        seal: p50(tracer, "nvm.anchor_seal") / 1e3,
    };
    println!("# core.write_durable: {writes} writes, WAL frame ~{frame} bytes, {commits} commit groups per write");
    r.put("core.write_durable_us", d.write, "us");
    r.put("nvm.commits_per_write", commits, "commits/write");
    r.put("nvm.wal_sync_us", d.wal_sync, "us");
    r.put("nvm.anchor_seal_us", d.seal, "us");
    Ok(d)
}

/// The server's boot ladder: targeted repair first when reopen left a
/// hint, plain supervised recovery otherwise.
fn ladder<C: Supervised>(
    c: &mut C,
    hint: Option<RecoveryError>,
) -> Result<SupervisedRecovery, RecoveryError> {
    let sup = Supervisor::new();
    match &hint {
        Some(h) => sup.repair_then_recover(c, h),
        None => sup.recover(c),
    }
}

/// Offline recovery of each pristine image, then traced and untraced
/// restart samples.
fn probe_restart(
    tracer: &Tracer,
    r: &mut Report,
    dir: &Path,
    seed: u64,
    dur: Duration,
) -> Result<(Sample, Vec<(f64, f64)>), String> {
    let root_dir = dir.join("crash");
    let (images, ledger) = {
        let d = root_dir.join("image");
        let l = crash_restart::build_images(&d, seed)?;
        (d, l)
    };
    let cfg = AnubisConfig::small_test();
    let prints = fingerprint_dir(&images).map_err(|e| format!("fingerprinting: {e}"))?;
    let work = root_dir.join("offline");
    let mut offline = Vec::new();
    for (t, (name, family)) in TENANTS.iter().enumerate() {
        let fam = family.name();
        let image = images.join(format!("{name}.wal"));
        let bytes = std::fs::metadata(&image)
            .map_err(|e| format!("image size: {e}"))?
            .len();
        r.put(format!("nvm.wal_image_bytes.{fam}"), bytes as f64, "bytes");
        let (mut open, mut reopen, mut recover) = (Vec::new(), Vec::new(), Vec::new());
        let mut report = None;
        for rep in 0..RECOVERY_REPS {
            crash_restart::restore_images(&images, &prints, &work)?;
            let path = work.join(format!("{name}.wal"));
            let req = (t * RECOVERY_REPS + rep) as u64;
            let root = tracer.begin("core.offline_recovery", 0, req);
            let s0 = tracer.now();
            let backend = FileBackend::open_with_anchor(&path, cfg.key.0, AnchorPolicy::Strict)
                .map_err(|e| format!("wal open: {e}"))?;
            let s1 = tracer.now();
            let (s2, out) = match family {
                TenantFamily::BonsaiAgitPlus => {
                    let (mut c, hint) =
                        BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
                    (tracer.now(), ladder(&mut c, hint))
                }
                TenantFamily::SgxAsit => {
                    let (mut c, hint) = SgxController::reopen(SgxScheme::Asit, &cfg, backend);
                    (tracer.now(), ladder(&mut c, hint))
                }
            };
            let s3 = tracer.now();
            tracer.end(root);
            tracer.record("nvm.wal_open", s0, s1, root, req);
            tracer.record("core.reopen", s1, s2, root, req);
            tracer.record("core.recover", s2, s3, root, req);
            let out = out.map_err(|e| format!("{name} offline recovery: {e}"))?;
            open.push((s1 - s0) as f64 / 1e6);
            reopen.push((s2 - s1) as f64 / 1e6);
            recover.push((s3 - s2) as f64 / 1e6);
            report = Some(out.report);
        }
        let report = report.ok_or("no recovery reps")?;
        let (o, re, rc) = (median_f64(&open), median_f64(&reopen), median_f64(&recover));
        r.put(format!("nvm.wal_open_ms.{fam}"), o, "ms");
        r.put(format!("core.reopen_ms.{fam}"), re, "ms");
        r.put(format!("core.recover_ms.{fam}"), rc, "ms");
        r.put(
            format!("core.recovery_ops.{fam}"),
            report.total_ops() as f64,
            "count",
        );
        r.put(
            format!("core.recovery_estimated_us.{fam}"),
            report.estimated_ns() as f64 / 1e3,
            "us",
        );
        offline.push((o + re, rc));
    }
    let restart_dir = root_dir.join("restart");
    let plain = crash_restart::restarts(
        &images,
        &restart_dir,
        seed,
        &ledger,
        dur,
        MIN_RESTARTS,
        None,
    )?;
    let traced = crash_restart::restarts(
        &images,
        &restart_dir,
        seed,
        &ledger,
        dur,
        MIN_RESTARTS,
        Some(tracer),
    )?;
    for x in [&plain, &traced] {
        r.attempted += x.attempted;
        r.failed += x.failed;
        r.correct &= x.mismatches == 0;
    }
    let totals =
        |x: &crash_restart::Restarts| x.samples.iter().map(Sample::total).collect::<Vec<_>>();
    let (pp, tp) = (
        p50_ns(&totals(&plain)) / 1e6,
        p50_ns(&totals(&traced)) / 1e6,
    );
    println!(
        "# tracing overhead, crash_restart: p50 {pp:.3} ms untraced vs {tp:.3} ms traced ({:+.3} ms)",
        tp - pp
    );
    let tail = crate::stats::summarize(&totals(&plain)).ok_or("too few restart samples")?;
    r.put("server.restart_p50_ms", tail.p50 as f64 / 1e6, "ms");
    r.put("server.restart_tail_ms", tail.tail as f64 / 1e6, "ms");
    r.put("server.start_ms", p50(tracer, "server.start") / 1e6, "ms");
    r.put(
        "server.hello_wait_ms",
        p50(tracer, "server.hello_wait") / 1e6,
        "ms",
    );
    r.put(
        "server.ready_wait_ms",
        p50(tracer, "server.ready_wait") / 1e6,
        "ms",
    );
    // The ledger explains the untraced sample with the median total.
    let mut samples = plain.samples.clone();
    samples.sort_by_key(Sample::total);
    let median = samples[samples.len().div_ceil(2) - 1];
    Ok((median, offline))
}

/// Simulated figures of the run's trace, plus traced and untraced
/// replay pairs.
fn probe_sim(tracer: &Tracer, r: &mut Report, seed: u64, dur: Duration) -> Result<(), String> {
    let bad = sim_replay::check_reference()?;
    sim_replay::print_reference_check(&bad);
    r.attempted += SCHEMES.len() as u64;
    r.failed += bad.len() as u64;
    r.correct &= bad.is_empty();
    let trace = sim_replay::trace(seed);
    let reference = sim_replay::Reference {
        results: SCHEMES
            .iter()
            .map(|s| sim_replay::replay(*s, &trace).map(|(x, _)| x))
            .collect::<Result<Vec<_>, _>>()?,
    };
    for (s, res) in SCHEMES.iter().zip(&reference.results) {
        r.put(
            format!("sim.total_ns.{}", s.key()),
            res.total_ns as f64,
            "ns",
        );
        r.put(
            format!("sim.nvm_reads.{}", s.key()),
            res.nvm_reads as f64,
            "count",
        );
        r.put(
            format!("sim.nvm_writes_per_data_write.{}", s.key()),
            res.writes_per_data_write,
            "writes/write",
        );
    }
    r.put("sim.overhead_pct.agit_plus", reference.agit_overhead(), "%");
    r.put("sim.overhead_pct.asit", reference.asit_overhead(), "%");
    let plain = sim_replay::pairs(&trace, &reference, dur, None)?;
    let traced = sim_replay::pairs(&trace, &reference, dur, Some(tracer))?;
    for p in [&plain, &traced] {
        r.attempted += 2 * p.pair_ns.len() as u64;
        r.failed += p.mismatches;
        r.correct &= p.mismatches == 0;
    }
    let (pp, tp) = (p50_ns(&plain.pair_ns) / 1e6, p50_ns(&traced.pair_ns) / 1e6);
    println!("# tracing overhead, sim_replay: pair p50 {pp:.3} ms untraced vs {tp:.3} ms traced ({:+.3} ms)", tp - pp);
    let mut agit = plain.agit_rate.clone();
    agit.extend(&traced.agit_rate);
    let mut asit = plain.asit_rate.clone();
    asit.extend(&traced.asit_rate);
    r.put(
        format!("sim.replay_ops_per_s.{}", Scheme::AgitPlus.key()),
        median_f64(&agit),
        "1/s",
    );
    r.put(
        format!("sim.replay_ops_per_s.{}", Scheme::Asit.key()),
        median_f64(&asit),
        "1/s",
    );
    Ok(())
}

fn stage(name: &'static str, value: f64) -> Stage {
    Stage { name, value }
}

/// The traced run.
///
/// # Errors
///
/// Any probe's set-up failure.
pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    println!("# layer metric -> end-to-end metric it should move -> workload");
    for (layer, e2e, workload) in MAP {
        println!("#   {layer:<30} -> {e2e} -> {workload}");
    }
    let tracer = Tracer::new();
    let mut r = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    // Window length per measured phase: the survey has about eight.
    let dur = Duration::from_secs_f64((args.seconds as f64 / 8.0).max(0.5));
    let seed = args.seed;

    probe_micro(&tracer, &mut r);
    probe_core_mem(&tracer, &mut r, seed)?;
    let d = probe_durable(&tracer, &mut r, dir, seed, dur)?;
    let rm = probe_read_mostly(&tracer, &mut r, dir, seed, dur)?;
    let (sample, offline) = probe_restart(&tracer, &mut r, dir, seed, dur)?;
    probe_sim(&tracer, &mut r, seed, dur)?;

    let value = |r: &Report, name: &str| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let codec_w = value(&r, "protocol.codec_write_ns") / 1e3;
    let codec_r = value(&r, "protocol.codec_read_ns") / 1e3;
    let (w_plain, r_plain) = (d.serving.plain_p50, rm.plain_p50);
    let lock_wait = w_plain - d.single_p50;
    let write_ledger = Ledger {
        label: "durable_write: write RTT p50, 2 connections",
        unit: "us",
        total: w_plain,
        stages: vec![
            stage("protocol.codec_write_ns", codec_w),
            stage("core.write_durable_us", d.write),
            stage("server.lock_wait_us", lock_wait),
        ],
    };
    let read_ledger = Ledger {
        label: "read_mostly: read RTT p50, 1 connection",
        unit: "us",
        total: r_plain,
        stages: vec![
            stage("protocol.codec_read_ns", codec_r),
            stage("core.read_mem_ns", value(&r, "core.read_mem_ns") / 1e3),
        ],
    };
    r.put("server.lock_wait_us", lock_wait, "us");
    // Residual: the RTT minus codec and controller, i.e. transport,
    // admission and the tenant lock.
    r.put(
        "server.write_residual_us",
        write_ledger.remainder() + lock_wait,
        "us",
    );
    r.put("server.read_residual_us", read_ledger.remainder(), "us");
    r.put(
        "server.rejects_total",
        (d.serving.rejects + rm.rejects) as f64,
        "count",
    );

    let ledgers = [
        write_ledger,
        read_ledger,
        Ledger {
            label: "crash_restart: median restart sample",
            unit: "ms",
            total: sample.total() as f64 / 1e6,
            stages: vec![
                stage("server.start_ms", sample.start as f64 / 1e6),
                stage("server.hello_wait_ms", sample.hello as f64 / 1e6),
                stage("server.ready_wait_ms", sample.ready as f64 / 1e6),
            ],
        },
    ];
    for l in &ledgers {
        l.print();
        if !l.consistent() {
            r.correct = false;
            r.failed += 1;
        }
    }
    // Breakdowns inside one stage; informational, measured apart.
    Ledger {
        label: "inside core.write_durable_us p50 (stages timed apart, may overrun)",
        unit: "us",
        total: d.write,
        stages: vec![
            stage("nvm.wal_sync_us", d.wal_sync),
            stage("nvm.anchor_seal_us", d.seal),
            stage("core.write_mem_ns", value(&r, "core.write_mem_ns") / 1e3),
        ],
    }
    .print();
    Ledger {
        label: "inside server.start_ms, median sample (stages timed offline, may overrun)",
        unit: "ms",
        total: sample.start as f64 / 1e6,
        stages: vec![
            stage(
                "nvm.wal_open_ms.bonsai + core.reopen_ms.bonsai",
                offline[0].0,
            ),
            stage("nvm.wal_open_ms.sgx + core.reopen_ms.sgx", offline[1].0),
        ],
    }
    .print();
    println!(
        "# recovery ladders run in the background from server.start: core.recover_ms bonsai {:.3}, sgx {:.3} (the slower one bounds server.ready_wait_ms)",
        offline[0].1, offline[1].1
    );

    let spans = Path::new(".perfbench").join(format!("spans-{}.jsonl", args.workload.name()));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing spans: {e}"))?;
    println!("# {} spans written to {}", tracer.len(), spans.display());
    Ok(Outcome {
        correct: r.correct,
        attempted: r.attempted.max(1),
        failed: r.failed,
        metrics: r.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NVM block reads caused by reading every line of `0..lines` once
    /// more, after a prefill and one warm pass, on an ASIT controller
    /// with the serving geometry.
    fn reads_per_pass(lines: u64) -> u64 {
        let mut c = SgxController::new(SgxScheme::Asit, &AnubisConfig::small_test());
        prefill(&mut c, 1, lines).expect("prefill");
        let pass = |c: &mut SgxController| {
            for a in 0..lines {
                c.read(DataAddr::new(a)).expect("read");
            }
        };
        pass(&mut c);
        let before = c.domain().device().stats().snapshot().reads;
        pass(&mut c);
        c.domain().device().stats().snapshot().reads - before
    }

    #[test]
    fn read_mostly_hot_set_fits_the_metadata_cache() {
        // Warm hot set: one device read per line, no metadata traffic.
        // Device reads of one data line with every metadata block cached,
        // measured on a set of one leaf.
        let per_line = reads_per_pass(8) / 8;
        let hot = serving::HOT_LINES;
        assert_eq!(reads_per_pass(hot), hot * per_line);
        // A set one leaf-group larger already misses.
        assert!(reads_per_pass(hot + 128) > (hot + 128) * per_line);
    }
}
