//! Machine-readable recovery benchmark: serial wall-clock recovery time
//! per scheme after a seeded dirtying replay, alongside the counted
//! recovery work (`report_ops`, `blocks_touched`) the paper's
//! recovery-time figures are built from.
//!
//! Emits `BENCH_recovery.json` (override with `--out PATH`). The counted
//! work is deterministic; the wall clock is best-of-N on the host named
//! in the file's `host` header.

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, MemoryController, RecoveryReport, SgxController,
    SgxScheme,
};
use anubis_bench::json::Json;
use anubis_bench::out_path_from_args;
use anubis_sim::{run_trace, TimingModel};
use anubis_workloads::{spec2006, TraceGenerator};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("ANUBIS_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
    let (capacity, dirty_ops, reps) = if smoke {
        (4u64 << 20, 3_000usize, 2u32)
    } else {
        (32u64 << 20, 40_000usize, 5u32)
    };
    let config = AnubisConfig::small_test()
        .with_capacity(capacity)
        .with_cache_bytes(32 << 10);
    let trace =
        TraceGenerator::new(spec2006::milc(), config.capacity_bytes).generate(dirty_ops, 1907);

    println!("== Anubis reproduction :: recovery benchmark ==");
    println!(
        "capacity {} MiB, {} dirtying ops, best of {reps}",
        capacity >> 20,
        trace.len(),
    );

    // Controllers default to the global registry, so enabling it here
    // lights up phase spans for every timed recovery below. The recovery
    // wall-clocks are not regression-gated against a committed baseline,
    // so recording during the timed loops is fine — and gives the
    // artifact real data.
    let telemetry = anubis_bench::telemetry::start();
    let cases = vec![
        // Osiris: whole-memory sweep (Figure 12's worst case) — every
        // counter block counter-trialled, whole tree rebuilt bottom-up.
        case(
            "osiris",
            "whole-memory sweep (fig12)",
            &mut BonsaiController::new(BonsaiScheme::Osiris, &config),
            &trace,
            reps,
        ),
        // AGIT+: tracked-leaf repair, O(cache).
        case(
            "agit-plus",
            "shadow-tracked leaf repair",
            &mut BonsaiController::new(BonsaiScheme::AgitPlus, &config),
            &trace,
            reps,
        ),
        // ASIT: shadow-table verification + splice, O(cache).
        case(
            "asit",
            "shadow-table verify + splice",
            &mut SgxController::new(SgxScheme::Asit, &config),
            &trace,
            reps,
        ),
    ];

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("recovery".into())),
        ("host", anubis_bench::host_info_json()),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("capacity_bytes", Json::Int(capacity)),
                ("cache_bytes", Json::Int(32 << 10)),
                ("dirty_ops", Json::Int(trace.len() as u64)),
                ("reps", Json::Int(u64::from(reps))),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ]);
    let out = out_path_from_args("BENCH_recovery.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("wrote {}", out.display());
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_recovery");
}

/// Dirties `ctrl` with `trace`, crashes it, then times `reps` recoveries
/// of clones of the crashed state (keeping the best) and renders the
/// scheme's row.
fn case<C: MemoryController + Clone>(
    scheme: &str,
    mode: &str,
    ctrl: &mut C,
    trace: &anubis_workloads::Trace,
    reps: u32,
) -> Json {
    run_trace(ctrl, trace, &TimingModel::paper()).expect("dirtying replay");
    ctrl.crash();
    let mut best_ns = f64::INFINITY;
    let mut report = RecoveryReport::default();
    for _ in 0..reps {
        let mut c = ctrl.clone();
        let t0 = Instant::now();
        report = c
            .recover()
            .unwrap_or_else(|e| panic!("{scheme} recovery: {e}"));
        best_ns = best_ns.min(t0.elapsed().as_nanos() as f64);
    }
    let secs = best_ns / 1e9;
    let blocks = report.nvm_reads + report.nvm_writes;
    println!(
        "{scheme:>10}: {best_ns:>12.0} ns, {:>9} report ops, {blocks:>9} blocks touched",
        report.total_ops(),
    );
    Json::obj(vec![
        ("scheme", Json::Str(scheme.into())),
        ("mode", Json::Str(mode.into())),
        ("wall_ns", Json::Num(best_ns)),
        ("report_ops", Json::Int(report.total_ops())),
        (
            "ns_per_op",
            Json::Num(best_ns / report.total_ops().max(1) as f64),
        ),
        ("blocks_touched", Json::Int(blocks)),
        (
            "blocks_per_s",
            Json::Num(if secs > 0.0 {
                blocks as f64 / secs
            } else {
                0.0
            }),
        ),
    ])
}
