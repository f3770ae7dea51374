//! Machine-readable crash-storm benchmark: supervised recovery under
//! randomized fault plans (power cuts, torn writes, bit flips — plus
//! write cuts injected *during* recovery), one campaign per scheme.
//!
//! Every run must terminate in a structured `RecoveryOutcome`; the
//! campaign fingerprint digests every run's outcome and repair counts.
//! Emits `BENCH_recovery_degraded.json` (override with `--out PATH`).
//!
//! `--smoke` / `ANUBIS_SMOKE=1` runs a reduced campaign; the full scale
//! drives 170 randomized plans per scheme (6 schemes, >1000 plans total).

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme, Supervised};
use anubis_bench::json::Json;
use anubis_bench::out_path_from_args;
use anubis_sim::{crash_storm, StormConfig};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("ANUBIS_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
    let runs_per_scheme: u64 = if smoke { 6 } else { 170 };
    let config = AnubisConfig::small_test().with_spare_blocks(256);

    println!("== Anubis reproduction :: degraded-mode recovery storm ==");
    println!("{runs_per_scheme} randomized fault plans per scheme");

    let telemetry = anubis_bench::telemetry::start();
    let mut plans_total = 0u64;
    let mut cases = Vec::new();

    let schemes: &[(&str, u64)] = &[
        ("osiris", 0x05),
        ("agit-read", 0xA6),
        ("agit-plus", 0xA7),
        ("bonsai-strict", 0xB5),
        ("asit", 0x51),
        ("sgx-strict", 0x55),
    ];
    for &(name, seed) in schemes {
        let storm = StormConfig {
            runs: runs_per_scheme,
            ops: 24,
            addr_space: 256,
            seed,
            max_retries: 3,
            recovery_faults: true,
        };
        let case = match name {
            "osiris" => storm_case(name, &storm, || {
                BonsaiController::new(BonsaiScheme::Osiris, &config)
            }),
            "agit-read" => storm_case(name, &storm, || {
                BonsaiController::new(BonsaiScheme::AgitRead, &config)
            }),
            "agit-plus" => storm_case(name, &storm, || {
                BonsaiController::new(BonsaiScheme::AgitPlus, &config)
            }),
            "bonsai-strict" => storm_case(name, &storm, || {
                BonsaiController::new(BonsaiScheme::StrictPersist, &config)
            }),
            "asit" => storm_case(name, &storm, || {
                SgxController::new(SgxScheme::Asit, &config)
            }),
            _ => storm_case(name, &storm, || {
                SgxController::new(SgxScheme::StrictPersist, &config)
            }),
        };
        plans_total += runs_per_scheme;
        cases.push(case);
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("recovery_degraded".into())),
        ("host", anubis_bench::host_info_json()),
        ("smoke", Json::Bool(smoke)),
        (
            "config",
            Json::obj(vec![
                ("runs_per_scheme", Json::Int(runs_per_scheme)),
                ("plans_total", Json::Int(plans_total)),
                ("ops_per_run", Json::Int(24)),
                ("spare_blocks", Json::Int(256)),
                ("recovery_faults", Json::Bool(true)),
            ]),
        ),
        ("cases", Json::Arr(cases)),
    ]);
    let out = out_path_from_args("BENCH_recovery_degraded.json");
    std::fs::write(&out, doc.render()).expect("write baseline json");
    println!("wrote {}", out.display());
    anubis_bench::telemetry::finish(&telemetry, &out, "bench_recovery_degraded");
}

/// Runs one scheme's campaign and renders its row.
fn storm_case<C, F>(name: &str, storm: &StormConfig, make: F) -> Json
where
    C: Supervised,
    F: Fn() -> C,
{
    let t0 = Instant::now();
    let r = crash_storm(&make, storm);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    println!(
        "{name:>14}: {:>4} recovered / {:>3} degraded / {:>3} quarantined, \
         {} lost lines, {} recovery faults, fp {:016x}",
        r.recovered,
        r.degraded,
        r.quarantined,
        r.lost_lines,
        r.recovery_faults_injected,
        r.fingerprint,
    );
    Json::obj(vec![
        ("scheme", Json::Str(name.into())),
        ("wall_ns", Json::Num(wall_ns)),
        ("runs", Json::Int(r.runs)),
        ("recovered", Json::Int(r.recovered)),
        ("degraded", Json::Int(r.degraded)),
        ("quarantined", Json::Int(r.quarantined)),
        ("repaired_lines", Json::Int(r.repaired_lines)),
        ("rebuilt_nodes", Json::Int(r.rebuilt_nodes)),
        ("quarantined_lines", Json::Int(r.quarantined_lines)),
        ("lost_lines", Json::Int(r.lost_lines)),
        ("retries_total", Json::Int(r.retries_total)),
        ("escalations_total", Json::Int(r.escalations_total)),
        (
            "recovery_faults_injected",
            Json::Int(r.recovery_faults_injected),
        ),
        ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
    ])
}
