//! Kill −9 restart drill: SIGKILL a child process serving a
//! deterministic trace against the file-backed NVM device, restart in a
//! fresh address space, recover, and verify every acknowledged write.
//!
//! Emits `BENCH_drill.json` (override with `--out PATH`). Exit code 1 on
//! any contract violation: an acknowledged write lost or a recovery
//! failure.
//!
//! Knobs (all environment variables):
//!
//! | knob | default | meaning |
//! |---|---|---|
//! | `ANUBIS_DRILL_POINTS` | 100 | randomized kill points **per family** |
//! | `ANUBIS_DRILL_SEED` | `0xA17B05E7` | script + kill-point seed |
//! | `ANUBIS_DRILL_DIR` | `$TMPDIR/anubis-drill` | scratch for images/logs |
//! | `ANUBIS_DRILL_SWEEP` | unset | `1` = exhaustive: one kill point per possible ack count |
//!
//! The drill re-executes this binary with `--child ...` as the victim
//! process; the child serves the script and is killed mid-flight.

use std::path::PathBuf;
use std::process::ExitCode;

use anubis_bench::json::Json;
use anubis_bench::out_path_from_args;
use anubis_sim::drill::{run_campaign, DrillFamily, DrillSpec, FamilyReport};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn family_json(r: &FamilyReport) -> Json {
    let outcomes: Vec<Json> = r
        .outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("kill_after_acks", Json::Int(o.kill_after_acks)),
                ("acked", Json::Int(o.acked)),
                ("completed", Json::Bool(o.completed)),
                ("verified_addrs", Json::Int(o.verified_addrs)),
                ("inflight_observed", Json::Bool(o.inflight_observed)),
                ("outcome", Json::Str(o.outcome.clone())),
                ("fingerprint", Json::Str(format!("{:#018x}", o.fingerprint))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("family", Json::Str(r.family.name().into())),
        ("points", Json::Int(r.points)),
        ("completed_runs", Json::Int(r.completed_runs)),
        ("acked_total", Json::Int(r.acked_total)),
        ("inflight_observed", Json::Int(r.inflight_observed)),
        (
            "kill_range",
            Json::Arr(vec![Json::Int(r.kill_range.0), Json::Int(r.kill_range.1)]),
        ),
        ("acked_write_losses", Json::Int(0)),
        ("points_detail", Json::Arr(outcomes)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        return match anubis_sim::drill::child_main(&args[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("drill child: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("drill: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = env_u64("ANUBIS_DRILL_POINTS", 100);
    let seed = env_u64("ANUBIS_DRILL_SEED", 0xA17B_05E7);
    let sweep = std::env::var("ANUBIS_DRILL_SWEEP")
        .map(|v| v == "1")
        .unwrap_or(false);
    let dir = std::env::var_os("ANUBIS_DRILL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("anubis-drill"));
    let spec = DrillSpec {
        seed,
        ..DrillSpec::default()
    };

    println!("== Anubis reproduction :: kill -9 restart drill ==");
    println!(
        "{} kill points/family{}, seed {seed:#x}, scratch {}",
        points,
        if sweep { " (exhaustive sweep)" } else { "" },
        dir.display()
    );

    let mut families = Vec::new();
    let mut total_points = 0u64;
    let mut total_acked = 0u64;
    for family in DrillFamily::all() {
        match run_campaign(&exe, family, &spec, &dir, points, sweep) {
            Ok(report) => {
                println!(
                    "  {:<18} {:>4} points, {:>6} acked writes verified, \
                     {} clean-exit runs, in-flight observed {}x",
                    family.name(),
                    report.points,
                    report.acked_total,
                    report.completed_runs,
                    report.inflight_observed
                );
                total_points += report.points;
                total_acked += report.acked_total;
                families.push(family_json(&report));
            }
            Err(e) => {
                eprintln!("drill FAILED for {}: {e}", family.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let doc = Json::obj(vec![
        ("benchmark", Json::Str("drill".into())),
        ("host", anubis_bench::host_info_json()),
        ("seed", Json::Int(seed)),
        ("sweep", Json::Bool(sweep)),
        ("script_len", Json::Int(spec.script_len as u64)),
        ("lines", Json::Int(spec.lines)),
        ("total_kill_points", Json::Int(total_points)),
        ("total_acked_verified", Json::Int(total_acked)),
        ("acked_write_losses", Json::Int(0)),
        ("families", Json::Arr(families)),
    ]);
    let out = out_path_from_args("BENCH_drill.json");
    if let Err(e) = std::fs::write(&out, doc.render()) {
        eprintln!("drill: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{total_points} kill points, {total_acked} acked writes verified, zero losses -> {}",
        out.display()
    );
    ExitCode::SUCCESS
}
