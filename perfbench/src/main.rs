//! The repository benchmark: drives the shipped Anubis stack from outside
//! and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <durable_write|read_mostly|crash_restart|sim_replay>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics of the chosen
//! workload; with `--trace 1` it runs every layer probe (see `layers`)
//! with span recording, prints the stage ledgers and tracing overheads,
//! and reports every per-layer metric. A traced run reports every
//! per-layer metric, so it surveys all workloads' layers whatever its
//! `--workload`, which then only names the spans file. All working files live
//! under `.perfbench/` in the working directory. `--child-serve <dir>` is
//! the server process `crash_restart` spawns and SIGKILLs to build its
//! crashed images.

mod crash_restart;
mod host;
mod layers;
mod serve;
mod serving;
mod sim_replay;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <durable_write|read_mostly|crash_restart|sim_replay> --seed <n> --seconds <n> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop single-line durable writes to one AGIT-Plus tenant.
    DurableWrite,
    /// Closed-loop 95 % read mix on one ASIT tenant's hot set.
    ReadMostly,
    /// Restart from crashed images to the first verified read.
    CrashRestart,
    /// In-memory simulated replay of a milc trace.
    SimReplay,
}

impl Workload {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DurableWrite => "durable_write",
            Workload::ReadMostly => "read_mostly",
            Workload::CrashRestart => "crash_restart",
            Workload::SimReplay => "sim_replay",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        [
            Workload::DurableWrite,
            Workload::ReadMostly,
            Workload::CrashRestart,
            Workload::SimReplay,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One run's verdict and metrics.
pub struct Outcome {
    /// Every output matched its ledger or recorded value.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (rejections, errors, mismatches).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    if args.trace {
        return layers::run(args, dir);
    }
    match args.workload {
        Workload::DurableWrite => {
            serving::run(&serving::durable_write(), dir, args.seed, args.seconds)
        }
        Workload::ReadMostly => serving::run(&serving::read_mostly(), dir, args.seed, args.seconds),
        Workload::CrashRestart => crash_restart::run(dir, args.seed, args.seconds),
        Workload::SimReplay => sim_replay::run(args.seed, args.seconds),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child-serve") {
        return crash_restart::child_serve(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    host::print_header(&args, &dir);
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
