//! `sim_replay`: the paper's simulated path. `run_trace` over a seeded
//! milc trace on the four schemes the overhead figures compare, in
//! memory — no fsync, no sockets. Simulated results are host-independent
//! and must repeat bit-exactly.

use std::time::{Duration, Instant};

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
use anubis_sim::{run_trace, RunResult, TimingModel};
use anubis_workloads::{spec2006, Trace, TraceGenerator};

use crate::host::SpeedProbe;
use crate::stats::median_f64;
use crate::trace::Tracer;
use crate::{Metric, Outcome, SETUP_REPS};

/// Trace ops per replay.
pub const TRACE_OPS: usize = 40_000;

/// Seed of the reference trace whose simulated figures are recorded in
/// [`EXPECTED`]; every run replays it during set-up and checks them.
pub const REFERENCE_SEED: u64 = 1907;

/// The four schemes: each Anubis scheme and its family's write-back
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Bonsai tree, write-back metadata caches.
    BonsaiWb,
    /// Bonsai tree under AGIT-Plus.
    AgitPlus,
    /// SGX tree, write-back metadata caches.
    SgxWb,
    /// SGX tree under ASIT.
    Asit,
}

/// All four, in report order.
pub const SCHEMES: [Scheme; 4] = [
    Scheme::BonsaiWb,
    Scheme::AgitPlus,
    Scheme::SgxWb,
    Scheme::Asit,
];

impl Scheme {
    /// Metric-name suffix.
    pub fn key(self) -> &'static str {
        match self {
            Scheme::BonsaiWb => "bonsai_wb",
            Scheme::AgitPlus => "agit_plus",
            Scheme::SgxWb => "sgx_wb",
            Scheme::Asit => "asit",
        }
    }
}

/// Simulated `(total_ns, nvm_reads, nvm_writes)` of the reference trace,
/// per scheme in [`SCHEMES`] order.
pub const EXPECTED: [(u64, u64, u64); 4] = [
    (6_429_130, 61_312, 31_041),
    (6_705_424, 61_312, 48_481),
    (7_616_262, 112_763, 50_036),
    (8_556_994, 117_411, 101_927),
];

/// The replay geometry: `small_test` caches over 8 MiB of data.
pub fn config() -> AnubisConfig {
    AnubisConfig::small_test().with_capacity(8 << 20)
}

/// The seeded milc trace.
pub fn trace(seed: u64) -> Trace {
    TraceGenerator::new(spec2006::milc(), config().capacity_bytes).generate(TRACE_OPS, seed)
}

/// Replays `trace` on a fresh controller of `scheme`; returns the result
/// and the host time of the replay alone.
///
/// # Errors
///
/// A controller error, which on an untampered memory is a bug.
pub fn replay(scheme: Scheme, trace: &Trace) -> Result<(RunResult, Duration), String> {
    let cfg = config();
    let model = TimingModel::paper();
    let err = |e: anubis::MemError| format!("{} replay: {e}", scheme.key());
    match scheme {
        Scheme::BonsaiWb | Scheme::AgitPlus => {
            let s = if scheme == Scheme::AgitPlus {
                BonsaiScheme::AgitPlus
            } else {
                BonsaiScheme::WriteBack
            };
            let mut c = BonsaiController::new(s, &cfg);
            let t = Instant::now();
            let r = run_trace(&mut c, trace, &model).map_err(err)?;
            Ok((r, t.elapsed()))
        }
        Scheme::SgxWb | Scheme::Asit => {
            let s = if scheme == Scheme::Asit {
                SgxScheme::Asit
            } else {
                SgxScheme::WriteBack
            };
            let mut c = SgxController::new(s, &cfg);
            let t = Instant::now();
            let r = run_trace(&mut c, trace, &model).map_err(err)?;
            Ok((r, t.elapsed()))
        }
    }
}

/// Simulated overhead of `scheme` over its family's write-back, percent.
pub fn overhead_pct(scheme: &RunResult, write_back: &RunResult) -> f64 {
    100.0 * (scheme.total_ns as f64 / write_back.total_ns as f64 - 1.0)
}

/// Replays the reference trace on every scheme and returns the schemes
/// whose figures differ from [`EXPECTED`].
///
/// # Errors
///
/// A replay error.
pub fn check_reference() -> Result<Vec<String>, String> {
    let t = trace(REFERENCE_SEED);
    let mut bad = Vec::new();
    for (scheme, want) in SCHEMES.iter().zip(EXPECTED) {
        let (r, _) = replay(*scheme, &t)?;
        let got = (r.total_ns, r.nvm_reads, r.nvm_writes);
        if got != want {
            bad.push(format!("{}: got {got:?}, recorded {want:?}", scheme.key()));
        }
    }
    Ok(bad)
}

/// Prints the outcome of [`check_reference`].
pub fn print_reference_check(bad: &[String]) {
    if bad.is_empty() {
        println!("# reference seed {REFERENCE_SEED}: simulated figures of all four schemes equal the recorded ones");
    }
    for b in bad {
        println!("# reference seed {REFERENCE_SEED} MISMATCH {b}");
    }
}

/// The simulated figures of the run's own trace, one replay per scheme.
pub struct Reference {
    /// Results in [`SCHEMES`] order.
    pub results: Vec<RunResult>,
}

impl Reference {
    fn of(&self, s: Scheme) -> &RunResult {
        &self.results[SCHEMES.iter().position(|x| *x == s).expect("scheme listed")]
    }

    /// AGIT-Plus over Bonsai write-back, percent.
    pub fn agit_overhead(&self) -> f64 {
        overhead_pct(self.of(Scheme::AgitPlus), self.of(Scheme::BonsaiWb))
    }

    /// ASIT over SGX write-back, percent.
    pub fn asit_overhead(&self) -> f64 {
        overhead_pct(self.of(Scheme::Asit), self.of(Scheme::SgxWb))
    }
}

/// Timed AGIT-Plus + ASIT replay pairs.
pub struct Pairs {
    /// Host time of each pair (ns).
    pub pair_ns: Vec<u64>,
    /// Host time of the [`SpeedProbe`] pass taken just before each pair (ns).
    pub probe_ns: Vec<u64>,
    /// AGIT-Plus trace ops per host second, per pair.
    pub agit_rate: Vec<f64>,
    /// ASIT trace ops per host second, per pair.
    pub asit_rate: Vec<f64>,
    /// Replays whose result differed from the first.
    pub mismatches: u64,
}

/// Replays AGIT-Plus then ASIT on `trace` until `dur` passes, checking
/// each result against `reference` bit for bit, and gauges the host's
/// speed with a [`SpeedProbe`] pass before each pair.
///
/// # Errors
///
/// A replay error.
pub fn pairs(
    trace: &Trace,
    reference: &Reference,
    dur: Duration,
    tracer: Option<&Tracer>,
) -> Result<Pairs, String> {
    let mut p = Pairs {
        pair_ns: Vec::new(),
        probe_ns: Vec::new(),
        agit_rate: Vec::new(),
        asit_rate: Vec::new(),
        mismatches: 0,
    };
    let deadline = Instant::now() + dur;
    let ops = trace.len() as f64;
    let mut k = 0;
    let probe = SpeedProbe::new();
    while Instant::now() < deadline {
        p.probe_ns.push(probe.time_ns());
        let (ra, ta) = replay(Scheme::AgitPlus, trace)?;
        let (rs, ts) = replay(Scheme::Asit, trace)?;
        if let Some(tr) = tracer {
            let end = tr.now();
            let begin = end.saturating_sub((ta + ts).as_nanos() as u64);
            let root = tr.record("sim.replay_pair", begin, end, 0, k);
            tr.record(
                "sim.replay.agit_plus",
                begin,
                begin + ta.as_nanos() as u64,
                root,
                k,
            );
            tr.record("sim.replay.asit", end - ts.as_nanos() as u64, end, root, k);
        }
        p.mismatches += u64::from(ra != *reference.of(Scheme::AgitPlus));
        p.mismatches += u64::from(rs != *reference.of(Scheme::Asit));
        p.pair_ns.push((ta + ts).as_nanos() as u64);
        p.agit_rate.push(ops / ta.as_secs_f64());
        p.asit_rate.push(ops / ts.as_secs_f64());
        k += 1;
    }
    Ok(p)
}

/// Set-up: generates the traces and replays the reference trace on
/// every scheme ([`SETUP_REPS`] times, which also warms the host), then
/// replays the run's trace once per scheme. Returns the run's trace, its
/// reference figures, the median set-up time, and reference mismatches.
///
/// # Errors
///
/// A replay error.
pub fn set_up(seed: u64) -> Result<(Trace, Reference, f64, Vec<String>), String> {
    let mut times = Vec::new();
    let mut bad = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        bad = check_reference()?;
        times.push(t.elapsed().as_secs_f64());
    }
    let trace = trace(seed);
    let results = SCHEMES
        .iter()
        .map(|s| replay(*s, &trace).map(|(r, _)| r))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((trace, Reference { results }, median_f64(&times), bad))
}

/// The untraced `sim_replay` run.
///
/// # Errors
///
/// A replay error or too few pairs for a tail.
pub fn run(seed: u64, secs: u64) -> Result<Outcome, String> {
    let (trace, reference, setup_s, bad) = set_up(seed)?;
    print_reference_check(&bad);
    let p = pairs(&trace, &reference, Duration::from_secs(secs), None)?;
    let pair_ms: Vec<f64> = p.pair_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    println!(
        "# sim_replay: {} AGIT-Plus + ASIT replay pairs of {} trace ops (seed {seed}), {} result mismatches",
        p.pair_ns.len(),
        trace.len(),
        p.mismatches
    );
    // Every pair does bit-identical work, so its time varies only with
    // the host's speed, which drifts by up to a half over minutes on a
    // shared host: across runs of one build even the fastest pair moved
    // by a quarter. Each pair is therefore normalised by the speed probe
    // taken beside it, and the median of those is reported.
    let normalised: Vec<f64> = p
        .pair_ns
        .iter()
        .zip(&p.probe_ns)
        .map(|(&w, &c)| SpeedProbe::normalise(w, c) / 1e3)
        .collect();
    let time_us = median_f64(&normalised);
    let probe_ms: Vec<f64> = p.probe_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    println!(
        "#   replay pair: median {:.3} ms, fastest {:.3} ms; speed probe median {:.3} ms",
        median_f64(&pair_ms),
        pair_ms.iter().copied().fold(f64::INFINITY, f64::min),
        median_f64(&probe_ms)
    );
    println!(
        "#   replay pair normalised to a {:.0} ms probe: median {:.3} ms (reported as time_us)",
        SpeedProbe::REFERENCE_NS / 1e6,
        time_us / 1e3
    );
    println!(
        "#   replay_agit_plus_ops_per_s = {:.1}, replay_asit_ops_per_s = {:.1} trace ops/s (medians)",
        median_f64(&p.agit_rate),
        median_f64(&p.asit_rate)
    );
    println!(
        "#   sim_overhead_agit_plus_pct = {} %, sim_overhead_asit_pct = {} % (simulated, exact)",
        reference.agit_overhead(),
        reference.asit_overhead()
    );
    Ok(Outcome {
        correct: p.mismatches == 0 && bad.is_empty(),
        attempted: 2 * p.pair_ns.len() as u64 + SCHEMES.len() as u64,
        failed: p.mismatches + bad.len() as u64,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("time_us", time_us, "us"),
        ],
    })
}
