//! Crash-storm campaign over every recoverable scheme: randomized fault
//! plans (power cuts, torn writes, bit flips, plus write cuts injected
//! *during* recovery) must all terminate in a structured
//! `RecoveryOutcome` with the acknowledged-write contract intact.
//!
//! The smoke campaigns also pin each scheme's campaign fingerprint to a
//! constant, so a change that alters any run's outcome or repair counts
//! fails here. The constants were generated once and must not be edited
//! to make a change pass: a mismatch means the change altered behaviour.
//!
//! The smoke-sized campaign always runs; set `ANUBIS_CRASH_SWEEP=1` for
//! the exhaustive sweep (>1000 randomized plans, the scale
//! `bench_recovery_degraded` ships as an artifact).

use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme, Supervised};
use anubis_sim::{crash_storm, StormConfig, StormReport};

/// Fingerprints of the six-run smoke campaign, seed `0xC5`.
const BONSAI_PINS: [(&str, u64); 4] = [
    ("osiris", 0x554a_40ba_f8f7_28aa),
    ("agit-read", 0xde5c_b443_3306_d5c3),
    ("agit-plus", 0x5fae_b102_2fcf_22e3),
    ("strict-persist", 0x601c_1a45_96db_35e8),
];

/// Fingerprints of the six-run smoke campaign, seed `0x5C`.
const SGX_PINS: [(&str, u64); 2] = [
    ("asit", 0x2347_8ac9_b7f9_6a77),
    ("sgx-strict-persist", 0xdd31_a2bc_e4ef_39a6),
];

fn config() -> AnubisConfig {
    AnubisConfig::small_test().with_spare_blocks(256)
}

fn structured_storm<C, F>(make: F, cfg: &StormConfig) -> StormReport
where
    C: Supervised,
    F: Fn() -> C,
{
    let report = crash_storm(&make, cfg);
    assert_eq!(
        report.recovered + report.degraded + report.quarantined,
        report.runs,
        "{}: every run must end in a structured outcome",
        report.scheme
    );
    report
}

fn assert_pinned(report: &StormReport, pins: &[(&str, u64)]) {
    let want = pins
        .iter()
        .find(|(scheme, _)| *scheme == report.scheme)
        .unwrap_or_else(|| panic!("{}: no pinned fingerprint", report.scheme))
        .1;
    assert_eq!(
        report.fingerprint, want,
        "{}: storm fingerprint {:#018x} differs from the pinned {want:#018x}",
        report.scheme, report.fingerprint
    );
}

#[test]
fn crash_storm_smoke_bonsai_family() {
    let cfg = StormConfig::smoke(0xC5).with_runs(6);
    for scheme in [
        BonsaiScheme::Osiris,
        BonsaiScheme::AgitRead,
        BonsaiScheme::AgitPlus,
        BonsaiScheme::StrictPersist,
    ] {
        let report = structured_storm(|| BonsaiController::new(scheme, &config()), &cfg);
        assert_pinned(&report, &BONSAI_PINS);
    }
}

#[test]
fn crash_storm_smoke_sgx_family() {
    let cfg = StormConfig::smoke(0x5C).with_runs(6);
    for scheme in [SgxScheme::Asit, SgxScheme::StrictPersist] {
        let report = structured_storm(|| SgxController::new(scheme, &config()), &cfg);
        assert_pinned(&report, &SGX_PINS);
    }
}

#[test]
fn crash_storm_exhaustive_sweep() {
    // >1000 randomized plans across the six recoverable schemes; gated
    // behind ANUBIS_CRASH_SWEEP=1 (nightly CI).
    if std::env::var_os("ANUBIS_CRASH_SWEEP").is_none() {
        return;
    }
    let cfg = StormConfig {
        runs: 170,
        ops: 24,
        addr_space: 256,
        seed: 0xEE,
        max_retries: 3,
        recovery_faults: true,
    };
    let mut plans = 0;
    for scheme in [
        BonsaiScheme::Osiris,
        BonsaiScheme::AgitRead,
        BonsaiScheme::AgitPlus,
        BonsaiScheme::StrictPersist,
    ] {
        plans += structured_storm(|| BonsaiController::new(scheme, &config()), &cfg).runs;
    }
    for scheme in [SgxScheme::Asit, SgxScheme::StrictPersist] {
        plans += structured_storm(|| SgxController::new(scheme, &config()), &cfg).runs;
    }
    assert!(plans >= 1000, "sweep must exercise at least 1000 plans");
}
