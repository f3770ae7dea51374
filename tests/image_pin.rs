//! Absolute image pins: one seeded script per scheme, whose final device
//! image, cumulative cost accounting and published telemetry are pinned
//! to constants.
//!
//! `write_batch_equiv` and `parallel_equiv` compare two code paths within
//! one build; this suite instead compares every build against fixed
//! values, so a refactor of the shared data path that changes a single
//! persisted byte, cost count or metric fails here. The script touches
//! every shared plumbing path: scalar writes, a minor-counter overflow
//! (Bonsai page re-encryption), a `write_batch` past the group-flush
//! watermark, reads, `crash` + `recover`, a `FileBackend` reopen, a
//! supervised recovery over an uncorrectable data line (targeted repair,
//! quarantine, remap-table persistence), a direct ECC `repair_line`, and
//! `shutdown_flush`.
//!
//! The constants were generated once and must not be edited to make a
//! change pass: a mismatch means the change altered behaviour.

use anubis::telemetry::Telemetry;
use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, CostAccum, DataAddr, RecoveryError,
    SgxController, SgxScheme, Supervised, Supervisor,
};
use anubis_nvm::{Block, FileBackend, SplitMix64};
use std::path::{Path, PathBuf};

/// `(scheme, device fingerprint, cost FNV, prometheus FNV)`.
type Pin = (&'static str, u64, u64, u64);

const BONSAI_PINS: [Pin; 7] = [
    (
        "write-back",
        0x1a58b9a13ed465f0,
        0xe40353bf51698908,
        0x59f3fdc37ed70c94,
    ),
    (
        "strict-persist",
        0x66efe0bb7ed0602b,
        0xdbfd4db81d8648b0,
        0x458c3193b17f0687,
    ),
    (
        "osiris",
        0x6c104e0661690963,
        0x91085139e49fe513,
        0x3ac3b375324566b7,
    ),
    (
        "agit-read",
        0xec93a7c907f70cb4,
        0x685086c1e6cf38cc,
        0x5d74ae096137a428,
    ),
    (
        "agit-plus",
        0x9085eb26c6a8dbcc,
        0xab495761c5a99cc1,
        0x2feb09add27644cf,
    ),
    (
        "ctr-write-through",
        0x34f2a12ceef45c50,
        0xf1916d3b44459fc0,
        0xb0075e6d34ba9845,
    ),
    (
        "lazy-write-back",
        0x644a34cdc6688420,
        0xfdf38aee9f246384,
        0x17a1ef605d6c4e0c,
    ),
];

const SGX_PINS: [Pin; 5] = [
    (
        "sgx-write-back",
        0xb3a2dc1e54b72697,
        0x1abf76737d58bcd6,
        0x30f82cf926bb503f,
    ),
    (
        "sgx-eager-write-back",
        0xb1fc06b49c8fcf0d,
        0x0ed6a62d72d084c2,
        0xfe992ce28d4e54d3,
    ),
    (
        "sgx-strict-persist",
        0xe2d9e005d07caa9a,
        0x0e96af2e93ba688f,
        0xfe74654ee0d55f8c,
    ),
    (
        "sgx-osiris",
        0xf36ed50cdc2cc85f,
        0xe8e6ec8501516ae0,
        0xf5129c7ba445498c,
    ),
    (
        "asit",
        0x43a48566ecdf9930,
        0xc1706f3cf2e6e90b,
        0x97d8b4978c04f080,
    ),
];

/// 256 KiB of data behind 1 KiB caches: small enough that the scrub pass
/// is cheap, small enough caches that the script evicts.
fn config() -> AnubisConfig {
    AnubisConfig::small_test()
        .with_capacity(256 * 1024)
        .with_cache_bytes(1024)
}

const LINES: u64 = 600;
/// Written MINOR_MAX + 1 times: overflows its minor counter.
const HOT_LINE: u64 = 130;
/// Made uncorrectable before the supervised recovery.
const BAD_LINE: u64 = 7;
/// Given one correctable bit flip, then repaired directly.
const FLIPPED_LINE: u64 = 8;
/// Quarantined directly.
const RETIRED_LINE: u64 = 9;

fn payload(tag: u64) -> Block {
    Block::from_words([
        tag,
        tag ^ 0x5A5A,
        !tag,
        tag << 3,
        tag >> 1,
        tag.wrapping_add(17),
        tag.wrapping_mul(7),
        1,
    ])
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cost_words(c: &CostAccum) -> [u64; 6] {
    [
        c.reads,
        c.writes,
        c.nvm_reads,
        c.nvm_writes,
        c.hash_ops,
        c.bg_hash_ops,
    ]
}

fn image_path(scheme: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "anubis-image-pin-{}-{scheme}.wal",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// Restart-time recovery the way the server's boot path runs it.
fn supervise<C: Supervised>(c: &mut C, hint: Option<RecoveryError>) {
    let sup = Supervisor::new().with_max_retries(1);
    let _ = match hint {
        Some(e) => sup.repair_then_recover(c, &e),
        None => sup.recover(c),
    };
}

/// Runs the pinned script; `open` reopens a controller over the image.
fn run_script<C, F>(scheme: &str, open: F) -> (u64, u64, u64)
where
    C: Supervised<Backend = FileBackend> + LineAddr,
    F: Fn(FileBackend) -> (C, Option<RecoveryError>),
{
    let path = image_path(scheme);
    cleanup(&path);
    let (reg, tel) = Telemetry::private();
    let mut rng = SplitMix64::new(0x1A2B_3C4D ^ fnv(scheme.as_bytes()));
    let mut costs = Vec::new();

    // First incarnation: a fresh image.
    let (mut c, hint) = open(FileBackend::open(&path).expect("open image"));
    c.set_telemetry(tel.clone());
    supervise(&mut c, hint);
    for i in 0..120u64 {
        let addr = rng.gen_range(0..LINES);
        let _ = c.write(DataAddr::new(addr), payload(i ^ addr));
    }
    for i in 0..=u64::from(anubis_crypto::MINOR_MAX) {
        let _ = c.write(DataAddr::new(HOT_LINE), payload(0xF00 + i));
    }
    let batch: Vec<(DataAddr, Block)> = (0..40u64)
        .map(|i| (DataAddr::new(rng.gen_range(0..LINES)), payload(0xB00 + i)))
        .collect();
    let _ = c.write_batch(&batch);
    for addr in 0..LINES {
        let _ = c.read(DataAddr::new(addr));
    }
    c.crash();
    let _ = c.recover();
    for i in 0..30u64 {
        let addr = rng.gen_range(0..LINES);
        let _ = c.write(DataAddr::new(addr), payload(0xC00 + i));
        let _ = c.read(DataAddr::new(rng.gen_range(0..LINES)));
    }
    for addr in [BAD_LINE, FLIPPED_LINE, RETIRED_LINE] {
        let _ = c.write(DataAddr::new(addr), payload(0xD00 + addr));
    }
    c.publish_telemetry();
    costs.extend(cost_words(c.total_cost()));
    // Process death: no shutdown flush.
    drop(c);

    // Second incarnation: reopen the file image.
    let (mut c, hint) = open(FileBackend::open(&path).expect("reopen image"));
    c.set_telemetry(tel);
    let bad = c.layout_data_addr(DataAddr::new(BAD_LINE));
    for bit in [0, 1, 130, 131] {
        c.domain_mut().device_mut().tamper_flip_bit(bad, bit);
    }
    supervise(&mut c, hint);
    let flipped = c.layout_data_addr(DataAddr::new(FLIPPED_LINE));
    c.domain_mut().device_mut().tamper_flip_bit(flipped, 77);
    let _ = c.repair_line(DataAddr::new(FLIPPED_LINE));
    let _ = c.quarantine_line(DataAddr::new(RETIRED_LINE));
    c.persist_quarantine();
    for i in 0..20u64 {
        let addr = rng.gen_range(0..LINES);
        let _ = c.write(DataAddr::new(addr), payload(0xE00 + i));
        let _ = c.read(DataAddr::new(addr));
    }
    let _ = c.shutdown_flush();
    c.publish_telemetry();
    costs.extend(cost_words(c.total_cost()));

    let fingerprint = anubis_sim::drill::device_fingerprint(&c);
    let cost_bytes: Vec<u8> = costs.iter().flat_map(|w| w.to_le_bytes()).collect();
    let prom = fnv(reg.prometheus().as_bytes());
    drop(c);
    cleanup(&path);
    (fingerprint, fnv(&cost_bytes), prom)
}

/// Device address of a data line, for the tamper primitive.
trait LineAddr {
    fn layout_data_addr(&self, addr: DataAddr) -> anubis_nvm::BlockAddr;
}

impl LineAddr for BonsaiController<FileBackend> {
    fn layout_data_addr(&self, addr: DataAddr) -> anubis_nvm::BlockAddr {
        self.layout().data_addr(addr)
    }
}

impl LineAddr for SgxController<FileBackend> {
    fn layout_data_addr(&self, addr: DataAddr) -> anubis_nvm::BlockAddr {
        self.layout().data_addr(addr)
    }
}

fn check(pins: &[Pin], actual: &[Pin]) {
    let table: String = actual
        .iter()
        .map(|(s, f, c, p)| format!("    (\"{s}\", {f:#018x}, {c:#018x}, {p:#018x}),\n"))
        .collect();
    assert_eq!(pins, actual, "image pins diverged; actual:\n{table}");
}

#[test]
fn bonsai_images_are_pinned() {
    let cfg = config();
    let actual: Vec<Pin> = BonsaiScheme::all_with_extras()
        .into_iter()
        .map(|scheme| {
            let (f, c, p) = run_script(scheme.name(), |backend| {
                BonsaiController::reopen(scheme, &cfg, backend)
            });
            (scheme.name(), f, c, p)
        })
        .collect();
    check(&BONSAI_PINS, &actual);
}

#[test]
fn sgx_images_are_pinned() {
    let cfg = config();
    let actual: Vec<Pin> = SgxScheme::all_with_extras()
        .into_iter()
        .map(|scheme| {
            let (f, c, p) = run_script(scheme.name(), |backend| {
                SgxController::reopen(scheme, &cfg, backend)
            });
            (scheme.name(), f, c, p)
        })
        .collect();
    check(&SGX_PINS, &actual);
}
