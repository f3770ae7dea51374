//! Restart-survivability drills over the file-backed NVM device.
//!
//! `tests/crash_matrix.rs` and friends crash controllers *in process*:
//! the device image survives because it shares the address space. These
//! tests cross the process-death boundary instead (without actually
//! spawning processes — `bench_drill` does that): a controller serves a
//! deterministic script against a [`FileBackend`] image, the image file
//! is copied at arbitrary acknowledgement points (byte-identical to what
//! a SIGKILL at that instant would leave on disk, since every ack rides
//! a synced barrier), and a **fresh controller in a fresh device** must
//! reopen the copy, recover, and serve every acknowledged write.
//!
//! Also covered here: the write-cut (dying platform) primitive must
//! suppress file-backend flushes so an unacknowledged tail never leaks
//! into the image; a post-recovery snapshot must survive a
//! snapshot→restore→snapshot round trip bit-identically; and a corrupted persisted quarantine table must surface as a
//! typed [`RecoveryError::CorruptImage`] hint that enters the supervisor
//! ladder at rung 3 via [`Supervisor::repair_then_recover`].

use std::fs;
use std::path::{Path, PathBuf};

use anubis::{
    AnubisConfig, BonsaiController, BonsaiScheme, DataAddr, MemoryController, RecoveryError,
    SgxController, SgxScheme, Supervised, Supervisor,
};
use anubis_nvm::{Block, FileBackend, NvmBackend, Snapshot, BLOCK_BYTES};
use anubis_sim::drill::{drill_script, verify_dead_image, DrillFamily};
use anubis_sim::fault::{op_payload, ScriptOp};

fn config() -> AnubisConfig {
    AnubisConfig::small_test()
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anubis-drill-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs supervised recovery on a freshly (re)opened controller, entering
/// at rung 3 when reopen produced a corruption hint.
fn recover_fresh<C: Supervised>(ctrl: &mut C, hint: Option<RecoveryError>) {
    let sup = Supervisor::new();
    match hint {
        Some(err) => {
            sup.repair_then_recover(ctrl, &err)
                .expect("rung-3 recovery of reopened image");
        }
        None => {
            sup.recover(ctrl).expect("recovery of reopened image");
        }
    }
}

/// Image copies taken mid-run, as `(path, acks-at-copy)` pairs.
type ImageCopies = Vec<(PathBuf, usize)>;

/// Serves `script`, copying the image file at the given ack counts.
/// Returns the ack log and the copies (path, acks-at-copy).
fn serve_with_copies<C: Supervised>(
    mut ctrl: C,
    hint: Option<RecoveryError>,
    image: &Path,
    script: &[ScriptOp],
    copy_at: &[u64],
    dir: &Path,
) -> (Vec<(u64, u64)>, ImageCopies) {
    recover_fresh(&mut ctrl, hint);
    let mut acked = Vec::new();
    let mut copies = Vec::new();
    for (i, &(is_write, addr)) in script.iter().enumerate() {
        if is_write {
            ctrl.write(DataAddr::new(addr), op_payload(i as u64, addr))
                .unwrap_or_else(|e| panic!("drill write op {i} failed: {e}"));
            acked.push((i as u64, addr));
            if copy_at.contains(&(acked.len() as u64)) {
                let copy = dir.join(format!("at{}.wal", acked.len()));
                fs::copy(image, &copy).expect("copy image mid-run");
                copies.push((copy, acked.len()));
            }
        } else {
            ctrl.read(DataAddr::new(addr))
                .unwrap_or_else(|e| panic!("drill read op {i} failed: {e}"));
        }
    }
    let fin = dir.join("final.wal");
    fs::copy(image, &fin).expect("copy final image");
    copies.push((fin, acked.len()));
    (acked, copies)
}

/// The in-process restart drill: every image copy must recover in a
/// fresh controller with no acknowledged write lost.
fn in_process_drill(family: DrillFamily) {
    let dir = scratch(family.name());
    let image = dir.join("image.wal");
    let script = drill_script(400, 300, 0xD1A7);
    let cfg = config();
    let backend = FileBackend::open(&image).expect("open fresh image");
    let (acked, copies) = match family {
        DrillFamily::BonsaiAgitPlus => {
            let (ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
            serve_with_copies(ctrl, hint, &image, &script, &[5, 60, 200], &dir)
        }
        DrillFamily::SgxAsit => {
            let (ctrl, hint) = SgxController::reopen(SgxScheme::Asit, &cfg, backend);
            serve_with_copies(ctrl, hint, &image, &script, &[5, 60, 200], &dir)
        }
    };
    assert!(acked.len() > 200, "script should ack >200 writes");
    for (copy, n) in &copies {
        verify_dead_image(family, copy, &acked[..*n], &script)
            .unwrap_or_else(|e| panic!("{} image at {n} acks: {e}", family.name()));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn restart_drill_in_process_bonsai_agit_plus() {
    in_process_drill(DrillFamily::BonsaiAgitPlus);
}

#[test]
fn restart_drill_in_process_sgx_asit() {
    in_process_drill(DrillFamily::SgxAsit);
}

/// Raw fingerprint of an image file: its replayed blocks and registers,
/// independent of any controller.
fn raw_fingerprint(image: &Path) -> u64 {
    let backend = FileBackend::open(image).expect("reopen image for fingerprint");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (phys, block) in backend.entries() {
        mix(&phys.to_le_bytes());
        mix(block.as_bytes());
    }
    for (idx, block) in backend.regs() {
        mix(&[idx]);
        mix(block.as_bytes());
    }
    h
}

#[test]
fn write_cut_mid_recovery_suppresses_file_backend_flushes() {
    let dir = scratch("write-cut");
    let image = dir.join("image.wal");
    let cfg = config();
    let script = drill_script(150, 100, 0xC07);
    let mut acked = Vec::new();
    {
        let backend = FileBackend::open(&image).expect("open fresh image");
        let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
        recover_fresh(&mut ctrl, hint);
        for (i, &(is_write, addr)) in script.iter().enumerate() {
            if is_write {
                ctrl.write(DataAddr::new(addr), op_payload(i as u64, addr))
                    .expect("drill write");
                acked.push((i as u64, addr));
            } else {
                ctrl.read(DataAddr::new(addr)).expect("drill read");
            }
        }

        // Power dies again one device write into the recovery attempt:
        // everything the aborted recovery does past that instant must
        // stay off the image.
        ctrl.crash();
        ctrl.domain_mut().device_mut().arm_write_cut(1);
        let _ = Supervisor::new().recover(&mut ctrl);
        assert!(
            ctrl.domain().device().write_cut_fired(),
            "recovery of a dirty crash must write (cut never fired)"
        );
        assert!(
            ctrl.domain().device().backend().flushes_suppressed(),
            "write cut must suppress file-backend flushes"
        );
        let frozen = raw_fingerprint(&image);

        // A dying platform persists nothing more: further traffic and
        // explicit barriers must leave the image byte-identical.
        let _ = ctrl.write(DataAddr::new(1), op_payload(9_999, 1));
        ctrl.domain_mut().drain_wpq();
        assert_eq!(
            raw_fingerprint(&image),
            frozen,
            "dropped tail leaked into the image after the cut instant"
        );
    }
    // The restarted machine reopens the half-recovered image and must
    // still serve every write acknowledged before the first crash.
    verify_dead_image(DrillFamily::BonsaiAgitPlus, &image, &acked, &script)
        .unwrap_or_else(|e| panic!("restart after mid-recovery cut: {e}"));
    let _ = fs::remove_dir_all(&dir);
}

/// Snapshot→restore→snapshot of a recovered device must be
/// bit-identical.
fn snapshot_roundtrip<C, F>(make: F, name: &str)
where
    C: Supervised,
    F: Fn() -> C,
{
    let script = drill_script(300, 200, 0x5EED);
    let mut base = make();
    for (i, &(is_write, addr)) in script.iter().enumerate() {
        if is_write {
            base.write(DataAddr::new(addr), op_payload(i as u64, addr))
                .unwrap_or_else(|e| panic!("{name}: write op {i} failed: {e}"));
        } else {
            base.read(DataAddr::new(addr))
                .unwrap_or_else(|e| panic!("{name}: read op {i} failed: {e}"));
        }
    }
    // A non-trivial remap table, persisted, so the snapshot carries it.
    base.quarantine_line(DataAddr::new(3)).expect("quarantine");
    base.persist_quarantine();
    base.crash();

    Supervisor::new()
        .recover(&mut base)
        .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
    let b1 = base.domain_mut().snapshot().to_bytes();
    let snap = Snapshot::from_bytes(&b1).expect("parse own snapshot");
    let mut fresh = make();
    fresh
        .domain_mut()
        .apply_snapshot(&snap)
        .expect("apply snapshot to fresh domain");
    let b2 = fresh.domain_mut().snapshot().to_bytes();
    assert_eq!(b1, b2, "{name}: snapshot→restore→snapshot diverged");
}

#[test]
fn snapshot_roundtrip_after_recovery_bonsai_agit_plus() {
    snapshot_roundtrip(
        || BonsaiController::new(BonsaiScheme::AgitPlus, &config()),
        "agit-plus",
    );
}

#[test]
fn snapshot_roundtrip_after_recovery_sgx_asit() {
    snapshot_roundtrip(|| SgxController::new(SgxScheme::Asit, &config()), "asit");
}

#[test]
fn corrupt_qtable_image_is_typed_and_feeds_rung_three() {
    let dir = scratch("corrupt-qtable");
    let image = dir.join("image.wal");
    let cfg = config();
    let script = drill_script(120, 80, 0xBAD5EED);
    let mut acked = Vec::new();
    {
        let backend = FileBackend::open(&image).expect("open fresh image");
        let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
        recover_fresh(&mut ctrl, hint);
        for (i, &(is_write, addr)) in script.iter().enumerate() {
            if is_write {
                ctrl.write(DataAddr::new(addr), op_payload(i as u64, addr))
                    .expect("drill write");
                acked.push((i as u64, addr));
            } else {
                ctrl.read(DataAddr::new(addr)).expect("drill read");
            }
        }
        // Poison the persisted quarantine-table header in the image.
        let qaddr = ctrl.layout().qtable_addr(0);
        ctrl.domain_mut()
            .device_mut()
            .poke(qaddr, Block::from_bytes([0xFF; BLOCK_BYTES]));
        ctrl.domain_mut().drain_wpq();
    }
    let backend = FileBackend::open(&image).expect("reopen image");
    let (mut ctrl, hint) = BonsaiController::reopen(BonsaiScheme::AgitPlus, &cfg, backend);
    let err = hint.expect("corrupt qtable must surface a typed reopen hint");
    assert!(
        matches!(
            err,
            RecoveryError::CorruptImage {
                what: "quarantine table"
            }
        ),
        "unexpected hint: {err}"
    );
    let out = Supervisor::new()
        .repair_then_recover(&mut ctrl, &err)
        .expect("rung-3 entry must still recover the image");
    assert!(
        out.escalations >= 1,
        "rung-3 entry must count an escalation"
    );
    for &(i, addr) in &acked {
        let want = op_payload(i, addr);
        let last = acked
            .iter()
            .rev()
            .find(|&&(_, a)| a == addr)
            .expect("addr is in the log");
        if last.0 != i {
            continue; // overwritten later; only the final payload must survive
        }
        assert_eq!(
            ctrl.read(DataAddr::new(addr)).expect("post-recovery read"),
            want,
            "acked write at op {i} lost after rung-3 recovery"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
