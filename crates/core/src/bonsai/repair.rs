//! Degraded-mode repair hooks for the Bonsai controller family: the
//! [`Supervised`] implementation the recovery supervisor drives when the
//! fast path (and its retries) cannot restore a verified state.
//!
//! The rungs map onto the general-tree design like this:
//!
//! * **Targeted repair** — Osiris-style salvage of *every* counter block
//!   (not just shadow-tracked ones), falling back to per-line probing
//!   when a whole-block probe fails, then a full bottom-up interior
//!   rebuild. Unlike the fast path, the rebuilt root *re-anchors* the
//!   on-chip register: degraded mode explicitly trades the root check
//!   for availability and relies on the scrub pass plus per-line MACs
//!   to bound what an attacker (or the fault) could have changed.
//! * **Per-line repair** — re-open the line through the ECC-correcting
//!   decoder and reseal it when correction moved any words.
//! * **Quarantine** — retire the line's backing block into the spare
//!   region and leave the line readable as zero under its current
//!   counter, counting committed content as lost.

use super::{recovery, BonsaiController};
use crate::datapath::sealed_of;
use crate::error::RecoveryError;
use crate::layout::{DataAddr, LINES_PER_COUNTER_BLOCK};
use crate::recovery::RecoveryReport;
use crate::supervisor::{RepairSummary, Supervised};
use anubis_crypto::otp::IvCounter;
use anubis_crypto::SplitCounterBlock;
use anubis_itree::bonsai::Root;
use anubis_itree::NodeId;
use anubis_nvm::NvmBackend;
use anubis_telemetry::Telemetry;

impl<B: NvmBackend> Supervised for BonsaiController<B> {
    fn data_lines(&self) -> u64 {
        self.layout.data_blocks()
    }

    fn repair_line(&mut self, addr: DataAddr) -> Result<u32, RecoveryError> {
        let (iv, zero_state) = self.device_iv(addr);
        self.dp.repair_line(addr, iv, zero_state)
    }

    fn quarantine_line(&mut self, addr: DataAddr) -> Result<bool, RecoveryError> {
        let (iv, zero_state) = self.device_iv(addr);
        Ok(self.dp.quarantine_line(addr, iv, !zero_state))
    }

    fn targeted_repair(&mut self, _err: &RecoveryError) -> Result<RepairSummary, RecoveryError> {
        // The domain is already powered up (rung 1 ran `power_up`); only
        // volatile state needs resetting before the slow rebuild.
        self.counter_cache.invalidate_all();
        self.tree_cache.invalidate_all();
        self.dp.discard_pending();
        // Best-effort replay of an interrupted re-encryption: if even the
        // replay fails the log is dropped and the scrub pass deals with
        // the affected lines individually.
        let mut t = RecoveryReport::default();
        if recovery::complete_reencryption(self, &mut t).is_err() {
            self.reenc_log = None;
        }
        let mut sum = salvage_counters(self);
        sum.absorb(rebuild_interior(self));
        Ok(sum)
    }

    fn reconcile_metadata(&mut self) -> Result<RepairSummary, RecoveryError> {
        self.counter_cache.invalidate_all();
        self.tree_cache.invalidate_all();
        self.dp.discard_pending();
        Ok(rebuild_interior(self))
    }

    fn persist_quarantine(&mut self) {
        self.dp.persist_quarantine();
    }

    fn is_line_quarantined(&self, addr: DataAddr) -> bool {
        self.dp.is_line_quarantined(addr)
    }

    fn supervisor_telemetry(&self) -> Telemetry {
        self.dp.telemetry.clone()
    }
}

impl<B: NvmBackend> BonsaiController<B> {
    /// The IV of data line `addr` under its counter block as stored on the
    /// device, and whether that counter is still in the zero state.
    fn device_iv(&mut self, addr: DataAddr) -> (IvCounter, bool) {
        let (leaf, slot) = self.layout.counter_of(addr);
        let leaf_addr = self.layout.node_addr(leaf);
        let stale = SplitCounterBlock::from_block(&self.dp.domain.device_mut().read(leaf_addr));
        line_iv(&stale, slot)
    }
}

/// The IV of minor slot `slot` under counter block `ctr`, and whether the
/// slot is still in the zero state (never written).
fn line_iv(ctr: &SplitCounterBlock, slot: usize) -> (IvCounter, bool) {
    let minor = ctr.minor(slot);
    (
        IvCounter::split(ctr.major(), minor as u64),
        ctr.major() == 0 && minor == 0,
    )
}

/// Osiris-salvages every counter block: whole-block probing first, then a
/// per-line salvage for blocks where probing failed (retiring only the
/// individual lines that cannot be opened, instead of aborting recovery).
fn salvage_counters<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    let leaves = 0..c.layout.geometry().num_leaves();
    let results: Vec<_> = {
        let ctx = recovery::Ctx::of(c);
        leaves
            .clone()
            .map(|leaf| recovery::probe_counter_block(&ctx, NodeId::new(0, leaf)))
            .collect()
    };
    let mut sum = RepairSummary::default();
    let mut t = RecoveryReport::default();
    for (leaf, result) in leaves.zip(results) {
        match result {
            Ok(fix) => {
                if let Some(block) = fix.write {
                    let addr = c.layout.node_addr(NodeId::new(0, leaf));
                    recovery::dev_write(c, addr, block, &mut t);
                    sum.rebuilt += 1;
                }
            }
            Err(_) => salvage_leaf(c, leaf, &mut sum),
        }
    }
    sum
}

/// Per-line salvage of one counter block: lines that probe within the
/// stop-loss window advance the counter; lines that do not are retired
/// into the spare region and zero-sealed under their final counter bits.
fn salvage_leaf<B: NvmBackend>(c: &mut BonsaiController<B>, leaf: u64, sum: &mut RepairSummary) {
    let leaf_node = NodeId::new(0, leaf);
    let leaf_addr = c.layout.node_addr(leaf_node);
    let stale = SplitCounterBlock::from_block(&c.dp.domain.device_mut().read(leaf_addr));
    let mut fixed = stale;
    let mut changed = false;
    for line in 0..LINES_PER_COUNTER_BLOCK as usize {
        let Some(data_addr) = c.layout.line_of(leaf, line) else {
            break;
        };
        let (ciphertext, side) = c.dp.device_line(data_addr);
        let (iv, zero_state) = line_iv(&stale, line);
        if zero_state && ciphertext.is_zeroed() && side.is_zeroed() {
            continue;
        }
        let hit = recovery::Ctx::of(c).probe_line(
            c.layout.data_addr(data_addr),
            &stale,
            line,
            &sealed_of(ciphertext, side),
            &mut RecoveryReport::default(),
        );
        let advanced = match hit {
            Some(0) => true,
            Some(gap) if fixed.advance_minor(line, gap).is_ok() => {
                changed = true;
                sum.rebuilt += 1;
                true
            }
            // No candidate opened the line, or the salvaged minor would
            // overflow on replay: retire it.
            _ => false,
        };
        if !advanced {
            // Retire the line under its unadvanced counter bits.
            if c.dp.quarantine_line(data_addr, iv, !zero_state) {
                sum.lost += 1;
            }
            sum.quarantined += 1;
        }
    }
    if changed {
        c.dp.domain.device_mut().write(leaf_addr, fixed.to_block());
    }
}

/// Rebuilds every interior level bottom-up from the (salvaged) leaves and
/// re-anchors the on-chip root to the result. Only nodes whose stored
/// content differs from the recomputation are written — the zero-state
/// tree stays unmaterialized — so `rebuilt` counts genuine reconstruction.
fn rebuild_interior<B: NvmBackend>(c: &mut BonsaiController<B>) -> RepairSummary {
    let g = c.layout.geometry().clone();
    let mut sum = RepairSummary::default();
    for level in 1..g.num_levels() {
        let results: Vec<_> = {
            let ctx = recovery::Ctx::of(c);
            (0..g.nodes_at(level))
                .map(|index| recovery::compute_interior_node(&ctx, NodeId::new(level, index)))
                .collect()
        };
        for (index, (block, _tally)) in results.into_iter().enumerate() {
            let index = index as u64;
            let node = NodeId::new(level, index);
            let old = recovery::Ctx::of(c).read_node(node, &mut RecoveryReport::default());
            if old != block {
                c.dp.domain
                    .device_mut()
                    .write(c.layout.node_addr(node), block);
                sum.rebuilt += 1;
            }
        }
    }
    // Degraded mode re-anchors the register to the rebuilt tree: the
    // fast path's root *check* already failed, so the choice is between
    // refusing service and trusting NVM contents that every per-line MAC
    // and the scrub pass still vouch for.
    let top_block = recovery::Ctx::of(c).read_node(g.top(), &mut RecoveryReport::default());
    c.root = Root(c.hasher.digest(&top_block));
    sum
}
