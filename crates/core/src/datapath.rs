//! The secure data path both controller families share.
//!
//! AGIT (§4.2, Bonsai family) and ASIT (§4.3, SGX family) protect data
//! lines with the same machinery: counter-mode pads and a per-line MAC/ECC
//! side block, sealed in batches per atomic commit group; store-to-load
//! forwarding from the staged group; a volatile MAC-verification cache;
//! the bad-block quarantine table; per-op cost accounting and telemetry.
//! [`DataPath`] owns all of it once. A family owns only its tree: it
//! computes the IV for a line, its own register mirrors, and the metadata
//! writes it stages here.

use crate::cost::{CostAccum, OpCost};
use crate::error::{freshness_hint, MemError, RecoveryError};
use crate::layout::{DataAddr, LineRegions};
use anubis_cache::CacheStats;
use anubis_crypto::otp::IvCounter;
use anubis_crypto::{CryptoError, DataCodec, Key, MacCache, SealedBlock};
use anubis_nvm::{Block, BlockAddr, NvmBackend, NvmError, PersistenceDomain, Snapshot, WriteOp};
use anubis_telemetry::Telemetry;

/// Pending-op watermark at which `write_batch` flushes its accumulated
/// commit group. One write stages at most a handful of ops (data + side +
/// counters + an eager tree path), so flushing here keeps the group safely
/// inside the persist queue's `PREG_CAPACITY` of 64.
const GROUP_FLUSH_WATERMARK: usize = 24;

/// A data line as stored: ciphertext plus its side block (ECC word 0, MAC
/// word 1).
pub(crate) fn sealed_of(ciphertext: Block, side: Block) -> SealedBlock {
    SealedBlock {
        ciphertext,
        ecc: side.word(0),
        mac: side.word(1),
    }
}

/// The side block holding a sealed line's ECC and MAC words.
pub(crate) fn side_of(sealed: &SealedBlock) -> Block {
    let mut side = Block::zeroed();
    side.set_word(0, sealed.ecc);
    side.set_word(1, sealed.mac);
    side
}

/// Publishes one metadata cache's hit/miss counters under `label`.
pub(crate) fn publish_cache(t: &Telemetry, label: &str, stats: &CacheStats) {
    t.counter_set("cache_hits_total", label, stats.hits);
    t.counter_set("cache_misses_total", label, stats.misses);
    if let Some(rate) = stats.hit_rate() {
        t.gauge_set("cache_hit_rate", label, rate);
    }
}

/// The shared data path of one controller: persistence domain, data
/// codec, the staged commit group and its deferred seals, the MAC cache,
/// cost accounting and telemetry.
#[derive(Clone, Debug)]
pub struct DataPath<B: NvmBackend> {
    pub(crate) domain: PersistenceDomain<B>,
    pub(crate) codec: DataCodec,
    lines: LineRegions,
    /// The current commit group, staged but not yet pushed to the WPQ.
    pending: Vec<WriteOp>,
    /// Volatile cache of MAC-verified line fingerprints: reads of
    /// unmodified lines skip the MAC recomputation (cleared on crash).
    mac_cache: MacCache,
    /// Data seals deferred to commit time, where the whole group is
    /// sealed through the batch crypto path: `(addr, iv, plaintext)`.
    seal_jobs: Vec<(BlockAddr, IvCounter, Block)>,
    /// Indices into `pending` of the placeholder (ciphertext, side) ops
    /// each seal job fills in, parallel to `seal_jobs`.
    seal_slots: Vec<(usize, usize)>,
    /// Reused output buffer for the batch seal (allocation-free steady
    /// state).
    seal_out: Vec<SealedBlock>,
    pub(crate) cost: OpCost,
    pub(crate) totals: CostAccum,
    /// Words repaired by the SEC-DED decoder on the data read path.
    pub(crate) ecc_corrections: u64,
    /// Snapshot images the restore path rejected (parse failure or
    /// epoch behind the sealed anchor).
    snapshot_rejected: u64,
    pub(crate) telemetry: Telemetry,
}

impl<B: NvmBackend> DataPath<B> {
    /// A powered-up data path over `backend`, sized and laid out by
    /// `lines`' allocator: region attribution and the quarantine spare
    /// pool are installed here.
    pub(crate) fn new(backend: B, lines: &LineRegions, key: Key) -> Self {
        let mut domain = PersistenceDomain::with_backend(lines.device_bytes(), backend);
        domain.device_mut().register_regions(lines.regions());
        domain.device_mut().install_spare_pool(lines.spare_pool());
        DataPath {
            domain,
            codec: DataCodec::new(key),
            lines: lines.clone(),
            pending: Vec::new(),
            mac_cache: MacCache::default(),
            seal_jobs: Vec::new(),
            seal_slots: Vec::new(),
            seal_out: Vec::new(),
            cost: OpCost::zero(),
            totals: CostAccum::default(),
            ecc_corrections: 0,
            snapshot_rejected: 0,
            telemetry: Telemetry::global(),
        }
    }

    /// The restart hint of a reopened image.
    ///
    /// A corrupt persisted quarantine table does not fail the reopen: the
    /// controller proceeds with an empty table and the hint is
    /// [`RecoveryError::CorruptImage`], for the supervisor to feed into
    /// targeted repair ([`crate::Supervisor::repair_then_recover`]).
    ///
    /// A backend opened against a sealed freshness anchor (see
    /// `anubis_nvm::FileBackend::open_with_anchor`) may instead report a
    /// freshness violation: the hint is then
    /// [`RecoveryError::RollbackDetected`] or
    /// [`RecoveryError::FreshnessAnchorViolation`], which the supervisor
    /// refuses outright rather than repairing — stale-but-consistent
    /// state must never be served.
    pub(crate) fn reopen_hint(&mut self) -> Option<RecoveryError> {
        freshness_hint(self.domain.freshness()).or_else(|| self.reload_quarantine_table())
    }

    /// Reloads the persisted bad-block remap table from the qtable
    /// region; returns the corrupt-image hint on parse failure.
    fn reload_quarantine_table(&mut self) -> Option<RecoveryError> {
        let blocks: Vec<Block> = (0..self.lines.qtable_blocks())
            .map(|i| self.domain.device().peek(self.lines.qtable_addr(i)))
            .collect();
        match blocks.first() {
            // Fresh image: no table was ever persisted.
            None => None,
            Some(header) if header.is_zeroed() => None,
            Some(_) => match self.domain.device_mut().load_quarantine_table(&blocks) {
                Ok(()) => None,
                Err(_) => Some(RecoveryError::CorruptImage {
                    what: "quarantine table",
                }),
            },
        }
    }

    /// Records a snapshot image rejected by the restore path (parse
    /// failure or an epoch behind the sealed anchor) for the
    /// `snapshot_rejected_total` counter.
    pub fn note_snapshot_rejected(&mut self) {
        self.snapshot_rejected += 1;
    }

    /// Restores a captured domain snapshot, refusing one whose epoch is
    /// behind the device's current freshness epoch — a substituted stale
    /// snapshot must never silently replace newer committed state. A
    /// refusal is counted in `snapshot_rejected_total`.
    ///
    /// # Errors
    ///
    /// [`NvmError::Snapshot`] with [`anubis_nvm::SnapshotError::StaleEpoch`]
    /// for a rolled-back snapshot; other [`NvmError`]s from the apply
    /// itself.
    pub fn restore_snapshot(&mut self, snap: &Snapshot) -> Result<(), NvmError> {
        let result = self.domain.apply_snapshot(snap);
        if result.is_err() {
            self.note_snapshot_rejected();
        }
        result
    }

    // ------------------------------------------------------------------
    // Operation bracketing
    // ------------------------------------------------------------------

    /// Rejects a data address beyond the data region.
    pub(crate) fn validate(&self, addr: DataAddr) -> Result<(), MemError> {
        if addr.index() < self.lines.data_blocks() {
            Ok(())
        } else {
            Err(MemError::OutOfRange {
                addr,
                capacity_blocks: self.lines.data_blocks(),
            })
        }
    }

    /// Starts a data-path operation: zero cost, empty group.
    pub(crate) fn begin_op(&mut self) {
        self.cost = OpCost::zero();
        self.pending.clear();
        self.seal_jobs.clear();
        self.seal_slots.clear();
    }

    /// Whether `write_batch` should flush the group before the next write
    /// can overrun the persist queue.
    pub(crate) fn group_full(&self) -> bool {
        self.pending.len() >= GROUP_FLUSH_WATERMARK
    }

    /// Loses every volatile structure with the power: the staged group,
    /// deferred seals and the MAC-verification cache. The device keeps
    /// what the WPQ and the persistent registers hold.
    pub(crate) fn power_fail(&mut self) {
        self.domain.power_fail();
        self.pending.clear();
        self.seal_jobs.clear();
        self.seal_slots.clear();
        self.mac_cache.clear();
    }

    /// Drops the staged group without committing it (repair paths that
    /// rebuild metadata straight on the device).
    pub(crate) fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Resets the running totals and the device statistics.
    pub(crate) fn reset_costs(&mut self) {
        self.totals.reset();
        self.domain.device_mut().reset_stats();
    }

    // ------------------------------------------------------------------
    // Cost-counted primitives
    // ------------------------------------------------------------------

    pub(crate) fn nvm_read(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        self.cost.nvm_reads += 1;
        self.read_through(addr)
    }

    /// Reads a block without charging the timing model (side blocks ride
    /// the same DIMM transfer as their data block).
    pub(crate) fn nvm_read_free(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        self.read_through(addr)
    }

    /// Store-to-load forwarding: the controller must observe writes it has
    /// staged for the current commit group but not yet pushed to the WPQ
    /// (e.g. a dirty tree node evicted and re-fetched within one op).
    fn read_through(&mut self, addr: BlockAddr) -> Result<Block, MemError> {
        if let Some(op) = self.pending.iter().rev().find(|op| op.addr == addr) {
            return Ok(op.block);
        }
        Ok(self.domain.read(addr)?)
    }

    pub(crate) fn stage(&mut self, addr: BlockAddr, block: Block) {
        self.cost.nvm_writes += 1;
        self.pending.push(WriteOp::new(addr, block));
    }

    /// Stages a seal of data line `addr` under `iv` for the current commit
    /// group without computing it yet: placeholder ciphertext/side ops hold
    /// the group positions, and [`resolve_seals`](Self::resolve_seals)
    /// fills them in at commit time through the batch crypto path. This is
    /// how the write path — scalar and batched alike — routes every seal of
    /// a commit group through one `seal_batch_into` call.
    pub(crate) fn stage_sealed(&mut self, addr: DataAddr, iv: IvCounter, data: Block) {
        let dev = self.lines.data_addr(addr);
        self.cost.hash_ops += 2; // pad + MAC
        let data_idx = self.pending.len();
        self.stage(dev, Block::zeroed());
        // The side block rides the data block's transfer: not charged.
        let side_idx = self.pending.len();
        let side = WriteOp::new(self.lines.side_addr(addr), Block::zeroed());
        self.pending.push(side);
        self.seal_jobs.push((dev, iv, data));
        self.seal_slots.push((data_idx, side_idx));
    }

    /// Seals every deferred data line of the current group in one batch
    /// and patches the placeholder ops. Also primes the MAC cache: a
    /// freshly sealed line is by construction MAC-verified.
    fn resolve_seals(&mut self) {
        if self.seal_jobs.is_empty() {
            return;
        }
        self.codec
            .seal_batch_into(&self.seal_jobs, &mut self.seal_out);
        for (((dev, iv, _), (data_idx, side_idx)), sealed) in self
            .seal_jobs
            .iter()
            .zip(&self.seal_slots)
            .zip(&self.seal_out)
        {
            self.pending[*data_idx].block = sealed.ciphertext;
            self.pending[*side_idx].block = side_of(sealed);
            self.codec
                .note_sealed(&mut self.mac_cache, *dev, *iv, sealed);
        }
        self.seal_jobs.clear();
        self.seal_slots.clear();
    }

    /// Commits the staged group atomically with the family's register
    /// mirrors `regs`: the mirrors ride the same backend barrier as the
    /// group's writes, so a crash before the ack drops both together and a
    /// restart restores the on-chip registers from them. An empty group
    /// commits nothing (and builds no mirrors: reads usually stage none).
    pub(crate) fn commit<const N: usize>(
        &mut self,
        regs: impl FnOnce() -> [(u8, Block); N],
    ) -> Result<(), MemError> {
        self.resolve_seals();
        if self.pending.is_empty() {
            return Ok(());
        }
        let ops = std::mem::take(&mut self.pending);
        self.domain.commit_group_with_regs(ops, &regs())?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data lines
    // ------------------------------------------------------------------

    /// Opens data line `addr` under `iv`, correcting single-bit media
    /// errors. A line whose counter is still in the zero state
    /// (`zero_state`) was never written and must read back as all-zero
    /// media.
    pub(crate) fn open_line(
        &mut self,
        addr: DataAddr,
        iv: IvCounter,
        zero_state: bool,
    ) -> Result<Block, MemError> {
        let dev = self.lines.data_addr(addr);
        let stored = self.nvm_read(dev)?;
        let side = self.nvm_read_free(self.lines.side_addr(addr))?;
        if zero_state {
            return if stored.is_zeroed() && side.is_zeroed() {
                Ok(Block::zeroed())
            } else {
                Err(MemError::Crypto(CryptoError::DataMacMismatch))
            };
        }
        self.cost.hash_ops += 2; // pad + MAC verify
        let (plaintext, fixed) = self.codec.open_correcting_cached(
            &mut self.mac_cache,
            dev,
            iv,
            &sealed_of(stored, side),
        )?;
        self.ecc_corrections += u64::from(fixed);
        Ok(plaintext)
    }

    /// Reads data line `addr` and its side block straight from the device
    /// (repair paths).
    pub(crate) fn device_line(&self, addr: DataAddr) -> (Block, Block) {
        let dev = self.domain.device();
        (
            dev.read(self.lines.data_addr(addr)),
            dev.read(self.lines.side_addr(addr)),
        )
    }

    /// Seals `plaintext` under `iv` and writes line `addr` straight to the
    /// device (repair paths).
    pub(crate) fn reseal_line(&mut self, addr: DataAddr, iv: IvCounter, plaintext: &Block) {
        let dev = self.lines.data_addr(addr);
        let sealed = self.codec.seal(dev, iv, plaintext);
        self.domain.device_mut().write(dev, sealed.ciphertext);
        self.domain
            .device_mut()
            .write(self.lines.side_addr(addr), side_of(&sealed));
    }

    /// Per-line media repair (supervisor rung 4): re-open the line through
    /// the ECC-correcting decoder and reseal it when correction moved any
    /// words. Returns the corrected word count.
    pub(crate) fn repair_line(
        &mut self,
        addr: DataAddr,
        iv: IvCounter,
        zero_state: bool,
    ) -> Result<u32, RecoveryError> {
        let dev = self.lines.data_addr(addr);
        let (ciphertext, side) = self.device_line(addr);
        if zero_state {
            // Zero state: clean media is all-zero; anything else cannot
            // be opened (there is no counter to verify against).
            return if ciphertext.is_zeroed() && side.is_zeroed() {
                Ok(0)
            } else {
                Err(RecoveryError::CounterNotRecovered { addr: dev })
            };
        }
        match self
            .codec
            .open_correcting(dev, iv, &sealed_of(ciphertext, side))
        {
            Ok((plaintext, fixed)) => {
                if fixed > 0 {
                    self.reseal_line(addr, iv, &plaintext);
                    self.ecc_corrections += u64::from(fixed);
                }
                Ok(fixed)
            }
            Err(_) => Err(RecoveryError::CounterNotRecovered { addr: dev }),
        }
    }

    /// Retires line `addr` into the spare region (or in place once the
    /// pool is exhausted). A line with content (`had_content`) is left
    /// readable as an explicit zero under its current counter `iv` — the
    /// counter itself stays untouched so the tree stays valid — and its
    /// content is counted as lost. Returns `had_content`.
    pub(crate) fn quarantine_line(
        &mut self,
        addr: DataAddr,
        iv: IvCounter,
        had_content: bool,
    ) -> bool {
        let dev = self.lines.data_addr(addr);
        self.domain.device_mut().quarantine_block(dev);
        if had_content {
            self.reseal_line(addr, iv, &Block::zeroed());
            self.domain.device_mut().record_lost_lines(1);
        } else {
            self.domain.device_mut().write(dev, Block::zeroed());
            self.domain
                .device_mut()
                .write(self.lines.side_addr(addr), Block::zeroed());
        }
        had_content
    }

    /// Persists the bad-block remap table into the `qtable` region.
    pub(crate) fn persist_quarantine(&mut self) {
        let blocks = self.domain.device().quarantine_table_blocks();
        let cap = self.lines.qtable_blocks();
        for (i, block) in blocks.into_iter().enumerate() {
            if (i as u64) < cap {
                let addr = self.lines.qtable_addr(i as u64);
                self.domain.device_mut().write(addr, block);
            }
        }
    }

    /// Whether line `addr`'s backing block is quarantined.
    pub(crate) fn is_line_quarantined(&self, addr: DataAddr) -> bool {
        self.domain
            .device()
            .is_quarantined(self.lines.data_addr(addr))
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Publishes the device, data-path and quarantine counters every
    /// scheme shares; `shadow_regions` name the family's shadow-table
    /// regions. Returns the live handle for the family's own metrics, or
    /// `None` when telemetry is disabled.
    pub(crate) fn publish_telemetry(
        &self,
        scheme: &'static str,
        shadow_regions: &[&str],
    ) -> Option<&Telemetry> {
        if !self.telemetry.enabled() {
            return None;
        }
        let t = &self.telemetry;
        let dev = self.domain.device().stats().snapshot();
        t.counter_set("nvm_reads_total", scheme, dev.reads);
        t.counter_set("nvm_writes_total", scheme, dev.writes);
        t.counter_set(
            "nvm_max_writes_to_one_block",
            scheme,
            dev.max_writes_to_one_block,
        );
        for (region, n) in &dev.writes_by_region {
            t.counter_set("nvm_region_writes_total", region, *n);
        }
        let shadow = dev
            .writes_by_region
            .iter()
            .filter(|(r, _)| shadow_regions.contains(r))
            .map(|(_, n)| *n)
            .sum::<u64>();
        t.counter_set("shadow_table_writes_total", scheme, shadow);
        t.counter_set("persist_writes_total", scheme, self.domain.persist_writes());
        t.counter_set("ecc_corrections_total", scheme, self.ecc_corrections);
        t.counter_set("cache_hits_total", "mac", self.mac_cache.hits());
        t.counter_set("cache_misses_total", "mac", self.mac_cache.misses());
        let quarantine = self.domain.device().quarantine_table();
        t.gauge_set("quarantined_blocks", scheme, quarantine.len() as f64);
        t.gauge_set(
            "quarantine_spares_left",
            scheme,
            quarantine.spares_left() as f64,
        );
        t.counter_set(
            "quarantine_lost_lines_total",
            scheme,
            quarantine.lost_lines(),
        );
        t.gauge_set("wpq_occupancy", scheme, self.domain.wpq_occupancy() as f64);
        t.gauge_set("wpq_capacity", scheme, self.domain.wpq_capacity() as f64);
        t.counter_set(
            "wal_rejected_total",
            scheme,
            self.domain.device().backend().frames_rejected(),
        );
        t.counter_set("snapshot_rejected_total", scheme, self.snapshot_rejected);
        let rolled_back = matches!(
            self.domain.freshness(),
            anubis_nvm::Freshness::RolledBack { .. }
        );
        t.counter_set("rollback_detected_total", scheme, rolled_back as u64);
        Some(t)
    }
}
