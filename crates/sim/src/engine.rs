//! Trace replay over a memory controller with timing accounting.

use crate::timing::{Channel, ChannelStats, TimingModel};
use anubis::telemetry::{percentile_of_sorted, Snapshot, Telemetry};
use anubis::{CostAccum, DataAddr, MemError, MemoryController, LINES_PER_COUNTER_BLOCK};
use anubis_workloads::{MemOp, OpKind, Trace};
use std::ops::Range;

/// Telemetry histogram fed one observation per trace op: the op's
/// end-to-end critical-path latency in nanoseconds.
pub const OP_LATENCY_METRIC: &str = "op_latency_ns";

/// Tail summary of the per-op latency stream from one replay.
///
/// Percentiles use the shared nearest-rank convention
/// ([`percentile_of_sorted`]): the reported value is always an observed
/// latency, never an interpolation. All fields are deterministic
/// (simulated time) and bit-identical across lane counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of ops summarized.
    pub count: u64,
    /// Mean op latency (ns).
    pub mean_ns: f64,
    /// Median op latency (ns).
    pub p50_ns: u64,
    /// 95th-percentile op latency (ns).
    pub p95_ns: u64,
    /// 99th-percentile op latency (ns).
    pub p99_ns: u64,
    /// Worst op latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a latency stream (order does not matter).
    pub fn of(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        LatencySummary {
            count: sorted.len() as u64,
            mean_ns: sum as f64 / sorted.len() as f64,
            p50_ns: percentile_of_sorted(&sorted, 0.50),
            p95_ns: percentile_of_sorted(&sorted, 0.95),
            p99_ns: percentile_of_sorted(&sorted, 0.99),
            max_ns: sorted[sorted.len() - 1],
        }
    }
}

/// The outcome of replaying one trace on one controller.
///
/// All clock fields are integer nanoseconds: the discrete-event engine
/// never accumulates floating point, so identical replays — at any lane
/// count — produce bit-identical results.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Scheme name (from the controller).
    pub scheme: &'static str,
    /// Workload name (from the trace).
    pub workload: String,
    /// Simulated wall-clock time for the whole trace (ns).
    pub total_ns: u64,
    /// Time the CPU stalled waiting on reads (ns).
    pub read_stall_ns: u64,
    /// Time the CPU stalled on write-queue back-pressure (ns).
    pub write_stall_ns: u64,
    /// Number of trace operations executed.
    pub ops: usize,
    /// Total NVM block reads issued by the controller.
    pub nvm_reads: u64,
    /// Total NVM block writes issued by the controller.
    pub nvm_writes: u64,
    /// NVM writes per data write (endurance metric).
    pub writes_per_data_write: f64,
    /// Total bank occupancy, summed across channels (ns).
    pub busy_ns: u64,
    /// Total bank-time, summed across channels (ns); each channel
    /// contributes `wall clock × banks`, so idle shards add nothing.
    pub channel_time_ns: u64,
    /// Tail summary of the per-op latency stream. The mean alone hides
    /// the cost of metadata write bursts — schemes with similar means
    /// can differ several-fold at p99 (see DESIGN.md §13).
    pub latency: LatencySummary,
}

impl RunResult {
    /// Execution time normalized to a baseline result (> 1 means slower).
    pub fn normalized_to(&self, baseline: &RunResult) -> f64 {
        self.total_ns as f64 / baseline.total_ns as f64
    }

    /// Fraction of bank-time spent transferring, in `[0, 1]`; exactly
    /// `0.0` for an empty trace (no NaN). Invariant under sharding: a
    /// trace confined to one shard reports the same utilization at
    /// `shards == 1` and `shards == N` (idle shards contribute zero to
    /// both numerator and denominator).
    pub fn utilization(&self) -> f64 {
        if self.channel_time_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.channel_time_ns as f64).clamp(0.0, 1.0)
        }
    }
}

/// Replays `trace` through `controller`, feeding every op's
/// [`anubis::OpCost`] into the discrete-event channel.
///
/// Per-op latencies stream into the [`OP_LATENCY_METRIC`] histogram of
/// the process-global telemetry registry (when enabled) and are
/// summarized in [`RunResult::latency`]; use [`run_trace_latencies`] to
/// get the raw stream.
///
/// # Errors
///
/// Propagates the first [`MemError`] from the controller (which, for a
/// well-formed trace on an untampered memory, indicates a bug — tests
/// rely on that).
pub fn run_trace<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
) -> Result<RunResult, MemError> {
    run_trace_latencies(controller, trace, model).map(|(result, _)| result)
}

/// [`run_trace`] returning the raw per-op latency stream (trace order)
/// alongside the result.
///
/// # Errors
///
/// Same as [`run_trace`].
pub fn run_trace_latencies<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
) -> Result<(RunResult, Vec<u64>), MemError> {
    let mut channel = Channel::new(model);
    let mut latencies = Vec::with_capacity(trace.len());
    replay_ops(
        controller,
        trace.ops(),
        &mut channel,
        &mut latencies,
        &Telemetry::global(),
    )?;
    controller.publish_telemetry();
    channel.drain();
    let result = result_of(
        controller,
        trace,
        &ChannelStats::of(&channel),
        LatencySummary::of(&latencies),
    );
    Ok((result, latencies))
}

/// Distills a finished channel + controller into a [`RunResult`].
fn result_of<C: MemoryController>(
    controller: &C,
    trace: &Trace,
    stats: &ChannelStats,
    latency: LatencySummary,
) -> RunResult {
    let totals = *controller.total_cost();
    RunResult {
        scheme: controller.scheme_name(),
        workload: trace.name().to_string(),
        total_ns: stats.total_ns,
        read_stall_ns: stats.read_stall_ns,
        write_stall_ns: stats.write_stall_ns,
        ops: trace.len(),
        nvm_reads: totals.nvm_reads,
        nvm_writes: totals.nvm_writes,
        writes_per_data_write: totals.writes_per_data_write().unwrap_or(0.0),
        busy_ns: stats.busy_ns,
        channel_time_ns: stats.channel_time_ns,
        latency,
    }
}

/// [`run_trace`] with periodic telemetry snapshots: after every
/// `epoch_ops` trace operations the controller publishes its counters
/// (device stats, cache rates, WPQ occupancy) and a [`Snapshot`] is taken
/// from `telemetry`. Returns the run result plus the epoch snapshots in
/// order (one final snapshot covers the tail even when the trace length
/// is not a multiple of `epoch_ops`).
///
/// Epoch snapshots include the [`OP_LATENCY_METRIC`] histogram, so the
/// JSONL export carries p50/p95/p99 per epoch. Mid-run channel gauges
/// (`sim_now_ns`, `sim_utilization`) are computed on a drained *clone*
/// of the channel — the live backlog is untouched.
///
/// When telemetry is disabled the snapshot list comes back empty and the
/// replay costs the same as [`run_trace`].
///
/// # Errors
///
/// Same as [`run_trace`].
pub fn run_trace_with_epochs<C: MemoryController>(
    controller: &mut C,
    trace: &Trace,
    model: &TimingModel,
    epoch_ops: usize,
    telemetry: &Telemetry,
) -> Result<(RunResult, Vec<Snapshot>), MemError> {
    let mut channel = Channel::new(model);
    let mut latencies = Vec::with_capacity(trace.len());
    let mut snapshots = Vec::new();
    let epoch = epoch_ops.max(1);
    let mut done: u64 = 0;
    for chunk in trace.ops().chunks(epoch) {
        replay_ops(controller, chunk, &mut channel, &mut latencies, telemetry)?;
        done += chunk.len() as u64;
        if telemetry.enabled() {
            controller.publish_telemetry();
            let stats = channel.drained_stats();
            telemetry.counter_set("sim_ops_total", controller.scheme_name(), done);
            telemetry.gauge_set("sim_now_ns", controller.scheme_name(), channel.now as f64);
            telemetry.gauge_set(
                "sim_utilization",
                controller.scheme_name(),
                stats.utilization(),
            );
            if let Some(snap) = telemetry.take_snapshot() {
                snapshots.push(snap);
            }
        }
    }
    channel.drain();
    Ok((
        result_of(
            controller,
            trace,
            &ChannelStats::of(&channel),
            LatencySummary::of(&latencies),
        ),
        snapshots,
    ))
}

/// The shared op loop: drives `ops` through `controller`, feeding every
/// cost into `channel`, recording each op's end-to-end latency into
/// `latencies` and the [`OP_LATENCY_METRIC`] histogram.
fn replay_ops<C: MemoryController>(
    controller: &mut C,
    ops: &[MemOp],
    channel: &mut Channel,
    latencies: &mut Vec<u64>,
    telemetry: &Telemetry,
) -> Result<(), MemError> {
    let record = telemetry.enabled();
    for op in ops {
        channel.advance(u64::from(op.gap_ns));
        match op.kind {
            OpKind::Read => {
                controller.read(DataAddr::new(op.addr.index()))?;
            }
            OpKind::Write => {
                // Deterministic, address-derived payload: contents don't
                // affect timing, but they make post-crash verification in
                // tests meaningful.
                let block = payload(op.addr.index());
                controller.write(DataAddr::new(op.addr.index()), block)?;
            }
        }
        let latency = channel.execute(controller.last_cost());
        latencies.push(latency);
        if record {
            telemetry.observe(OP_LATENCY_METRIC, controller.scheme_name(), latency as f64);
        }
    }
    Ok(())
}

/// The outcome of a sharded replay: the merged per-channel statistics
/// plus per-shard detail.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedRunResult {
    /// Merged statistics across shards: wall clock is the slowest shard
    /// (shards model independent channels running concurrently), stall
    /// time and NVM traffic are summed, and the latency summary covers
    /// every op across all shards.
    pub merged: RunResult,
    /// Number of address shards (= controllers = channels).
    pub shards: usize,
    /// Lane count the shards were replayed across. Does not affect any
    /// reported number — only how much host parallelism the replay used.
    pub lanes: usize,
    /// Per-shard wall clock (ns), in shard order.
    pub shard_ns: Vec<u64>,
    /// Per-op latency streams concatenated in shard order (within a
    /// shard: that shard's sub-trace order). Deterministic and
    /// lane-count invariant.
    pub latencies: Vec<u64>,
}

/// Maps a data-block index to its address shard: counter-block-granular
/// round-robin, so all 64 lines sharing one counter block (and its tree
/// path locality) land in the same shard.
pub fn shard_of(block_index: u64, shards: usize) -> usize {
    ((block_index / LINES_PER_COUNTER_BLOCK) % shards.max(1) as u64) as usize
}

/// Replays `trace` in sharded mode: the address space is split across
/// `shards` independent controllers (one memory channel each, see
/// [`shard_of`]), and the shards replay concurrently across `lanes`
/// scoped threads.
///
/// Each shard sees its sub-trace in original program order, so per-shard
/// results are deterministic; the merge runs in shard order over integer
/// nanoseconds, so the outcome is bit-identical for any `lanes` value
/// (including the inline `lanes == 1` path). With `shards == 1` this is
/// exactly [`run_trace`].
///
/// # Errors
///
/// Propagates the first [`MemError`] in shard order.
pub fn run_trace_sharded<C, F>(
    make_controller: F,
    trace: &Trace,
    model: &TimingModel,
    shards: usize,
    lanes: usize,
) -> Result<ShardedRunResult, MemError>
where
    C: MemoryController,
    F: Fn(usize) -> C + Sync,
{
    run_trace_sharded_with_telemetry(
        make_controller,
        trace,
        model,
        shards,
        lanes,
        &Telemetry::global(),
    )
}

/// [`run_trace_sharded`] recording per-op latencies into an explicit
/// telemetry handle instead of the process-global one — tests use this
/// with private registries to prove histogram snapshots are lane-count
/// invariant.
///
/// # Errors
///
/// Same as [`run_trace_sharded`].
pub fn run_trace_sharded_with_telemetry<C, F>(
    make_controller: F,
    trace: &Trace,
    model: &TimingModel,
    shards: usize,
    lanes: usize,
    telemetry: &Telemetry,
) -> Result<ShardedRunResult, MemError>
where
    C: MemoryController,
    F: Fn(usize) -> C + Sync,
{
    let shards = shards.max(1);
    let mut sub_traces: Vec<Vec<MemOp>> = vec![Vec::new(); shards];
    for op in trace.ops() {
        sub_traces[shard_of(op.addr.index(), shards)].push(*op);
    }

    struct ShardOutcome {
        stats: ChannelStats,
        totals: CostAccum,
        scheme: &'static str,
        latencies: Vec<u64>,
    }
    let outcomes: Vec<Result<ShardOutcome, MemError>> = map_range(lanes, shards as u64, |shard| {
        let mut controller = make_controller(shard as usize);
        let mut channel = Channel::new(model);
        let mut latencies = Vec::with_capacity(sub_traces[shard as usize].len());
        replay_ops(
            &mut controller,
            &sub_traces[shard as usize],
            &mut channel,
            &mut latencies,
            telemetry,
        )?;
        controller.publish_telemetry();
        channel.drain();
        Ok(ShardOutcome {
            stats: ChannelStats::of(&channel),
            totals: *controller.total_cost(),
            scheme: controller.scheme_name(),
            latencies,
        })
    });

    let mut stats = ChannelStats::default();
    let mut totals = CostAccum::default();
    let mut scheme = "";
    let mut shard_ns = Vec::with_capacity(shards);
    let mut latencies = Vec::with_capacity(trace.len());
    for outcome in outcomes {
        let o = outcome?;
        scheme = o.scheme;
        shard_ns.push(o.stats.total_ns);
        stats.merge(&o.stats);
        totals.reads += o.totals.reads;
        totals.writes += o.totals.writes;
        totals.nvm_reads += o.totals.nvm_reads;
        totals.nvm_writes += o.totals.nvm_writes;
        totals.hash_ops += o.totals.hash_ops;
        totals.bg_hash_ops += o.totals.bg_hash_ops;
        latencies.extend_from_slice(&o.latencies);
    }
    Ok(ShardedRunResult {
        merged: RunResult {
            scheme,
            workload: trace.name().to_string(),
            total_ns: stats.total_ns,
            read_stall_ns: stats.read_stall_ns,
            write_stall_ns: stats.write_stall_ns,
            ops: trace.len(),
            nvm_reads: totals.nvm_reads,
            nvm_writes: totals.nvm_writes,
            writes_per_data_write: totals.writes_per_data_write().unwrap_or(0.0),
            busy_ns: stats.busy_ns,
            channel_time_ns: stats.channel_time_ns,
            latency: LatencySummary::of(&latencies),
        },
        shards,
        lanes,
        shard_ns,
        latencies,
    })
}

/// Upper bound on replay lanes; only guards against pathological values.
const MAX_LANES: usize = 64;

/// Splits `0..n` into at most `lanes` contiguous chunks, earlier chunks
/// taking the remainder. A pure function of `(n, lanes)`: the fixed
/// shard→lane assignment that keeps sharded replay deterministic.
fn shard_chunks(n: u64, lanes: usize) -> Vec<Range<u64>> {
    let lanes = (lanes.max(1) as u64).min(n.max(1));
    let base = n / lanes;
    let extra = n % lanes;
    let mut chunks = Vec::with_capacity(lanes as usize);
    let mut start = 0;
    for lane in 0..lanes {
        let len = base + u64::from(lane < extra);
        chunks.push(start..start + len);
        start += len;
    }
    chunks
}

/// Applies `f` to every index in `0..n`, fanning chunks out across
/// `lanes` scoped threads, and returns the results in index order. With
/// `lanes <= 1` (or fewer than two items) it runs inline.
///
/// # Panics
///
/// Propagates a panic from `f`.
fn map_range<R, F>(lanes: usize, n: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let lanes = lanes.clamp(1, MAX_LANES);
    if lanes == 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_chunks(n, lanes)
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(n as usize);
        for handle in handles {
            out.extend(handle.join().expect("replay lane panicked"));
        }
        out
    })
}

/// Deterministic per-address block contents for trace writes.
pub fn payload(index: u64) -> anubis_nvm::Block {
    anubis_nvm::Block::from_words([
        index,
        index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        !index,
        index.rotate_left(21),
        index ^ 0xABCD_EF01_2345_6789,
        index.wrapping_add(7),
        index << 7,
        index >> 3,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis::{AnubisConfig, BonsaiController, BonsaiScheme, SgxController, SgxScheme};
    use anubis_workloads::{spec2006, TraceGenerator};

    fn small_trace(n: usize) -> Trace {
        let cfg = AnubisConfig::small_test();
        TraceGenerator::new(spec2006::omnetpp(), cfg.capacity_bytes).generate(n, 3)
    }

    #[test]
    fn replay_produces_time_and_counts() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        let r = run_trace(&mut c, &small_trace(500), &TimingModel::paper()).unwrap();
        assert_eq!(r.ops, 500);
        assert!(r.total_ns > 0);
        assert!(r.nvm_reads > 0);
        assert_eq!(r.scheme, "osiris");
        assert_eq!(r.workload, "omnetpp");
        assert_eq!(r.latency.count, 500);
        assert!(r.latency.p50_ns <= r.latency.p95_ns);
        assert!(r.latency.p95_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.max_ns);
    }

    #[test]
    fn latency_stream_matches_summary() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let (r, lats) =
            run_trace_latencies(&mut c, &small_trace(400), &TimingModel::paper()).unwrap();
        assert_eq!(lats.len(), 400);
        assert_eq!(r.latency, LatencySummary::of(&lats));
        assert_eq!(r.latency.max_ns, lats.iter().copied().max().unwrap());
    }

    #[test]
    fn strict_is_slower_than_write_back() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(2_000);
        let model = TimingModel::paper();
        let mut wb = BonsaiController::new(BonsaiScheme::WriteBack, &cfg);
        let base = run_trace(&mut wb, &trace, &model).unwrap();
        let mut strict = BonsaiController::new(BonsaiScheme::StrictPersist, &cfg);
        let s = run_trace(&mut strict, &trace, &model).unwrap();
        assert!(
            s.normalized_to(&base) > 1.0,
            "strict {} vs wb {}",
            s.total_ns,
            base.total_ns
        );
        // The latency-distribution claim behind this PR: strict
        // persistence hurts the tail at least as much as the mean.
        assert!(
            s.latency.p99_ns > base.latency.p99_ns,
            "strict p99 {} vs wb p99 {}",
            s.latency.p99_ns,
            base.latency.p99_ns
        );
    }

    #[test]
    fn sgx_controllers_replay_too() {
        let cfg = AnubisConfig::small_test();
        let mut c = SgxController::new(SgxScheme::Asit, &cfg);
        let r = run_trace(&mut c, &small_trace(500), &TimingModel::paper()).unwrap();
        assert!(r.total_ns > 0);
        assert!(r.writes_per_data_write >= 1.0);
    }

    #[test]
    fn empty_trace_reports_zero_not_nan() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        let trace = Trace::new("empty", Vec::new());
        let r = run_trace(&mut c, &trace, &TimingModel::paper()).unwrap();
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.latency, LatencySummary::default());
        assert!(r.utilization().is_finite());
        let sharded = run_trace_sharded(
            |_| BonsaiController::new(BonsaiScheme::Osiris, &cfg),
            &trace,
            &TimingModel::paper(),
            4,
            2,
        )
        .unwrap();
        assert_eq!(sharded.merged.utilization(), 0.0);
        assert!(sharded.merged.utilization().is_finite());
    }

    #[test]
    fn sharded_with_one_shard_matches_run_trace() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(800);
        let model = TimingModel::paper();
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let (serial, serial_lats) = run_trace_latencies(&mut c, &trace, &model).unwrap();
        let sharded = run_trace_sharded(
            |_| BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &trace,
            &model,
            1,
            1,
        )
        .unwrap();
        assert_eq!(sharded.merged, serial);
        assert_eq!(sharded.shard_ns, vec![serial.total_ns]);
        assert_eq!(sharded.latencies, serial_lats);
    }

    #[test]
    fn chunks_partition_the_range() {
        for n in [0u64, 1, 2, 7, 64, 1000] {
            for lanes in [1usize, 2, 3, 8, 64] {
                let chunks = shard_chunks(n, lanes);
                assert!(chunks.len() <= lanes.max(1));
                let mut next = 0;
                for c in &chunks {
                    assert_eq!(c.start, next, "contiguous at n={n} lanes={lanes}");
                    next = c.end;
                }
                assert_eq!(next, n, "covers the range at n={n} lanes={lanes}");
            }
        }
        let sizes: Vec<u64> = shard_chunks(10, 4)
            .iter()
            .map(|c| c.end - c.start)
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn sharded_replay_is_lane_count_invariant() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(1_000);
        let model = TimingModel::paper();
        let run = |lanes: usize| {
            run_trace_sharded(
                |_| BonsaiController::new(BonsaiScheme::Osiris, &cfg),
                &trace,
                &model,
                4,
                lanes,
            )
            .unwrap()
        };
        let inline = run(1);
        for lanes in [2, 4, 8] {
            let threaded = run(lanes);
            assert_eq!(threaded.merged, inline.merged, "lanes={lanes}");
            assert_eq!(threaded.shard_ns, inline.shard_ns, "lanes={lanes}");
            assert_eq!(threaded.latencies, inline.latencies, "lanes={lanes}");
        }
    }

    #[test]
    fn one_vs_eight_shard_totals_of_a_confined_trace_are_bit_identical() {
        // The f64 regression this PR fixes: with floating-point clocks,
        // 8-shard merges accumulated in a different order than 1-shard
        // replays and drifted by ULPs. On the integer engine a trace
        // confined to one shard must produce *exactly* equal totals at
        // any shard count — assert_eq on u64, no epsilon.
        let cfg = AnubisConfig::small_test();
        let ops: Vec<MemOp> = (0..700)
            .map(|i| {
                let addr = anubis_nvm::BlockAddr::new(i % LINES_PER_COUNTER_BLOCK);
                if i % 3 == 0 {
                    MemOp::read(addr, 15)
                } else {
                    MemOp::write(addr, 15)
                }
            })
            .collect();
        let trace = Trace::new("confined", ops);
        let model = TimingModel::paper();
        let run = |shards: usize| {
            run_trace_sharded(
                |_| BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
                &trace,
                &model,
                shards,
                1,
            )
            .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.merged.total_ns, eight.merged.total_ns);
        assert_eq!(one.merged.read_stall_ns, eight.merged.read_stall_ns);
        assert_eq!(one.merged.write_stall_ns, eight.merged.write_stall_ns);
        assert_eq!(one.merged.busy_ns, eight.merged.busy_ns);
        assert_eq!(one.merged.channel_time_ns, eight.merged.channel_time_ns);
        assert_eq!(one.merged.latency, eight.merged.latency);
        assert_eq!(one.latencies, eight.latencies);
    }

    #[test]
    fn sharding_splits_work_across_channels() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(2_000);
        let model = TimingModel::paper();
        let sharded = run_trace_sharded(
            |_| SgxController::new(SgxScheme::Asit, &cfg),
            &trace,
            &model,
            4,
            2,
        )
        .unwrap();
        assert_eq!(sharded.shards, 4);
        assert_eq!(sharded.merged.ops, trace.len());
        assert_eq!(sharded.shard_ns.len(), 4);
        assert_eq!(sharded.latencies.len(), trace.len());
        // Every shard saw work, and the merged clock is the slowest shard.
        assert!(sharded.shard_ns.iter().all(|&ns| ns > 0));
        let slowest = *sharded.shard_ns.iter().max().unwrap();
        assert_eq!(sharded.merged.total_ns, slowest);
    }

    #[test]
    fn epoch_snapshots_are_monotone_and_cover_the_tail() {
        let cfg = AnubisConfig::small_test();
        let mut c = BonsaiController::new(BonsaiScheme::AgitPlus, &cfg);
        let (reg, tel) = anubis::telemetry::Telemetry::private();
        c.set_telemetry(tel.clone());
        let trace = small_trace(250);
        let (result, snaps) =
            run_trace_with_epochs(&mut c, &trace, &TimingModel::paper(), 100, &tel).unwrap();
        assert_eq!(result.ops, 250);
        // 100 + 100 + 50 → three epochs.
        assert_eq!(snaps.len(), 3);
        for pair in snaps.windows(2) {
            assert!(pair[1].seq > pair[0].seq);
            assert!(pair[1].at_ns >= pair[0].at_ns);
            for (name, labels) in &pair[0].counters {
                for (label, value) in labels {
                    let later = pair[1].counter(name, label);
                    assert!(
                        later >= *value,
                        "counter {name}{{{label}}} regressed: {later} < {value}"
                    );
                }
            }
        }
        let last = snaps.last().unwrap();
        assert_eq!(last.counter("sim_ops_total", "agit-plus"), 250);
        assert!(last.counter("nvm_writes_total", "agit-plus") > 0);
        // The op-latency histogram reaches the snapshot, covers every op,
        // and its bucket-resolution p99 brackets the exact stream p99.
        let h = &last.histograms[OP_LATENCY_METRIC]["agit-plus"];
        assert_eq!(h.count, 250);
        assert!(h.percentile(0.99) >= result.latency.p99_ns);
        drop(reg);
    }

    #[test]
    fn epoch_variant_matches_run_trace_when_disabled() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(400);
        let model = TimingModel::paper();
        let mut a = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        a.set_telemetry(anubis::telemetry::Telemetry::off());
        let plain = run_trace(&mut a, &trace, &model).unwrap();
        let mut b = BonsaiController::new(BonsaiScheme::Osiris, &cfg);
        let off = anubis::telemetry::Telemetry::off();
        b.set_telemetry(off.clone());
        let (epoch, snaps) = run_trace_with_epochs(&mut b, &trace, &model, 64, &off).unwrap();
        assert_eq!(plain, epoch);
        assert!(snaps.is_empty());
    }

    #[test]
    fn utilization_is_invariant_under_sharding_for_a_one_shard_trace() {
        let cfg = AnubisConfig::small_test();
        // Confine every op to the first counter-block group so the trace
        // lands entirely in shard 0 at any shard count.
        let ops: Vec<MemOp> = (0..600)
            .map(|i| {
                let addr = anubis_nvm::BlockAddr::new(i % LINES_PER_COUNTER_BLOCK);
                if i % 3 == 0 {
                    MemOp::read(addr, 10)
                } else {
                    MemOp::write(addr, 10)
                }
            })
            .collect();
        let trace = Trace::new("one-shard", ops);
        let model = TimingModel::paper();
        let run = |shards: usize| {
            run_trace_sharded(
                |_| BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
                &trace,
                &model,
                shards,
                1,
            )
            .unwrap()
        };
        let single = run(1);
        let many = run(4);
        assert!(single.merged.utilization() > 0.0);
        assert_eq!(
            single.merged.utilization(),
            many.merged.utilization(),
            "idle shards must not change utilization"
        );
        assert_eq!(single.merged.busy_ns, many.merged.busy_ns);
        assert_eq!(single.merged.channel_time_ns, many.merged.channel_time_ns);
    }

    #[test]
    fn utilization_stays_in_unit_interval_with_busy_shards() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(1_500);
        let model = TimingModel::paper();
        let sharded = run_trace_sharded(
            |_| BonsaiController::new(BonsaiScheme::StrictPersist, &cfg),
            &trace,
            &model,
            4,
            2,
        )
        .unwrap();
        let u = sharded.merged.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
        // The old bug: dividing summed per-channel work by the max wall
        // clock. With 4 busy shards that quotient can exceed 1.0; the
        // summed channel-time denominator keeps it a true fraction.
        assert!(sharded.merged.channel_time_ns >= sharded.merged.total_ns);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let cfg = AnubisConfig::small_test();
        let trace = small_trace(300);
        let model = TimingModel::paper();
        let r1 = run_trace(
            &mut BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &trace,
            &model,
        )
        .unwrap();
        let r2 = run_trace(
            &mut BonsaiController::new(BonsaiScheme::AgitPlus, &cfg),
            &trace,
            &model,
        )
        .unwrap();
        assert_eq!(r1, r2);
    }
}
