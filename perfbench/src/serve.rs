//! Driving an in-process `anubis_server::Server` through `ServeClient`:
//! configuration, prefill, the closed-loop load generator and the
//! acked-write ledger it checks reads against.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use anubis_nvm::SplitMix64;
use anubis_server::{ClientError, ServeClient, ServeConfig, ServeMode, TenantFamily, TenantSpec};
use anubis_workloads::{OpKind, TraceGenerator, WorkloadSpec};

use crate::trace::Tracer;

/// Session token every benchmark tenant uses.
pub const TOKEN: &str = "perfbench";

/// Per-tenant ops/s quota. The default (50 000/s) is within reach of a
/// fast read mix, and the token bucket must never be what a workload
/// measures; two closed-loop connections cannot approach this rate.
pub const QUOTA_OPS_PER_S: f64 = 10_000_000.0;

/// Lines written per `WriteBatch` frame during prefill.
const PREFILL_BATCH: u64 = 512;

/// How long a tenant may take to reach full service after start.
const FULL_WAIT: Duration = Duration::from_secs(30);

/// `ServeConfig::default()` geometry on a private data dir, with the
/// given tenants and the raised quota.
pub fn serve_config(data_dir: &Path, tenants: &[(&str, TenantFamily)]) -> ServeConfig {
    ServeConfig {
        data_dir: data_dir.to_path_buf(),
        tenants: tenants
            .iter()
            .map(|(name, family)| TenantSpec::new(name, TOKEN, *family))
            .collect(),
        ops_per_sec: QUOTA_OPS_PER_S,
        ..ServeConfig::default()
    }
}

/// Removes and recreates `dir`.
///
/// # Errors
///
/// Any I/O failure.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// The 64-byte value of `version` of line `addr` under `seed`. Never all
/// zero, so a lost write never reads back as a match.
pub fn value(seed: u64, addr: u64, version: u32) -> [u8; 64] {
    let mut rng = SplitMix64::new(
        seed ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(version).rotate_left(40),
    );
    let mut b = [0u8; 64];
    for chunk in b.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    b[0] |= 0x80;
    b
}

/// Ledger marker for a line whose last write failed: its contents are
/// unknown, so nothing is checked against it.
pub const UNKNOWN: u32 = u32::MAX;

fn client_err(what: &str, e: &ClientError) -> String {
    format!("{what}: {e}")
}

/// Connects one client to `tenant`.
///
/// # Errors
///
/// Connect or handshake failure.
pub fn connect(addr: SocketAddr, tenant: &str) -> Result<ServeClient, String> {
    ServeClient::connect(addr, tenant, TOKEN).map_err(|e| client_err("connect", &e))
}

/// Connects one client per entry of `tenants`, all at once, as
/// independent clients would: the server's accept loop then takes them
/// in one poll tick rather than one tick each.
pub fn connect_all(addr: SocketAddr, tenants: &[&str]) -> Vec<Result<ServeClient, String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| s.spawn(move || connect(addr, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connect thread panicked".to_string()))
            })
            .collect()
    })
}

/// Polls the tenant's statistics until it reports full service.
///
/// # Errors
///
/// Transport failure, or the tenant not reaching full service in time.
pub fn wait_full(client: &mut ServeClient) -> Result<(), String> {
    let deadline = Instant::now() + FULL_WAIT;
    loop {
        let stats = client.stats().map_err(|e| client_err("stats", &e))?;
        if stats.mode == ServeMode::Full.code() {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("tenant not in full service: mode {}", stats.mode));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Writes version 0 of every line in `0..lines` through `WriteBatch`.
///
/// # Errors
///
/// Any rejected or failed batch.
pub fn prefill(client: &mut ServeClient, seed: u64, lines: u64) -> Result<(), String> {
    let mut start = 0;
    while start < lines {
        let end = (start + PREFILL_BATCH).min(lines);
        let items = (start..end).map(|a| (a, value(seed, a, 0))).collect();
        let written = client
            .write_batch(items, 0)
            .map_err(|e| client_err("prefill", &e))?;
        if u64::from(written) != end - start {
            return Err(format!("prefill wrote {written} of {}", end - start));
        }
        start = end;
    }
    Ok(())
}

/// Typed rejections and retries the tenant has counted so far.
///
/// # Errors
///
/// Transport failure.
pub fn rejects(client: &mut ServeClient) -> Result<u64, String> {
    let s = client.stats().map_err(|e| client_err("stats", &e))?;
    Ok(s.rejected_overload
        + s.rejected_circuit
        + s.rejected_deadline
        + s.degraded_writes
        + s.retries_total)
}

/// One request of a closed-loop op sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Write (`true`) or read.
    pub write: bool,
    /// Data line.
    pub addr: u64,
}

/// A seeded op sequence from `spec` over `lines` lines. Op `i` touches a
/// line whose parity is `i % 2`, so with two clients (client `c` takes
/// the ops with `i % 2 == c`) each line has one writer and the ledger
/// stays exact; one client replays the same sequence.
pub fn op_sequence(spec: WorkloadSpec, lines: u64, n: usize, seed: u64) -> Vec<Op> {
    TraceGenerator::new(spec, lines * 64)
        .generate(n, seed)
        .iter()
        .enumerate()
        .map(|(i, op)| Op {
            write: op.kind == OpKind::Write,
            addr: (op.addr.index() & !1) | (i as u64 & 1),
        })
        .collect()
}

/// What a closed-loop window measured.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Round-trip times of acked writes (ns).
    pub write_ns: Vec<u64>,
    /// Round-trip times of verified reads (ns).
    pub read_ns: Vec<u64>,
    /// Completion time of each acked write, ns after the window opened.
    pub write_at: Vec<u64>,
    /// Completion time of each verified read, ns after the window opened.
    pub read_at: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Typed rejections, transport errors and ledger mismatches.
    pub failed: u64,
    /// Reads that returned something other than the ledger's value.
    pub mismatches: u64,
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Times the watched WAL image shrank (compactions).
    pub compactions: u64,
    /// Sequence index where a following window should start, so windows
    /// continue the sequence instead of replaying it.
    pub next_op: usize,
}

impl Window {
    /// Completed requests per second.
    pub fn ops_per_s(&self) -> f64 {
        (self.write_ns.len() + self.read_ns.len()) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Optional instrumentation of a window.
#[derive(Clone, Copy, Default)]
pub struct Watch<'a> {
    /// Span recorder: one span per request when set.
    pub tracer: Option<&'a Tracer>,
    /// WAL image whose size client 0 samples after each ack.
    pub wal: Option<&'a Path>,
}

struct ClientOut {
    window: Window,
    ledger: Vec<(u64, u32)>,
}

/// Runs `ops` closed-loop on `clients` (one thread each) for `dur`,
/// starting at sequence index `start_op` (a multiple of `clients.len()`).
/// Client `c` of `k` takes the ops with `i % k == c`, cycling. Reads are
/// checked against `ledger` (line → last acked version); acked writes
/// advance it.
///
/// # Errors
///
/// A client thread panicked.
pub fn closed_loop(
    clients: &mut [ServeClient],
    ops: &[Op],
    start_op: usize,
    seed: u64,
    ledger: &mut [u32],
    dur: Duration,
    watch: Watch<'_>,
) -> Result<Window, String> {
    let k = clients.len();
    let start = Instant::now();
    let deadline = start + dur;
    let snapshot: &[u32] = ledger;
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let wal = if c == 0 { watch.wal } else { None };
                let tracer = watch.tracer;
                s.spawn(move || {
                    client_loop(
                        client,
                        start_op + c,
                        k,
                        ops,
                        seed,
                        snapshot,
                        (start, deadline),
                        tracer,
                        wal,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut w = Window {
        elapsed: start.elapsed(),
        ..Window::default()
    };
    for out in outs {
        w.write_ns.extend(out.window.write_ns);
        w.read_ns.extend(out.window.read_ns);
        w.write_at.extend(out.window.write_at);
        w.read_at.extend(out.window.read_at);
        w.attempted += out.window.attempted;
        w.failed += out.window.failed;
        w.mismatches += out.window.mismatches;
        w.compactions += out.window.compactions;
        w.next_op = w.next_op.max(out.window.next_op.next_multiple_of(k));
        for (addr, version) in out.ledger {
            ledger[addr as usize] = version;
        }
    }
    Ok(w)
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut ServeClient,
    first: usize,
    k: usize,
    ops: &[Op],
    seed: u64,
    ledger: &[u32],
    (start, deadline): (Instant, Instant),
    tracer: Option<&Tracer>,
    wal: Option<&Path>,
) -> ClientOut {
    let mut w = Window::default();
    // Lines this client writes, with their current version: each line
    // has one writer, so a private map is exact.
    let mut mine: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    let mut wal_size = wal
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    let mut i = first;
    while Instant::now() < deadline {
        let op = ops[i % ops.len()];
        let req = i as u64;
        i += k;
        w.attempted += 1;
        let current = *mine.get(&op.addr).unwrap_or(&ledger[op.addr as usize]);
        let t0 = Instant::now();
        if op.write {
            let next = if current == UNKNOWN { 1 } else { current + 1 };
            let r = client.write(op.addr, value(seed, op.addr, next), 0);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(t) = tracer {
                let end = t.now();
                t.record("server.write_rtt", end.saturating_sub(ns), end, 0, req);
            }
            match r {
                Ok(()) => {
                    mine.insert(op.addr, next);
                    w.write_ns.push(ns);
                    w.write_at.push((t0 - start).as_nanos() as u64 + ns);
                    if let Some(p) = wal {
                        let size = std::fs::metadata(p).map_or(wal_size, |m| m.len());
                        if size < wal_size {
                            w.compactions += 1;
                        }
                        wal_size = size;
                    }
                }
                Err(_) => {
                    mine.insert(op.addr, UNKNOWN);
                    w.failed += 1;
                }
            }
        } else {
            let r = client.read(op.addr, 0);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(t) = tracer {
                let end = t.now();
                t.record("server.read_rtt", end.saturating_sub(ns), end, 0, req);
            }
            match r {
                Ok((data, ServeMode::Full))
                    if current == UNKNOWN || data == value(seed, op.addr, current) =>
                {
                    w.read_ns.push(ns);
                    w.read_at.push((t0 - start).as_nanos() as u64 + ns);
                }
                Ok(_) => {
                    w.mismatches += 1;
                    w.failed += 1;
                }
                Err(_) => w.failed += 1,
            }
        }
    }
    w.next_op = i;
    ClientOut {
        window: w,
        ledger: mine.into_iter().collect(),
    }
}

/// Reads back every line in `0..ledger.len()` (client `c` of `k` takes
/// the lines with `addr % k == c`) and counts lines that fail or differ
/// from the ledger. Returns `(reads, failures)`.
///
/// # Errors
///
/// A client thread panicked.
pub fn verify_all(
    clients: &mut [ServeClient],
    seed: u64,
    ledger: &[u32],
) -> Result<(u64, u64), String> {
    let k = clients.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut reads = 0u64;
                    let mut bad = 0u64;
                    for addr in (c as u64..ledger.len() as u64).step_by(k) {
                        let version = ledger[addr as usize];
                        reads += 1;
                        match client.read(addr, 0) {
                            Ok((data, ServeMode::Full))
                                if version == UNKNOWN || data == value(seed, addr, version) => {}
                            _ => bad += 1,
                        }
                    }
                    (reads, bad)
                })
            })
            .collect();
        let mut total = (0, 0);
        for h in handles {
            let (r, b) = h.join().map_err(|_| "verify thread panicked".to_string())?;
            total.0 += r;
            total.1 += b;
        }
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_distinct_and_nonzero() {
        assert_eq!(value(1, 5, 0), value(1, 5, 0));
        assert_ne!(value(1, 5, 0), value(1, 5, 1));
        assert_ne!(value(1, 5, 0), value(1, 6, 0));
        assert_ne!(value(1, 5, 0), value(2, 5, 0));
        assert_ne!(value(0, 0, 0), [0u8; 64]);
    }

    #[test]
    fn op_parity_follows_index() {
        let spec = WorkloadSpec::new("t")
            .read_fraction(0.5)
            .footprint_bytes(64 * 1024)
            .zipf(0.0)
            .sequential(0.0);
        let ops = op_sequence(spec.clone(), 1024, 1000, 3);
        assert_eq!(ops, op_sequence(spec, 1024, 1000, 3));
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.addr % 2, i as u64 % 2);
            assert!(op.addr < 1024);
        }
        assert!(ops.iter().any(|o| o.write) && ops.iter().any(|o| !o.write));
    }
}
