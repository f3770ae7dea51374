//! The `anubis-serve` wire protocol: length-prefixed, checksummed frames
//! over TCP, carrying typed requests and responses.
//!
//! # Frame format
//!
//! ```text
//! [magic u32 LE][payload_len u32 LE][payload bytes][fnv1a64(payload) u64 LE]
//! ```
//!
//! The payload's first byte is an opcode; the rest is the
//! operation-specific body. Every decode failure is a typed
//! [`ProtoError`] — a malformed, truncated, oversized or corrupted frame
//! can never panic the peer, and a writer that stalls mid-frame
//! (slowloris) surfaces as [`ProtoError::TimedOutMidFrame`] rather than
//! a hung connection.
//!
//! The protocol is deliberately dependency-free: hand-rolled little-
//! endian encoding over `std::net::TcpStream`, matching the rest of the
//! workspace.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Frame magic: `"ANSV"` little-endian-ish constant; a frame not opening
/// with it is rejected before any payload is read.
pub const MAGIC: u32 = 0xA17B_5E1F;

/// Protocol version carried in [`Request::Hello`]; the server rejects
/// mismatches with [`ServeError::BadRequest`].
pub const PROTO_VERSION: u32 = 1;

/// Frame header bytes on the wire (magic + payload length).
pub const HEADER_BYTES: usize = 8;

/// Checksum trailer bytes on the wire.
pub const TRAILER_BYTES: usize = 8;

/// FNV-1a over arbitrary bytes — the frame checksum.
pub use anubis_nvm::fnv1a64;

/// Hashes a session token for the handshake: tokens travel and are
/// stored only as FNV-1a digests.
pub fn token_hash(token: &str) -> u64 {
    fnv1a64(token.as_bytes())
}

/// A typed frame/codec failure. Every connection-layer fault a peer can
/// inject maps onto exactly one of these variants.
#[derive(Debug)]
pub enum ProtoError {
    /// The frame did not open with [`MAGIC`].
    BadMagic(u32),
    /// Declared payload length exceeds the negotiated maximum.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// Maximum the reader accepts.
        max: u32,
    },
    /// Frame checksum mismatch (corrupted in flight).
    BadChecksum {
        /// Checksum carried by the frame.
        got: u64,
        /// Checksum computed over the received payload.
        want: u64,
    },
    /// The stream ended mid-frame (peer disconnected).
    Truncated,
    /// The peer went silent mid-frame for longer than the stall budget
    /// (slowloris guard).
    TimedOutMidFrame,
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Structurally invalid payload body.
    Malformed(&'static str),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds maximum {max}")
            }
            ProtoError::BadChecksum { got, want } => {
                write!(f, "frame checksum {got:#018x} != computed {want:#018x}")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::TimedOutMidFrame => write!(f, "peer stalled mid-frame"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A tenant's serving mode — the three persistence-tier-shaped states
/// the front-end moves through (full service, read-only during an
/// in-flight recovery ladder, unavailable after a structural failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// Reads and writes served normally.
    Full,
    /// The recovery supervisor owns the controller: reads come from the
    /// last verified state, writes are rejected as [`ServeError::Degraded`].
    ReadOnly,
    /// The tenant's domain failed structurally; every request is
    /// rejected until an operator intervenes.
    Unavailable,
}

impl ServeMode {
    /// Wire encoding of the mode.
    pub fn code(self) -> u8 {
        match self {
            ServeMode::Full => 0,
            ServeMode::ReadOnly => 1,
            ServeMode::Unavailable => 2,
        }
    }

    /// Parses the wire encoding.
    pub fn from_code(c: u8) -> Result<ServeMode, ProtoError> {
        match c {
            0 => Ok(ServeMode::Full),
            1 => Ok(ServeMode::ReadOnly),
            2 => Ok(ServeMode::Unavailable),
            _ => Err(ProtoError::Malformed("serving mode")),
        }
    }
}

impl std::fmt::Display for ServeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeMode::Full => write!(f, "full"),
            ServeMode::ReadOnly => write!(f, "read-only"),
            ServeMode::Unavailable => write!(f, "unavailable"),
        }
    }
}

/// Chaos-injection operations, accepted only when the server runs with
/// `ANUBIS_SERVE_CHAOS=1` (the harness and the example use them; a
/// production server rejects them as [`ServeError::BadRequest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip a bit pair in the tenant's stored ciphertext for data line
    /// `addr` (two flips in one word defeat the ECC model) — the next
    /// touch of that line fails verification and drives the tenant into
    /// the recovery ladder.
    CorruptLine {
        /// Data-line address to corrupt.
        addr: u64,
        /// Bit index within the 64-byte block (its partner `bit ^ 1` is
        /// flipped too).
        bit: u32,
    },
    /// Make the next `count` controller ops fail with a synthetic
    /// transient error (exercises retry-with-backoff deterministically).
    TransientFaults {
        /// Number of ops to fail.
        count: u32,
    },
    /// Stall every subsequent request by `ms` while holding the tenant
    /// lock (exercises deadlines and admission control).
    Stall {
        /// Injected per-request delay in milliseconds.
        ms: u32,
    },
    /// Delay the *next* recovery ladder by `ms` before it starts, holding
    /// the tenant in read-only mode long enough to observe degraded
    /// serving.
    RecoveryStall {
        /// Injected pre-ladder delay in milliseconds.
        ms: u32,
    },
}

/// A client request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Session handshake; must be the first frame on a connection.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        version: u32,
        /// Tenant name.
        tenant: String,
        /// FNV-1a hash of the tenant's session token.
        token: u64,
    },
    /// Read one data line.
    Read {
        /// Data-line address.
        addr: u64,
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
    },
    /// Write one data line.
    Write {
        /// Data-line address.
        addr: u64,
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
        /// The 64-byte payload.
        data: [u8; 64],
    },
    /// Write a batch of data lines through the controller's grouped
    /// commit path.
    WriteBatch {
        /// Per-request deadline in milliseconds (0 = server default).
        deadline_ms: u32,
        /// `(addr, payload)` items.
        items: Vec<(u64, [u8; 64])>,
    },
    /// Drain all dirty metadata to NVM (orderly flush).
    Flush,
    /// Force a supervised recovery ladder on the tenant's domain.
    Recover,
    /// Fetch the tenant's serving statistics.
    Stats,
    /// Chaos injection (gated behind `ANUBIS_SERVE_CHAOS`).
    Inject(Inject),
}

/// Per-tenant serving statistics returned by [`Request::Stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Current serving mode code ([`ServeMode::code`]).
    pub mode: u8,
    /// Requests currently admitted and executing.
    pub inflight: u64,
    /// Successful reads served (controller or verified-state).
    pub reads_total: u64,
    /// Acknowledged writes.
    pub writes_acked_total: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected_overload: u64,
    /// Requests rejected with [`ServeError::CircuitOpen`].
    pub rejected_circuit: u64,
    /// Requests rejected with [`ServeError::DeadlineExceeded`].
    pub rejected_deadline: u64,
    /// Writes rejected with [`ServeError::Degraded`].
    pub degraded_writes: u64,
    /// Reads served from the last verified state while recovering.
    pub degraded_reads: u64,
    /// Recovery ladders completed on this tenant.
    pub recoveries: u64,
    /// Transient-error retries performed.
    pub retries_total: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Blocks currently quarantined in the tenant's remap table.
    pub quarantined_blocks: u64,
    /// Rendered outcome of the most recent recovery ladder (empty until
    /// the first ladder completes).
    pub last_outcome: String,
}

/// A server response frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server-assigned session id.
        session: u64,
        /// The tenant's serving mode at handshake time.
        mode: ServeMode,
    },
    /// Read served.
    ReadOk {
        /// The 64-byte payload.
        data: [u8; 64],
        /// Serving mode the read was served under ([`ServeMode::ReadOnly`]
        /// means it came from the last verified state).
        mode: ServeMode,
    },
    /// Write acknowledged (durably committed by the controller).
    WriteOk,
    /// Batch acknowledged.
    BatchOk {
        /// Lines written.
        written: u32,
    },
    /// Flush completed.
    FlushOk,
    /// Recovery ladder scheduled or completed.
    RecoverOk {
        /// Rendered [`anubis::RecoveryOutcome`], or `"started"` when the
        /// ladder runs in the background.
        outcome: String,
    },
    /// Statistics snapshot.
    StatsOk(TenantStats),
    /// Chaos injection applied.
    InjectOk,
    /// A typed rejection or failure.
    Err(ServeError),
}

/// Every way the server says "no" — typed, never a silent queue, a hang,
/// or a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request frame failed protocol decoding; the connection closes
    /// after this response.
    BadFrame {
        /// Rendered [`ProtoError`].
        detail: String,
    },
    /// Unknown tenant or wrong session token.
    AuthFailed,
    /// Structurally valid frame, semantically invalid request (bad
    /// version, missing handshake, chaos op while chaos is disabled…).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The per-request deadline elapsed before the operation ran; the
    /// operation was **not** executed.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        budget_ms: u32,
    },
    /// Admission control rejected the request (in-flight cap or ops/s
    /// quota); back off and retry.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The tenant's circuit breaker is open after repeated faults.
    CircuitOpen {
        /// Remaining cooldown in milliseconds.
        retry_after_ms: u32,
    },
    /// The tenant is recovering: writes are rejected, reads may still be
    /// served from the last verified state.
    Degraded {
        /// The tenant's current mode.
        mode: ServeMode,
    },
    /// The operation failed integrity verification and the tenant has
    /// entered recovery.
    Integrity {
        /// Rendered controller error.
        detail: String,
    },
    /// The tenant is structurally unavailable.
    Unavailable {
        /// Why.
        detail: String,
    },
    /// Retry budget exhausted on transient errors, or an unexpected
    /// internal failure.
    Internal {
        /// Rendered underlying error.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadFrame { detail } => write!(f, "bad frame: {detail}"),
            ServeError::AuthFailed => write!(f, "authentication failed"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline of {budget_ms} ms exceeded")
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded; retry after {retry_after_ms} ms")
            }
            ServeError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit open; retry after {retry_after_ms} ms")
            }
            ServeError::Degraded { mode } => write!(f, "degraded: tenant is {mode}"),
            ServeError::Integrity { detail } => write!(f, "integrity failure: {detail}"),
            ServeError::Unavailable { detail } => write!(f, "unavailable: {detail}"),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable short name of the rejection class, used as a telemetry
    /// label and in reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadFrame { .. } => "bad_frame",
            ServeError::AuthFailed => "auth_failed",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::Degraded { .. } => "degraded",
            ServeError::Integrity { .. } => "integrity",
            ServeError::Unavailable { .. } => "unavailable",
            ServeError::Internal { .. } => "internal",
        }
    }
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(opcode: u8) -> Self {
        Enc { buf: vec![opcode] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn str(&mut self, s: &str) {
        let b = s.as_bytes();
        self.u32(b.len() as u32);
        self.bytes(b);
    }
}

struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b }
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&v, rest) = self
            .b
            .split_first()
            .ok_or(ProtoError::Malformed("short payload (u8)"))?;
        self.b = rest;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        if self.b.len() < 4 {
            return Err(ProtoError::Malformed("short payload (u32)"));
        }
        let (head, rest) = self.b.split_at(4);
        self.b = rest;
        let mut a = [0u8; 4];
        a.copy_from_slice(head);
        Ok(u32::from_le_bytes(a))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        if self.b.len() < 8 {
            return Err(ProtoError::Malformed("short payload (u64)"));
        }
        let (head, rest) = self.b.split_at(8);
        self.b = rest;
        let mut a = [0u8; 8];
        a.copy_from_slice(head);
        Ok(u64::from_le_bytes(a))
    }
    fn block(&mut self) -> Result<[u8; 64], ProtoError> {
        if self.b.len() < 64 {
            return Err(ProtoError::Malformed("short payload (block)"));
        }
        let (head, rest) = self.b.split_at(64);
        self.b = rest;
        let mut a = [0u8; 64];
        a.copy_from_slice(head);
        Ok(a)
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if self.b.len() < len {
            return Err(ProtoError::Malformed("short payload (string)"));
        }
        let (head, rest) = self.b.split_at(len);
        self.b = rest;
        String::from_utf8(head.to_vec()).map_err(|_| ProtoError::Malformed("non-UTF-8 string"))
    }
    fn done(self) -> Result<(), ProtoError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes"))
        }
    }
}

const OP_HELLO: u8 = 0x01;
const OP_READ: u8 = 0x02;
const OP_WRITE: u8 = 0x03;
const OP_WRITE_BATCH: u8 = 0x04;
const OP_FLUSH: u8 = 0x05;
const OP_RECOVER: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_INJECT: u8 = 0x08;

const RE_HELLO_OK: u8 = 0x81;
const RE_READ_OK: u8 = 0x82;
const RE_WRITE_OK: u8 = 0x83;
const RE_BATCH_OK: u8 = 0x84;
const RE_FLUSH_OK: u8 = 0x85;
const RE_RECOVER_OK: u8 = 0x86;
const RE_STATS_OK: u8 = 0x87;
const RE_INJECT_OK: u8 = 0x88;
const RE_ERR: u8 = 0xE0;

const INJ_CORRUPT: u8 = 1;
const INJ_TRANSIENT: u8 = 2;
const INJ_STALL: u8 = 3;
const INJ_RECOVERY_STALL: u8 = 4;

const ERR_BAD_FRAME: u8 = 1;
const ERR_AUTH: u8 = 2;
const ERR_BAD_REQUEST: u8 = 3;
const ERR_DEADLINE: u8 = 4;
const ERR_OVERLOADED: u8 = 5;
const ERR_CIRCUIT: u8 = 6;
const ERR_DEGRADED: u8 = 7;
const ERR_INTEGRITY: u8 = 8;
const ERR_UNAVAILABLE: u8 = 9;
const ERR_INTERNAL: u8 = 10;

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello {
                version,
                tenant,
                token,
            } => {
                let mut e = Enc::new(OP_HELLO);
                e.u32(*version);
                e.str(tenant);
                e.u64(*token);
                e.buf
            }
            Request::Read { addr, deadline_ms } => {
                let mut e = Enc::new(OP_READ);
                e.u64(*addr);
                e.u32(*deadline_ms);
                e.buf
            }
            Request::Write {
                addr,
                deadline_ms,
                data,
            } => {
                let mut e = Enc::new(OP_WRITE);
                e.u64(*addr);
                e.u32(*deadline_ms);
                e.bytes(data);
                e.buf
            }
            Request::WriteBatch { deadline_ms, items } => {
                let mut e = Enc::new(OP_WRITE_BATCH);
                e.u32(*deadline_ms);
                e.u32(items.len() as u32);
                for (addr, data) in items {
                    e.u64(*addr);
                    e.bytes(data);
                }
                e.buf
            }
            Request::Flush => Enc::new(OP_FLUSH).buf,
            Request::Recover => Enc::new(OP_RECOVER).buf,
            Request::Stats => Enc::new(OP_STATS).buf,
            Request::Inject(inj) => {
                let mut e = Enc::new(OP_INJECT);
                match inj {
                    Inject::CorruptLine { addr, bit } => {
                        e.u8(INJ_CORRUPT);
                        e.u64(*addr);
                        e.u32(*bit);
                    }
                    Inject::TransientFaults { count } => {
                        e.u8(INJ_TRANSIENT);
                        e.u32(*count);
                    }
                    Inject::Stall { ms } => {
                        e.u8(INJ_STALL);
                        e.u32(*ms);
                    }
                    Inject::RecoveryStall { ms } => {
                        e.u8(INJ_RECOVERY_STALL);
                        e.u32(*ms);
                    }
                }
                e.buf
            }
        }
    }

    /// Parses a frame payload into a request.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for every structural defect.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let req = match op {
            OP_HELLO => Request::Hello {
                version: d.u32()?,
                tenant: d.str()?,
                token: d.u64()?,
            },
            OP_READ => Request::Read {
                addr: d.u64()?,
                deadline_ms: d.u32()?,
            },
            OP_WRITE => Request::Write {
                addr: d.u64()?,
                deadline_ms: d.u32()?,
                data: d.block()?,
            },
            OP_WRITE_BATCH => {
                let deadline_ms = d.u32()?;
                let count = d.u32()? as usize;
                // Cap items by what the payload can actually hold so a
                // forged count cannot trigger a huge allocation.
                if count > payload.len() / 72 + 1 {
                    return Err(ProtoError::Malformed("batch count exceeds payload"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    let addr = d.u64()?;
                    let data = d.block()?;
                    items.push((addr, data));
                }
                Request::WriteBatch { deadline_ms, items }
            }
            OP_FLUSH => Request::Flush,
            OP_RECOVER => Request::Recover,
            OP_STATS => Request::Stats,
            OP_INJECT => {
                let kind = d.u8()?;
                let inj = match kind {
                    INJ_CORRUPT => Inject::CorruptLine {
                        addr: d.u64()?,
                        bit: d.u32()?,
                    },
                    INJ_TRANSIENT => Inject::TransientFaults { count: d.u32()? },
                    INJ_STALL => Inject::Stall { ms: d.u32()? },
                    INJ_RECOVERY_STALL => Inject::RecoveryStall { ms: d.u32()? },
                    _ => return Err(ProtoError::Malformed("unknown inject kind")),
                };
                Request::Inject(inj)
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        d.done()?;
        Ok(req)
    }
}

fn encode_stats(e: &mut Enc, s: &TenantStats) {
    e.u8(s.mode);
    e.u64(s.inflight);
    e.u64(s.reads_total);
    e.u64(s.writes_acked_total);
    e.u64(s.rejected_overload);
    e.u64(s.rejected_circuit);
    e.u64(s.rejected_deadline);
    e.u64(s.degraded_writes);
    e.u64(s.degraded_reads);
    e.u64(s.recoveries);
    e.u64(s.retries_total);
    e.u64(s.breaker_trips);
    e.u64(s.quarantined_blocks);
    e.str(&s.last_outcome);
}

fn decode_stats(d: &mut Dec<'_>) -> Result<TenantStats, ProtoError> {
    Ok(TenantStats {
        mode: d.u8()?,
        inflight: d.u64()?,
        reads_total: d.u64()?,
        writes_acked_total: d.u64()?,
        rejected_overload: d.u64()?,
        rejected_circuit: d.u64()?,
        rejected_deadline: d.u64()?,
        degraded_writes: d.u64()?,
        degraded_reads: d.u64()?,
        recoveries: d.u64()?,
        retries_total: d.u64()?,
        breaker_trips: d.u64()?,
        quarantined_blocks: d.u64()?,
        last_outcome: d.str()?,
    })
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::HelloOk { session, mode } => {
                let mut e = Enc::new(RE_HELLO_OK);
                e.u64(*session);
                e.u8(mode.code());
                e.buf
            }
            Response::ReadOk { data, mode } => {
                let mut e = Enc::new(RE_READ_OK);
                e.bytes(data);
                e.u8(mode.code());
                e.buf
            }
            Response::WriteOk => Enc::new(RE_WRITE_OK).buf,
            Response::BatchOk { written } => {
                let mut e = Enc::new(RE_BATCH_OK);
                e.u32(*written);
                e.buf
            }
            Response::FlushOk => Enc::new(RE_FLUSH_OK).buf,
            Response::RecoverOk { outcome } => {
                let mut e = Enc::new(RE_RECOVER_OK);
                e.str(outcome);
                e.buf
            }
            Response::StatsOk(s) => {
                let mut e = Enc::new(RE_STATS_OK);
                encode_stats(&mut e, s);
                e.buf
            }
            Response::InjectOk => Enc::new(RE_INJECT_OK).buf,
            Response::Err(err) => {
                let mut e = Enc::new(RE_ERR);
                match err {
                    ServeError::BadFrame { detail } => {
                        e.u8(ERR_BAD_FRAME);
                        e.str(detail);
                    }
                    ServeError::AuthFailed => e.u8(ERR_AUTH),
                    ServeError::BadRequest { detail } => {
                        e.u8(ERR_BAD_REQUEST);
                        e.str(detail);
                    }
                    ServeError::DeadlineExceeded { budget_ms } => {
                        e.u8(ERR_DEADLINE);
                        e.u32(*budget_ms);
                    }
                    ServeError::Overloaded { retry_after_ms } => {
                        e.u8(ERR_OVERLOADED);
                        e.u32(*retry_after_ms);
                    }
                    ServeError::CircuitOpen { retry_after_ms } => {
                        e.u8(ERR_CIRCUIT);
                        e.u32(*retry_after_ms);
                    }
                    ServeError::Degraded { mode } => {
                        e.u8(ERR_DEGRADED);
                        e.u8(mode.code());
                    }
                    ServeError::Integrity { detail } => {
                        e.u8(ERR_INTEGRITY);
                        e.str(detail);
                    }
                    ServeError::Unavailable { detail } => {
                        e.u8(ERR_UNAVAILABLE);
                        e.str(detail);
                    }
                    ServeError::Internal { detail } => {
                        e.u8(ERR_INTERNAL);
                        e.str(detail);
                    }
                }
                e.buf
            }
        }
    }

    /// Parses a frame payload into a response.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] for every structural defect.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let resp = match op {
            RE_HELLO_OK => Response::HelloOk {
                session: d.u64()?,
                mode: ServeMode::from_code(d.u8()?)?,
            },
            RE_READ_OK => Response::ReadOk {
                data: d.block()?,
                mode: ServeMode::from_code(d.u8()?)?,
            },
            RE_WRITE_OK => Response::WriteOk,
            RE_BATCH_OK => Response::BatchOk { written: d.u32()? },
            RE_FLUSH_OK => Response::FlushOk,
            RE_RECOVER_OK => Response::RecoverOk { outcome: d.str()? },
            RE_STATS_OK => Response::StatsOk(decode_stats(&mut d)?),
            RE_INJECT_OK => Response::InjectOk,
            RE_ERR => {
                let code = d.u8()?;
                let err = match code {
                    ERR_BAD_FRAME => ServeError::BadFrame { detail: d.str()? },
                    ERR_AUTH => ServeError::AuthFailed,
                    ERR_BAD_REQUEST => ServeError::BadRequest { detail: d.str()? },
                    ERR_DEADLINE => ServeError::DeadlineExceeded {
                        budget_ms: d.u32()?,
                    },
                    ERR_OVERLOADED => ServeError::Overloaded {
                        retry_after_ms: d.u32()?,
                    },
                    ERR_CIRCUIT => ServeError::CircuitOpen {
                        retry_after_ms: d.u32()?,
                    },
                    ERR_DEGRADED => ServeError::Degraded {
                        mode: ServeMode::from_code(d.u8()?)?,
                    },
                    ERR_INTEGRITY => ServeError::Integrity { detail: d.str()? },
                    ERR_UNAVAILABLE => ServeError::Unavailable { detail: d.str()? },
                    ERR_INTERNAL => ServeError::Internal { detail: d.str()? },
                    _ => return Err(ProtoError::Malformed("unknown error code")),
                };
                Response::Err(err)
            }
            other => return Err(ProtoError::UnknownOpcode(other)),
        };
        d.done()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------

/// Writes one frame (header + payload + checksum) to `w`.
///
/// # Errors
///
/// Propagates transport I/O failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut head = [0u8; HEADER_BYTES];
    head[..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&fnv1a64(payload).to_le_bytes())?;
    w.flush()
}

/// What [`read_frame`] observed on the stream.
pub enum FrameEvent {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed (or stayed silent past the idle budget) without
    /// starting a frame — a clean end of conversation.
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads exactly `buf.len()` bytes, tolerating read-timeout ticks up to
/// `stall_budget` of *cumulative silence*, so a stalled peer surfaces as
/// [`ProtoError::TimedOutMidFrame`] instead of a hang. `had_bytes` says
/// whether the frame already started (affects Truncated vs Closed).
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stall_budget: Duration,
    stop: &dyn Fn() -> bool,
) -> Result<usize, ProtoError> {
    let mut filled = 0usize;
    let mut silent_since = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => {
                filled += n;
                silent_since = Instant::now();
            }
            Err(e) if is_timeout(&e) => {
                if stop() {
                    return Ok(filled);
                }
                if silent_since.elapsed() > stall_budget {
                    return Err(ProtoError::TimedOutMidFrame);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads one frame from `stream`, which must have a read timeout set
/// (the timeout is the polling tick; budgets are enforced here).
///
/// * `max_len` — maximum accepted payload length.
/// * `idle_budget` — how long the peer may be silent *before the first
///   byte* of a frame; exceeding it returns [`FrameEvent::Closed`].
/// * `stall_budget` — how long the peer may be silent *mid-frame*;
///   exceeding it is the slowloris guard, [`ProtoError::TimedOutMidFrame`].
/// * `stop` — cooperative shutdown check polled on every tick.
///
/// # Errors
///
/// Every connection-layer fault maps to a typed [`ProtoError`].
pub fn read_frame(
    stream: &mut TcpStream,
    max_len: u32,
    idle_budget: Duration,
    stall_budget: Duration,
    stop: &dyn Fn() -> bool,
) -> Result<FrameEvent, ProtoError> {
    // Phase 1: wait for the first header byte within the idle budget.
    let mut head = [0u8; HEADER_BYTES];
    let idle_since = Instant::now();
    let mut got = 0usize;
    while got == 0 {
        match stream.read(&mut head) {
            Ok(0) => return Ok(FrameEvent::Closed),
            Ok(n) => got = n,
            Err(e) if is_timeout(&e) => {
                if stop() || idle_since.elapsed() > idle_budget {
                    return Ok(FrameEvent::Closed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    // Phase 2: the frame has started; everything else is on the clock.
    let n = read_full(stream, &mut head[got..], stall_budget, stop)?;
    if got + n < HEADER_BYTES {
        return Err(ProtoError::Truncated);
    }
    let magic = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > max_len {
        return Err(ProtoError::Oversize { len, max: max_len });
    }
    let mut body = vec![0u8; len as usize + TRAILER_BYTES];
    let n = read_full(stream, &mut body, stall_budget, stop)?;
    if n < body.len() {
        return Err(ProtoError::Truncated);
    }
    let payload = body[..len as usize].to_vec();
    let got_crc = u64::from_le_bytes(
        body[len as usize..]
            .try_into()
            .map_err(|_| ProtoError::Truncated)?,
    );
    let want_crc = fnv1a64(&payload);
    if got_crc != want_crc {
        return Err(ProtoError::BadChecksum {
            got: got_crc,
            want: want_crc,
        });
    }
    Ok(FrameEvent::Payload(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = req.encode();
        let dec = Request::decode(&enc).expect("decode");
        assert_eq!(req, dec);
    }

    fn roundtrip_resp(resp: Response) {
        let enc = resp.encode();
        let dec = Response::decode(&enc).expect("decode");
        assert_eq!(resp, dec);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTO_VERSION,
            tenant: "tenant-0".into(),
            token: token_hash("hunter2"),
        });
        roundtrip_req(Request::Read {
            addr: 7,
            deadline_ms: 25,
        });
        roundtrip_req(Request::Write {
            addr: 9,
            deadline_ms: 0,
            data: [0xAB; 64],
        });
        roundtrip_req(Request::WriteBatch {
            deadline_ms: 5,
            items: vec![(1, [1; 64]), (2, [2; 64]), (3, [3; 64])],
        });
        roundtrip_req(Request::Flush);
        roundtrip_req(Request::Recover);
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Inject(Inject::CorruptLine { addr: 3, bit: 77 }));
        roundtrip_req(Request::Inject(Inject::TransientFaults { count: 2 }));
        roundtrip_req(Request::Inject(Inject::Stall { ms: 50 }));
        roundtrip_req(Request::Inject(Inject::RecoveryStall { ms: 120 }));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloOk {
            session: 42,
            mode: ServeMode::Full,
        });
        roundtrip_resp(Response::ReadOk {
            data: [9; 64],
            mode: ServeMode::ReadOnly,
        });
        roundtrip_resp(Response::WriteOk);
        roundtrip_resp(Response::BatchOk { written: 17 });
        roundtrip_resp(Response::FlushOk);
        roundtrip_resp(Response::RecoverOk {
            outcome: "recovered".into(),
        });
        roundtrip_resp(Response::StatsOk(TenantStats {
            mode: 1,
            inflight: 2,
            reads_total: 3,
            writes_acked_total: 4,
            rejected_overload: 5,
            rejected_circuit: 6,
            rejected_deadline: 7,
            degraded_writes: 8,
            degraded_reads: 9,
            recoveries: 10,
            retries_total: 11,
            breaker_trips: 12,
            quarantined_blocks: 13,
            last_outcome: "degraded (repaired 1, rebuilt 2)".into(),
        }));
        roundtrip_resp(Response::InjectOk);
        for err in [
            ServeError::BadFrame { detail: "x".into() },
            ServeError::AuthFailed,
            ServeError::BadRequest { detail: "y".into() },
            ServeError::DeadlineExceeded { budget_ms: 5 },
            ServeError::Overloaded { retry_after_ms: 9 },
            ServeError::CircuitOpen { retry_after_ms: 11 },
            ServeError::Degraded {
                mode: ServeMode::ReadOnly,
            },
            ServeError::Integrity {
                detail: "node".into(),
            },
            ServeError::Unavailable {
                detail: "gone".into(),
            },
            ServeError::Internal {
                detail: "bug".into(),
            },
        ] {
            roundtrip_resp(Response::Err(err));
        }
    }

    #[test]
    fn truncated_payloads_are_typed() {
        let enc = Request::Write {
            addr: 1,
            deadline_ms: 2,
            data: [7; 64],
        }
        .encode();
        for cut in 1..enc.len() {
            let err = Request::decode(&enc[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail decode");
        }
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtoError::UnknownOpcode(0x7F))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Request::Flush.encode();
        enc.push(0);
        assert!(matches!(
            Request::decode(&enc),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn forged_batch_count_rejected_without_allocation() {
        let mut e = vec![OP_WRITE_BATCH];
        e.extend_from_slice(&0u32.to_le_bytes());
        e.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Request::decode(&e), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(ServeError::AuthFailed.kind(), "auth_failed");
        assert_eq!(
            ServeError::Overloaded { retry_after_ms: 1 }.kind(),
            "overloaded"
        );
        assert_eq!(
            ServeError::Degraded {
                mode: ServeMode::ReadOnly
            }
            .kind(),
            "degraded"
        );
    }
}
