//! The length-prefixed binary wire protocol of the networked serving
//! tier.
//!
//! Everything the tier sends — requests, responses, errors, training
//! specs — travels as **frames** over any `Read`/`Write` byte stream
//! (TCP sockets for the front end, stdin/stdout pipes for shard worker
//! processes). The protocol is std-only and self-contained: no serde, no
//! crates.io.
//!
//! ## Frame format
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 4 | `len` | `u32` little-endian, length of everything after it |
//! | 1 | `tag` | message discriminant (see [`Message`]) |
//! | `len - 1` | payload | message-specific body |
//!
//! A reader enforces a frame cap *before* allocating: a `len` above the
//! cap is [`WireError::Oversized`] and the frame body is never read. EOF
//! cleanly between frames is [`WireError::Closed`]; EOF inside a frame is
//! an I/O error. Any byte-level mismatch while decoding a payload is
//! [`WireError::Malformed`] with the offset and what was expected —
//! malformed input produces typed errors, never panics.
//!
//! ## Value encoding
//!
//! All integers are little-endian; counts and lengths are `u32`. Floats
//! travel as their raw IEEE-754 bits (`f64::to_bits`, little-endian) —
//! the binary twin of the snapshot codec's 16-hex-digit discipline — so
//! every NaN payload, `-0.0` and subnormal round-trips **bit-exactly**.
//! Strings are `u32` length + UTF-8 bytes. Constraint ASTs and temporal
//! update functions reuse the exact text codec of [`crate::codec`] as
//! length-prefixed strings, so the wire inherits its bit-exactness
//! guarantees (and its decoder's typed failure modes).
//!
//! ## Determinism contract
//!
//! Encoding is a pure function of the value: the same `ServeRequest` or
//! [`WireResponse`] always encodes to the same bytes, on every process,
//! platform and thread count. [`WireResponse`] deliberately carries the
//! *shard-count-independent* part of a [`crate::ServeReport`] (totals,
//! not the per-shard breakdown), so a response served by 1, 2 or 4 shard
//! processes encodes to **identical bytes** — the property
//! `tests/determinism.rs` locks down across the whole networked tier.
//!
//! ## Lossy error mapping
//!
//! [`crate::ServeError`] round-trips structurally except for nested
//! database errors, which are carried as their rendered message and
//! decode as `DbError::Eval(message)` — the variant identity of a remote
//! engine internal is not load-bearing, the message is. Encoding a
//! decoded error re-produces identical bytes.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{
    CohortMember, ReturningMember, ServeError, ServeRequest, ServeResponse,
};
use crate::codec;
use crate::store::StoreError;
use crate::supervisor::{DataSpec, TrainSpec};
use jit_constraints::{ConstraintSet, TimeScope};
use jit_core::{
    AdminConfig, BatchParallelism, Candidate, CandidateParams, Objective,
    ReturningUser, SessionError, SessionSnapshot, TimePointServe, UserRequest,
};
use jit_data::FeatureSchema;
use jit_math::digest::Digest;
use jit_ml::threshold::ThresholdPolicy;
use jit_ml::RandomForestParams;
use jit_temporal::future::{FutureModelsParams, FuturePredictor};
use jit_temporal::herding::HerdingParams;
use std::fmt;
use std::io::{Read, Write};

/// Default frame cap: generous for cohort responses, small enough that a
/// corrupt length prefix cannot drive a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Everything frame I/O and payload decoding can fail with.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(std::io::Error),
    /// A frame declared a length above the reader's cap; the body was
    /// not read.
    Oversized {
        /// The declared frame length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// A payload failed to decode.
    Malformed {
        /// Byte offset into the frame body.
        offset: usize,
        /// What the decoder expected there.
        expected: &'static str,
    },
    /// The peer closed the stream cleanly between frames.
    Closed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed { offset, expected } => {
                write!(f, "malformed frame: expected {expected} at byte {offset}")
            }
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for ServeError {
    /// Transport-level failures surface to callers as the typed
    /// [`ServeError::Transport`] variant.
    fn from(e: WireError) -> Self {
        // jit-analyze: allow(no-lossy-float-fmt) — error text for humans; no float payload crosses here
        ServeError::Transport(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Writes one frame (`len` prefix + `body`) as a single `write_all`,
/// then flushes.
///
/// One write per frame is deliberate and not configurable: a separate
/// write for the 4-byte prefix lets Nagle's algorithm hold the body
/// back until the peer ACKs the prefix, and a peer that delays its ACKs
/// adds ~40 ms to every frame. (The TCP front end also sets
/// `TCP_NODELAY` on its sockets — see [`crate::net`].)
///
/// # Errors
/// [`WireError::Oversized`] when `body` exceeds `max` (nothing is
/// written), or the underlying I/O error.
pub fn write_frame(
    w: &mut impl Write,
    body: &[u8],
    max: usize,
) -> Result<(), WireError> {
    if body.len() > max || body.len() > u32::MAX as usize {
        return Err(WireError::Oversized { len: body.len(), max });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame body, enforcing the `max` cap before allocating.
///
/// # Errors
/// [`WireError::Closed`] on clean EOF before any length byte,
/// [`WireError::Oversized`] for a declared length above `max` (the body
/// is not consumed), or I/O errors (EOF mid-frame included).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Err(WireError::Closed),
            0 => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

// ---------------------------------------------------------------------
// Primitive value codecs
// ---------------------------------------------------------------------

/// Append-only encoder for frame bodies.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
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

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Raw IEEE-754 bits, little-endian: bit-exact for every payload.
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn digest(&mut self, d: Digest) {
        self.u64(d.0[0]);
        self.u64(d.0[1]);
    }

    fn count(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize);
        self.u32(n as u32);
    }

    fn vec_f64(&mut self, v: &[f64]) {
        self.count(v.len());
        for x in v {
            self.f64(*x);
        }
    }
}

/// Cursor-based decoder over a frame body; every failure carries the
/// byte offset and what was expected.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over a full frame body.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn err(&self, expected: &'static str) -> WireError {
        WireError::Malformed { offset: self.pos, expected }
    }

    fn take(
        &mut self,
        n: usize,
        expected: &'static str,
    ) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.bytes.len() {
            return Err(self.err(expected));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, expected: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, expected)?[0])
    }

    fn u32(&mut self, expected: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, expected)?;
        let a: [u8; 4] = b.try_into().map_err(|_| self.err(expected))?;
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self, expected: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, expected)?;
        let a: [u8; 8] = b.try_into().map_err(|_| self.err(expected))?;
        Ok(u64::from_le_bytes(a))
    }

    fn usize(&mut self, expected: &'static str) -> Result<usize, WireError> {
        let v = self.u64(expected)?;
        usize::try_from(v).map_err(|_| self.err(expected))
    }

    fn bool(&mut self, expected: &'static str) -> Result<bool, WireError> {
        match self.u8(expected)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => {
                self.pos -= 1;
                Err(self.err(expected))
            }
        }
    }

    fn f64(&mut self, expected: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(expected)?))
    }

    fn str(&mut self, expected: &'static str) -> Result<String, WireError> {
        let len = self.u32(expected)? as usize;
        let bytes = self.take(len, expected)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            offset: self.pos - len,
            expected: "utf-8 string",
        })
    }

    fn digest(&mut self, expected: &'static str) -> Result<Digest, WireError> {
        Ok(Digest([self.u64(expected)?, self.u64(expected)?]))
    }

    fn count(&mut self, expected: &'static str) -> Result<usize, WireError> {
        Ok(self.u32(expected)? as usize)
    }

    fn vec_f64(&mut self, expected: &'static str) -> Result<Vec<f64>, WireError> {
        let n = self.count(expected)?;
        // Cap preallocation by what the remaining bytes can actually
        // hold, so a lying count cannot drive a huge allocation.
        let mut out = Vec::with_capacity(n.min(self.bytes.len() / 8 + 1));
        for _ in 0..n {
            out.push(self.f64(expected)?);
        }
        Ok(out)
    }

    /// `true` when every byte was consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn finish(self, expected: &'static str) -> Result<(), WireError> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }
}

// ---------------------------------------------------------------------
// Domain value codecs
// ---------------------------------------------------------------------

fn encode_user_request(w: &mut Writer, request: &UserRequest) {
    w.vec_f64(&request.profile);
    let items = request.constraints.items();
    w.count(items.len());
    for item in items {
        match item.scope {
            TimeScope::AllTimes => w.u8(0),
            TimeScope::At(t) => {
                w.u8(1);
                w.usize(t);
            }
            TimeScope::Between(lo, hi) => {
                w.u8(2);
                w.usize(lo);
                w.usize(hi);
            }
        }
        w.str(&codec::encode_constraint(&item.constraint));
    }
    w.str(&codec::encode_update_fn(request.update_fn.as_ref()));
}

fn decode_user_request(
    r: &mut Reader<'_>,
    schema: &FeatureSchema,
) -> Result<UserRequest, WireError> {
    let profile = r.vec_f64("profile")?;
    let n = r.count("constraint count")?;
    let mut constraints = ConstraintSet::new();
    for _ in 0..n {
        let scope = r.u8("constraint scope tag")?;
        let (lo, hi) = match scope {
            0 => (0, 0),
            1 => {
                let t = r.usize("scope time")?;
                (t, t)
            }
            2 => (r.usize("scope lo")?, r.usize("scope hi")?),
            _ => {
                r.pos -= 1;
                return Err(r.err("constraint scope tag"));
            }
        };
        let blob = r.str("constraint blob")?;
        let constraint = codec::decode_constraint(&blob)
            .map_err(|_| r.err("decodable constraint blob"))?;
        match scope {
            0 => constraints.add(constraint),
            1 => constraints.add_at(lo, constraint),
            _ => {
                if lo > hi {
                    return Err(r.err("ordered scope range"));
                }
                constraints.add_between(lo, hi, constraint)
            }
        };
    }
    let update_blob = r.str("update-fn blob")?;
    let update_fn = codec::decode_update_fn(&update_blob, schema)
        .map_err(|_| r.err("decodable update-fn blob"))?;
    Ok(UserRequest { profile, constraints, update_fn })
}

fn encode_snapshot(w: &mut Writer, snapshot: &SessionSnapshot) {
    encode_user_request(w, &snapshot.request);
    let inputs = snapshot.temporal_inputs();
    w.count(inputs.len());
    for row in inputs {
        w.vec_f64(row);
    }
    let candidates = snapshot.candidates();
    w.count(candidates.len());
    for c in candidates {
        w.usize(c.time_index);
        w.vec_f64(&c.profile);
        w.f64(c.diff);
        w.usize(c.gap);
        w.f64(c.confidence);
    }
    let fingerprints = snapshot.fingerprints();
    w.count(fingerprints.len());
    for fp in fingerprints {
        match fp {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                w.digest(*d);
            }
        }
    }
}

fn decode_snapshot(
    r: &mut Reader<'_>,
    schema: &FeatureSchema,
) -> Result<SessionSnapshot, WireError> {
    let request = decode_user_request(r, schema)?;
    let n_inputs = r.count("temporal input count")?;
    let mut temporal_inputs = Vec::with_capacity(n_inputs.min(1024));
    for _ in 0..n_inputs {
        temporal_inputs.push(r.vec_f64("temporal input")?);
    }
    let n_candidates = r.count("candidate count")?;
    let mut candidates = Vec::with_capacity(n_candidates.min(1024));
    for _ in 0..n_candidates {
        candidates.push(Candidate {
            time_index: r.usize("candidate time index")?,
            profile: r.vec_f64("candidate profile")?,
            diff: r.f64("candidate diff")?,
            gap: r.usize("candidate gap")?,
            confidence: r.f64("candidate confidence")?,
        });
    }
    let n_fps = r.count("fingerprint count")?;
    let mut fingerprints = Vec::with_capacity(n_fps.min(1024));
    for _ in 0..n_fps {
        fingerprints.push(match r.u8("fingerprint tag")? {
            0 => None,
            1 => Some(r.digest("fingerprint digest")?),
            _ => {
                r.pos -= 1;
                return Err(r.err("fingerprint tag"));
            }
        });
    }
    SessionSnapshot::from_parts(request, temporal_inputs, candidates, fingerprints)
        .ok_or(WireError::Malformed {
            offset: 0,
            expected: "internally consistent snapshot shape",
        })
}

/// A snapshot's canonical wire bytes, exactly as they travel inside a
/// `Returning` request or a response (the durable store persists them).
pub(crate) fn snapshot_to_bytes(snapshot: &SessionSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    encode_snapshot(&mut w, snapshot);
    w.into_bytes()
}

/// Decodes [`snapshot_to_bytes`] output. Every byte must be consumed, so
/// a truncated encoding and one with trailing bytes are both refused.
pub(crate) fn snapshot_from_bytes(
    bytes: &[u8],
    schema: &FeatureSchema,
) -> Result<SessionSnapshot, WireError> {
    let mut r = Reader::new(bytes);
    let snapshot = decode_snapshot(&mut r, schema)?;
    r.finish("end of snapshot")?;
    Ok(snapshot)
}

/// Encodes a [`ServeRequest`] body (without frame or message tag).
pub fn encode_request(w: &mut Writer, request: &ServeRequest) {
    match request {
        ServeRequest::NewUser(m) => {
            w.u8(0);
            w.str(&m.user_id);
            encode_user_request(w, &m.request);
        }
        ServeRequest::Batch(ms) => {
            w.u8(1);
            w.count(ms.len());
            for m in ms {
                w.str(&m.user_id);
                encode_user_request(w, &m.request);
            }
        }
        ServeRequest::Returning(ms) => {
            w.u8(2);
            w.count(ms.len());
            for m in ms {
                w.str(&m.user_id);
                encode_user_request(w, &m.returning.request);
                encode_snapshot(w, &m.returning.prior);
            }
        }
        ServeRequest::Refresh(ids) => {
            w.u8(3);
            w.count(ids.len());
            for id in ids {
                w.str(id);
            }
        }
    }
}

/// Decodes a [`ServeRequest`] body.
///
/// # Errors
/// [`WireError::Malformed`] on any byte-level mismatch; never panics.
pub fn decode_request(
    r: &mut Reader<'_>,
    schema: &FeatureSchema,
) -> Result<ServeRequest, WireError> {
    match r.u8("request tag")? {
        0 => {
            let user_id = r.str("user id")?;
            let request = decode_user_request(r, schema)?;
            Ok(ServeRequest::NewUser(CohortMember { user_id, request }))
        }
        1 => {
            let n = r.count("batch count")?;
            let mut ms = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let user_id = r.str("user id")?;
                let request = decode_user_request(r, schema)?;
                ms.push(CohortMember { user_id, request });
            }
            Ok(ServeRequest::Batch(ms))
        }
        2 => {
            let n = r.count("returning count")?;
            let mut ms = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let user_id = r.str("user id")?;
                let request = decode_user_request(r, schema)?;
                let prior = decode_snapshot(r, schema)?;
                ms.push(ReturningMember {
                    user_id,
                    returning: ReturningUser { request, prior },
                });
            }
            Ok(ServeRequest::Returning(ms))
        }
        3 => {
            let n = r.count("refresh count")?;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(r.str("user id")?);
            }
            Ok(ServeRequest::Refresh(ids))
        }
        _ => {
            r.pos -= 1;
            Err(r.err("request tag"))
        }
    }
}

/// One served user in a [`WireResponse`]: the owned twin of
/// [`crate::ServedUser`], carrying the session **snapshot** (the
/// system-independent value the store persists) instead of the
/// system-borrowing live session.
#[derive(Clone, Debug)]
pub struct WireServedUser {
    /// The id the session was served under.
    pub user_id: String,
    /// The served session as an owned snapshot.
    pub snapshot: SessionSnapshot,
    /// Per-time-point replay/recompute provenance (`None` for cold
    /// serves, mirroring [`jit_core::UserSession::reserve_report`]).
    pub provenance: Option<Vec<TimePointServe>>,
}

/// The shard-count-independent totals of a [`crate::ServeReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Users served.
    pub users: usize,
    /// Time points replayed from snapshots.
    pub replayed_time_points: usize,
    /// Time points recomputed under drift.
    pub recomputed_time_points: usize,
    /// Time points computed cold.
    pub cold_time_points: usize,
}

/// The owned, wire-encodable serving response.
///
/// Deliberately drops the per-shard report breakdown: totals are
/// shard-count-invariant, so the encoded bytes of a response are
/// identical whether 1, 2 or 4 shards (in-process or OS processes)
/// served it — the determinism bar of the networked tier.
#[derive(Clone, Debug, Default)]
pub struct WireResponse {
    /// One entry per requested user, in request order.
    pub users: Vec<WireServedUser>,
    /// Aggregate totals.
    pub report: WireReport,
}

impl WireResponse {
    /// Snapshots a borrowed [`ServeResponse`] into its owned wire form.
    pub fn from_response(response: &ServeResponse<'_>) -> Self {
        WireResponse {
            users: response
                .users
                .iter()
                .map(|u| WireServedUser {
                    user_id: u.user_id.clone(),
                    snapshot: u.session.snapshot(),
                    provenance: u.session.reserve_report().map(<[_]>::to_vec),
                })
                .collect(),
            report: WireReport {
                users: response.report.users,
                replayed_time_points: response.report.replayed_time_points,
                recomputed_time_points: response.report.recomputed_time_points,
                cold_time_points: response.report.cold_time_points,
            },
        }
    }
}

/// Encodes a [`WireResponse`] body.
pub fn encode_response(w: &mut Writer, response: &WireResponse) {
    w.count(response.users.len());
    for user in &response.users {
        w.str(&user.user_id);
        encode_snapshot(w, &user.snapshot);
        match &user.provenance {
            None => w.u8(0),
            Some(report) => {
                w.u8(1);
                w.count(report.len());
                for served in report {
                    w.u8(match served {
                        TimePointServe::Replayed => 0,
                        TimePointServe::Recomputed => 1,
                    });
                }
            }
        }
    }
    w.usize(response.report.users);
    w.usize(response.report.replayed_time_points);
    w.usize(response.report.recomputed_time_points);
    w.usize(response.report.cold_time_points);
}

/// Decodes a [`WireResponse`] body.
///
/// # Errors
/// [`WireError::Malformed`] on any byte-level mismatch; never panics.
pub fn decode_response(
    r: &mut Reader<'_>,
    schema: &FeatureSchema,
) -> Result<WireResponse, WireError> {
    let n = r.count("served user count")?;
    let mut users = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let user_id = r.str("user id")?;
        let snapshot = decode_snapshot(r, schema)?;
        let provenance = match r.u8("provenance tag")? {
            0 => None,
            1 => {
                let n = r.count("provenance count")?;
                let mut report = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    report.push(match r.u8("provenance entry")? {
                        0 => TimePointServe::Replayed,
                        1 => TimePointServe::Recomputed,
                        _ => {
                            r.pos -= 1;
                            return Err(r.err("provenance entry"));
                        }
                    });
                }
                Some(report)
            }
            _ => {
                r.pos -= 1;
                return Err(r.err("provenance tag"));
            }
        };
        users.push(WireServedUser { user_id, snapshot, provenance });
    }
    let report = WireReport {
        users: r.usize("report users")?,
        replayed_time_points: r.usize("report replayed")?,
        recomputed_time_points: r.usize("report recomputed")?,
        cold_time_points: r.usize("report cold")?,
    };
    Ok(WireResponse { users, report })
}

/// Encodes a [`ServeError`] body. Nested database errors are carried as
/// their rendered message (see the module docs on the lossy mapping).
pub fn encode_error(w: &mut Writer, error: &ServeError) {
    match error {
        ServeError::EmptyBatch => w.u8(0),
        ServeError::DuplicateUser(id) => {
            w.u8(1);
            w.str(id);
        }
        ServeError::UnknownUser(id) => {
            w.u8(2);
            w.str(id);
        }
        ServeError::Session { user_id, error } => {
            w.u8(3);
            w.str(user_id);
            match error {
                SessionError::DimensionMismatch { expected, found } => {
                    w.u8(0);
                    w.usize(*expected);
                    w.usize(*found);
                }
                SessionError::UnknownFeature(name) => {
                    w.u8(1);
                    w.str(name);
                }
                SessionError::Db(e) => {
                    w.u8(2);
                    // jit-analyze: allow(no-lossy-float-fmt) — documented lossy error mapping: DbError crosses the wire as display text
                    w.str(&e.to_string());
                }
            }
        }
        ServeError::Store { user_id, error } => {
            w.u8(4);
            match user_id {
                None => w.u8(0),
                Some(id) => {
                    w.u8(1);
                    w.str(id);
                }
            }
            match error {
                StoreError::Db(e) => {
                    w.u8(0);
                    // jit-analyze: allow(no-lossy-float-fmt) — documented lossy error mapping: DbError crosses the wire as display text
                    w.str(&e.to_string());
                }
                StoreError::SchemaMismatch { expected, found } => {
                    w.u8(1);
                    w.digest(*expected);
                    w.digest(*found);
                }
                StoreError::Corrupt { user_id, detail } => {
                    w.u8(2);
                    w.str(user_id);
                    w.str(detail);
                }
                StoreError::Unavailable(why) => {
                    w.u8(3);
                    w.str(why);
                }
                StoreError::LayoutMismatch { expected, found } => {
                    w.u8(4);
                    w.str(expected);
                    w.str(found);
                }
            }
        }
        ServeError::Overloaded { capacity } => {
            w.u8(5);
            w.usize(*capacity);
        }
        ServeError::Shard { shard, user_id, detail } => {
            w.u8(6);
            w.usize(*shard);
            w.str(user_id);
            w.str(detail);
        }
        ServeError::Transport(detail) => {
            w.u8(7);
            w.str(detail);
        }
    }
}

/// Decodes a [`ServeError`] body.
///
/// # Errors
/// [`WireError::Malformed`] on any byte-level mismatch; never panics.
pub fn decode_error(r: &mut Reader<'_>) -> Result<ServeError, WireError> {
    Ok(match r.u8("error tag")? {
        0 => ServeError::EmptyBatch,
        1 => ServeError::DuplicateUser(r.str("user id")?),
        2 => ServeError::UnknownUser(r.str("user id")?),
        3 => {
            let user_id = r.str("user id")?;
            let error = match r.u8("session error tag")? {
                0 => SessionError::DimensionMismatch {
                    expected: r.usize("expected dimension")?,
                    found: r.usize("found dimension")?,
                },
                1 => SessionError::UnknownFeature(r.str("feature name")?),
                2 => SessionError::Db(jit_db::DbError::Eval(r.str("db message")?)),
                _ => {
                    r.pos -= 1;
                    return Err(r.err("session error tag"));
                }
            };
            ServeError::Session { user_id, error }
        }
        4 => {
            let user_id = match r.u8("store user tag")? {
                0 => None,
                1 => Some(r.str("user id")?),
                _ => {
                    r.pos -= 1;
                    return Err(r.err("store user tag"));
                }
            };
            let error = match r.u8("store error tag")? {
                0 => StoreError::Db(jit_db::DbError::Eval(r.str("db message")?)),
                1 => StoreError::SchemaMismatch {
                    expected: r.digest("expected digest")?,
                    found: r.digest("found digest")?,
                },
                2 => StoreError::Corrupt {
                    user_id: r.str("corrupt user id")?,
                    detail: r.str("corrupt detail")?,
                },
                3 => StoreError::Unavailable(r.str("unavailable reason")?),
                4 => StoreError::LayoutMismatch {
                    expected: r.str("expected layout")?,
                    found: r.str("found layout")?,
                },
                _ => {
                    r.pos -= 1;
                    return Err(r.err("store error tag"));
                }
            };
            ServeError::Store { user_id, error }
        }
        5 => ServeError::Overloaded { capacity: r.usize("queue capacity")? },
        6 => ServeError::Shard {
            shard: r.usize("shard index")?,
            user_id: r.str("user id")?,
            detail: r.str("shard detail")?,
        },
        7 => ServeError::Transport(r.str("transport detail")?),
        _ => {
            r.pos -= 1;
            return Err(r.err("error tag"));
        }
    })
}

// ---------------------------------------------------------------------
// Train-spec codec (supervisor handshake)
// ---------------------------------------------------------------------

fn encode_train_spec(w: &mut Writer, spec: &TrainSpec) {
    w.usize(spec.data.records_per_year);
    w.usize(spec.data.n_years);
    w.u64(spec.data.seed);
    let c = &spec.config;
    w.usize(c.horizon);
    w.u32(c.start_year);
    w.u32(c.period_years);
    let f = &c.future;
    w.usize(f.horizon);
    w.u8(match f.predictor {
        FuturePredictor::Edd => 0,
        FuturePredictor::ParamExtrapolation => 1,
        FuturePredictor::Frozen => 2,
    });
    w.usize(f.n_landmarks);
    w.f64(f.var_lambda);
    w.f64(f.herding.lambda);
    w.f64(f.herding.min_weight_fraction);
    w.usize(f.pool_slices);
    w.usize(f.forest.n_trees);
    w.usize(f.forest.max_depth);
    w.f64(f.forest.min_leaf_weight);
    match f.forest.feature_subsample {
        None => w.u8(0),
        Some(k) => {
            w.u8(1);
            w.usize(k);
        }
    }
    w.usize(f.forest.threads);
    match f.threshold {
        ThresholdPolicy::MaxF1 => w.u8(0),
        ThresholdPolicy::TargetPrecision(p) => {
            w.u8(1);
            w.f64(p);
        }
        ThresholdPolicy::Fixed(t) => {
            w.u8(2);
            w.f64(t);
        }
    }
    w.f64(f.calibration_fraction);
    w.u64(f.seed);
    w.usize(f.threads);
    let cand = &c.candidates;
    w.usize(cand.beam_width);
    w.usize(cand.max_iters);
    w.usize(cand.top_k);
    w.f64(cand.diversity_lambda);
    w.u8(match cand.objective {
        Objective::MinDiff => 0,
        Objective::MinGap => 1,
        Objective::MaxConfidence => 2,
    });
    w.usize(cand.max_moves_per_state);
    w.usize(cand.early_stop_after);
    w.bool(cand.refine);
    w.u64(cand.seed);
    w.bool(c.parallel_generators);
    w.usize(c.threads);
    w.usize(c.batch_threads);
    w.u8(match c.batch_parallelism {
        BatchParallelism::PerUser => 0,
        BatchParallelism::PerTimePoint => 1,
    });
}

fn decode_train_spec(r: &mut Reader<'_>) -> Result<TrainSpec, WireError> {
    let data = DataSpec {
        records_per_year: r.usize("records per year")?,
        n_years: r.usize("year count")?,
        seed: r.u64("data seed")?,
    };
    let horizon = r.usize("horizon")?;
    let start_year = r.u32("start year")?;
    let period_years = r.u32("period years")?;
    let future = FutureModelsParams {
        horizon: r.usize("future horizon")?,
        predictor: match r.u8("predictor tag")? {
            0 => FuturePredictor::Edd,
            1 => FuturePredictor::ParamExtrapolation,
            2 => FuturePredictor::Frozen,
            _ => {
                r.pos -= 1;
                return Err(r.err("predictor tag"));
            }
        },
        n_landmarks: r.usize("landmark count")?,
        var_lambda: r.f64("var lambda")?,
        herding: HerdingParams {
            lambda: r.f64("herding lambda")?,
            min_weight_fraction: r.f64("herding weight floor")?,
        },
        pool_slices: r.usize("pool slices")?,
        forest: RandomForestParams {
            n_trees: r.usize("tree count")?,
            max_depth: r.usize("max depth")?,
            min_leaf_weight: r.f64("min leaf weight")?,
            feature_subsample: match r.u8("subsample tag")? {
                0 => None,
                1 => Some(r.usize("subsample size")?),
                _ => {
                    r.pos -= 1;
                    return Err(r.err("subsample tag"));
                }
            },
            threads: r.usize("forest threads")?,
        },
        threshold: match r.u8("threshold tag")? {
            0 => ThresholdPolicy::MaxF1,
            1 => ThresholdPolicy::TargetPrecision(r.f64("target precision")?),
            2 => ThresholdPolicy::Fixed(r.f64("fixed threshold")?),
            _ => {
                r.pos -= 1;
                return Err(r.err("threshold tag"));
            }
        },
        calibration_fraction: r.f64("calibration fraction")?,
        seed: r.u64("future seed")?,
        threads: r.usize("future threads")?,
    };
    let candidates = CandidateParams {
        beam_width: r.usize("beam width")?,
        max_iters: r.usize("max iters")?,
        top_k: r.usize("top k")?,
        diversity_lambda: r.f64("diversity lambda")?,
        objective: match r.u8("objective tag")? {
            0 => Objective::MinDiff,
            1 => Objective::MinGap,
            2 => Objective::MaxConfidence,
            _ => {
                r.pos -= 1;
                return Err(r.err("objective tag"));
            }
        },
        max_moves_per_state: r.usize("max moves")?,
        early_stop_after: r.usize("early stop")?,
        refine: r.bool("refine flag")?,
        seed: r.u64("candidate seed")?,
    };
    let config = AdminConfig {
        horizon,
        start_year,
        period_years,
        future,
        candidates,
        parallel_generators: r.bool("parallel generators flag")?,
        threads: r.usize("threads")?,
        batch_threads: r.usize("batch threads")?,
        batch_parallelism: match r.u8("batch parallelism tag")? {
            0 => BatchParallelism::PerUser,
            1 => BatchParallelism::PerTimePoint,
            _ => {
                r.pos -= 1;
                return Err(r.err("batch parallelism tag"));
            }
        },
    };
    Ok(TrainSpec { data, config })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Every message the networked tier speaks, over both transports (TCP
/// front end and shard stdin/stdout pipes).
///
/// | tag | message | direction |
/// |---|---|---|
/// | 0 | [`Message::Hello`] | supervisor → shard (handshake) |
/// | 1 | [`Message::Ready`] | shard → supervisor |
/// | 2 | [`Message::Serve`] | caller → server |
/// | 3 | [`Message::Served`] | server → caller |
/// | 4 | [`Message::Failed`] | server → caller |
/// | 5 | [`Message::Ping`] | caller → server |
/// | 6 | [`Message::Pong`] | server → caller |
/// | 7 | [`Message::Shutdown`] | supervisor → shard |
#[derive(Debug)]
pub enum Message {
    /// Handshake: the spec the shard must train (bit-deterministically)
    /// before serving.
    Hello(TrainSpec),
    /// Handshake reply: the digest of the schema the shard trained
    /// under, verified against the supervisor's own.
    Ready {
        /// Content digest of the shard's feature schema.
        schema_digest: Digest,
    },
    /// A serving request; `id` is echoed in the reply.
    Serve {
        /// Caller-chosen correlation id.
        id: u64,
        /// The request.
        request: ServeRequest,
    },
    /// A successful serving reply.
    Served {
        /// Echo of the request's id.
        id: u64,
        /// The response.
        response: WireResponse,
    },
    /// A failed serving reply (or a protocol-level rejection, with the
    /// typed error inside).
    Failed {
        /// Echo of the request's id (0 when the request could not be
        /// read far enough to learn it).
        id: u64,
        /// The typed error.
        error: ServeError,
    },
    /// Liveness probe.
    Ping {
        /// Caller-chosen correlation id.
        id: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the ping's id.
        id: u64,
    },
    /// Orderly shutdown request; the shard exits after reading it.
    Shutdown,
}

/// Encodes a message into a frame body (message tag + payload).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut w = Writer::new();
    match message {
        Message::Hello(spec) => {
            w.u8(0);
            encode_train_spec(&mut w, spec);
        }
        Message::Ready { schema_digest } => {
            w.u8(1);
            w.digest(*schema_digest);
        }
        Message::Serve { id, request } => {
            w.u8(2);
            w.u64(*id);
            encode_request(&mut w, request);
        }
        Message::Served { id, response } => {
            w.u8(3);
            w.u64(*id);
            encode_response(&mut w, response);
        }
        Message::Failed { id, error } => {
            w.u8(4);
            w.u64(*id);
            encode_error(&mut w, error);
        }
        Message::Ping { id } => {
            w.u8(5);
            w.u64(*id);
        }
        Message::Pong { id } => {
            w.u8(6);
            w.u64(*id);
        }
        Message::Shutdown => w.u8(7),
    }
    w.into_bytes()
}

/// Decodes a frame body into a [`Message`]. `schema` is required for
/// request/response payloads ([`Message::Serve`], [`Message::Served`]) —
/// pre-handshake peers pass `None` and can still read handshake and
/// control messages.
///
/// # Errors
/// [`WireError::Malformed`] on any byte-level mismatch, including
/// trailing garbage after a well-formed payload; never panics.
pub fn decode_message(
    body: &[u8],
    schema: Option<&FeatureSchema>,
) -> Result<Message, WireError> {
    let mut r = Reader::new(body);
    let need_schema = |r: &Reader<'_>| WireError::Malformed {
        offset: r.pos,
        expected: "handshake before serve traffic",
    };
    let message = match r.u8("message tag")? {
        0 => Message::Hello(decode_train_spec(&mut r)?),
        1 => Message::Ready { schema_digest: r.digest("schema digest")? },
        2 => {
            let id = r.u64("request id")?;
            let schema = schema.ok_or_else(|| need_schema(&r))?;
            Message::Serve { id, request: decode_request(&mut r, schema)? }
        }
        3 => {
            let id = r.u64("request id")?;
            let schema = schema.ok_or_else(|| need_schema(&r))?;
            Message::Served { id, response: decode_response(&mut r, schema)? }
        }
        4 => {
            let id = r.u64("request id")?;
            Message::Failed { id, error: decode_error(&mut r)? }
        }
        5 => Message::Ping { id: r.u64("ping id")? },
        6 => Message::Pong { id: r.u64("pong id")? },
        7 => Message::Shutdown,
        _ => {
            r.pos -= 1;
            return Err(r.err("message tag"));
        }
    };
    r.finish("end of message")?;
    Ok(message)
}

/// Convenience: the canonical encoded bytes of a [`WireResponse`] —
/// what the determinism suite compares across serving tiers.
pub fn response_bytes(response: &WireResponse) -> Vec<u8> {
    let mut w = Writer::new();
    encode_response(&mut w, response);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 64).unwrap();
        write_frame(&mut buf, b"", 64).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Closed)));
        // Write-side cap.
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &[0u8; 100], 64),
            Err(WireError::Oversized { len: 100, max: 64 })
        ));
        assert!(sink.is_empty(), "nothing written for an oversized frame");
        // Read-side cap: the body must not be consumed.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[7u8; 32], 64).unwrap();
        let mut r = &oversized[..];
        assert!(matches!(
            read_frame(&mut r, 16),
            Err(WireError::Oversized { len: 32, max: 16 })
        ));
        // Truncated mid-frame: I/O error, not a panic or a hang.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"full frame", 64).unwrap();
        truncated.truncate(7);
        let mut r = &truncated[..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Io(_))));
        // Truncated inside the length prefix itself.
        let mut r = &[1u8, 0][..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Io(_))));
    }

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<usize>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_exactly_one_write() {
        let mut sink = CountingSink::default();
        for body in [&b""[..], b"x", &[9u8; 1000]] {
            write_frame(&mut sink, body, 1000).unwrap();
        }
        assert_eq!(sink.writes, vec![4, 5, 1004]);
        assert!(write_frame(&mut sink, &[0u8; 1001], 1000).is_err());
        assert_eq!(sink.writes.len(), 3, "an oversized frame makes no write");
    }

    #[test]
    fn control_messages_round_trip_without_schema() {
        for message in [
            Message::Ping { id: 7 },
            Message::Pong { id: u64::MAX },
            Message::Shutdown,
            Message::Ready { schema_digest: Digest([1, 2]) },
            Message::Failed { id: 3, error: ServeError::Overloaded { capacity: 4 } },
        ] {
            let body = encode_message(&message);
            let back = decode_message(&body, None).unwrap();
            assert_eq!(encode_message(&back), body);
        }
    }

    #[test]
    fn train_spec_round_trips_bit_exactly() {
        let spec = TrainSpec {
            data: DataSpec { records_per_year: 77, n_years: 5, seed: 0xdead },
            config: AdminConfig {
                horizon: 3,
                future: FutureModelsParams {
                    predictor: FuturePredictor::ParamExtrapolation,
                    threshold: ThresholdPolicy::TargetPrecision(0.75),
                    forest: RandomForestParams {
                        feature_subsample: Some(3),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                batch_parallelism: BatchParallelism::PerTimePoint,
                ..Default::default()
            },
        };
        let body = encode_message(&Message::Hello(spec));
        let back = decode_message(&body, None).unwrap();
        assert_eq!(encode_message(&back), body);
    }

    #[test]
    fn truncated_and_corrupt_bodies_are_typed_errors() {
        let body = encode_message(&Message::Ping { id: 42 });
        for cut in 0..body.len() {
            let err = decode_message(&body[..cut], None).unwrap_err();
            assert!(matches!(err, WireError::Malformed { .. }), "cut={cut}");
        }
        // Unknown message tag.
        assert!(matches!(
            decode_message(&[250], None),
            Err(WireError::Malformed { offset: 0, expected: "message tag" })
        ));
        // Trailing garbage after a valid message.
        let mut long = body.clone();
        long.push(9);
        assert!(matches!(
            decode_message(&long, None),
            Err(WireError::Malformed { expected: "end of message", .. })
        ));
    }
}
