//! Outside-in span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public entry
//! points only: the benchmark's own calls, and wrappers that
//! implement the public `ServeBackend`, `SnapshotStore` and `DbFile`
//! traits around the real implementations. Nothing inside the program is
//! instrumented. Spans stay in memory and are written out when the run
//! ends; self time is computed from them afterwards.
//!
//! A span's parent is the span open on the same thread when it starts.
//! Work the sharded dispatcher moves to pool threads loses that link, so
//! the serving wrapper also registers the users of each request it is
//! serving, and store calls for those users take the serving span as
//! their parent.

use jit_core::SessionSnapshot;
use jit_data::FeatureSchema;
use jit_db::{DbError, DbFile};
use jit_service::{
    ServeBackend, ServeError, ServeRequest, SnapshotStore, StoreError, WireResponse,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Benchmark request the span served, 0 when it served none.
    pub req: u64,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    /// Payload bytes moved, where the layer moves bytes.
    pub bytes: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e9
    }
}

struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// user id → (benchmark request, open serving span or 0).
    users: Mutex<HashMap<String, (u64, u64)>>,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        users: Mutex::new(HashMap::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Nanoseconds since the process-wide origin. The benchmark takes every
/// timestamp through this, traced or not, so spans and samples share
/// one clock.
pub fn now() -> u64 {
    recorder().origin.elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    span: Span,
    prev: u64,
}

impl Guard {
    fn id(&self) -> u64 {
        self.span.id
    }

    fn set_bytes(&mut self, bytes: u64) {
        self.span.bytes = bytes;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.span.end = now();
        CURRENT.with(|c| c.set(self.prev));
        lock(&recorder().spans).push(self.span.clone());
    }
}

/// Opens a span under the span open on this thread.
pub fn enter(name: &'static str, req: u64) -> Option<Guard> {
    let parent = CURRENT.with(Cell::get);
    enter_under(name, parent, req)
}

/// Opens a span under an explicit parent; `None` when tracing is off.
fn enter_under(name: &'static str, parent: u64, req: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace(id));
    Some(Guard {
        span: Span { id, parent, name, req, start: now(), end: 0, bytes: 0 },
        prev,
    })
}

/// Records a span measured elsewhere (e.g. a request's client side,
/// sent on one thread and answered on another).
pub fn record(name: &'static str, req: u64, start: u64, end: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    lock(&recorder().spans).push(Span { id, parent: 0, name, req, start, end, bytes });
}

/// Tags `user_id` as served by benchmark request `req`.
pub fn tag_user(user_id: &str, req: u64) {
    if enabled() {
        lock(&recorder().users).insert(user_id.to_string(), (req, 0));
    }
}

fn user_entry(user_id: &str) -> (u64, u64) {
    lock(&recorder().users).get(user_id).copied().unwrap_or((0, 0))
}

fn set_open(users: &[String], span: u64) {
    let mut map = lock(&recorder().users);
    for user in users {
        map.entry(user.clone()).or_insert((0, 0)).1 = span;
    }
}

/// Opens a serving span for `users`: store calls for them, on any
/// thread, nest under it until it closes.
pub struct ServeSpan {
    guard: Option<Guard>,
    users: Vec<String>,
}

impl ServeSpan {
    pub fn open(name: &'static str, request: &ServeRequest) -> ServeSpan {
        if !enabled() {
            return ServeSpan { guard: None, users: Vec::new() };
        }
        let users: Vec<String> =
            request.user_ids().into_iter().map(str::to_string).collect();
        let req = users.first().map_or(0, |u| user_entry(u).0);
        let guard = enter(name, req);
        if let Some(g) = &guard {
            set_open(&users, g.id());
        }
        ServeSpan { guard, users }
    }
}

impl Drop for ServeSpan {
    fn drop(&mut self) {
        if self.guard.is_some() {
            set_open(&self.users, 0);
        }
    }
}

/// Removes and returns every recorded span, and forgets user tags.
pub fn take() -> Vec<Span> {
    lock(&recorder().users).clear();
    std::mem::take(&mut *lock(&recorder().spans))
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
            s.id, s.parent, s.name, s.req, s.start, s.end, s.bytes
        );
    }
    std::fs::write(path, out)
}

/// A span's self time in seconds: its duration minus the part of it
/// that the union of its children's intervals covers.
pub fn self_s(span: &Span, children: &[&Span]) -> f64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start;
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let duration = span.end.saturating_sub(span.start);
    (duration - covered.min(duration)) as f64 / 1e9
}

// ---------------------------------------------------------------------
// Tracing wrappers over the public traits.

/// `backend`, recording spans when `traced`.
pub fn backend(backend: Arc<dyn ServeBackend>, traced: bool) -> Arc<dyn ServeBackend> {
    if traced {
        Arc::new(TracedBackend(backend))
    } else {
        backend
    }
}

/// `store`, recording spans when `traced`.
pub fn store(store: Arc<dyn SnapshotStore>, traced: bool) -> Arc<dyn SnapshotStore> {
    if traced {
        Arc::new(TracedStore(store))
    } else {
        store
    }
}

/// `file`, recording spans when `traced`.
pub fn file(file: Arc<dyn DbFile>, traced: bool) -> Arc<dyn DbFile> {
    if traced {
        Arc::new(TracedFile(file))
    } else {
        file
    }
}

/// [`ServeBackend`] wrapper: one `service.serve` span per request.
struct TracedBackend(Arc<dyn ServeBackend>);

impl ServeBackend for TracedBackend {
    fn schema(&self) -> &FeatureSchema {
        self.0.schema()
    }

    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        let _span = ServeSpan::open("service.serve", &request);
        self.0.serve_wire(request)
    }
}

/// [`SnapshotStore`] wrapper: `store.save` / `store.load` / `store.scan`
/// spans, parented by the serving span of the user when one is open.
struct TracedStore(Arc<dyn SnapshotStore>);

fn store_span(name: &'static str, user_id: &str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let (req, open) = user_entry(user_id);
    if open != 0 {
        enter_under(name, open, req)
    } else {
        enter(name, req)
    }
}

impl SnapshotStore for TracedStore {
    fn save(
        &self,
        user_id: &str,
        snapshot: &SessionSnapshot,
    ) -> Result<(), StoreError> {
        let _span = store_span("store.save", user_id);
        self.0.save(user_id, snapshot)
    }

    fn load(&self, user_id: &str) -> Result<Option<SessionSnapshot>, StoreError> {
        let _span = store_span("store.load", user_id);
        self.0.load(user_id)
    }

    fn remove(&self, user_id: &str) -> Result<bool, StoreError> {
        let _span = store_span("store.remove", user_id);
        self.0.remove(user_id)
    }

    fn user_ids(&self) -> Result<Vec<String>, StoreError> {
        let _span = enter("store.scan", 0);
        self.0.user_ids()
    }
}

/// [`DbFile`] wrapper: WAL appends, syncs and checkpoint rewrites.
#[derive(Debug)]
struct TracedFile(Arc<dyn DbFile>);

impl DbFile for TracedFile {
    fn read_all(&self) -> Result<Vec<u8>, DbError> {
        let _span = enter("db.read", 0);
        self.0.read_all()
    }

    fn append(&self, bytes: &[u8]) -> Result<(), DbError> {
        let mut span = enter("db.append", 0);
        if let Some(s) = &mut span {
            s.set_bytes(bytes.len() as u64);
        }
        self.0.append(bytes)
    }

    fn sync(&self) -> Result<(), DbError> {
        let _span = enter("db.sync", 0);
        self.0.sync()
    }

    fn truncate(&self, len: u64) -> Result<(), DbError> {
        let _span = enter("db.truncate", 0);
        self.0.truncate(len)
    }

    fn replace(&self, bytes: &[u8]) -> Result<(), DbError> {
        let mut span = enter("db.checkpoint", 0);
        if let Some(s) = &mut span {
            s.set_bytes(bytes.len() as u64);
        }
        self.0.replace(bytes)
    }

    fn len(&self) -> Result<u64, DbError> {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { id, parent, name: "t", req: 0, start, end, bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, 0, 0, 1_000_000_000);
        // Overlapping children on two threads, and one that overhangs.
        let a = span(2, 1, 100_000_000, 400_000_000);
        let b = span(3, 1, 300_000_000, 500_000_000);
        let c = span(4, 1, 900_000_000, 1_200_000_000);
        let got = self_s(&parent, &[&a, &b, &c]);
        assert!((got - 0.5).abs() < 1e-9, "{got}");
    }
}
