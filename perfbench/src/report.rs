//! Metric tables, the per-layer breakdown computed from spans, and the
//! result line.

use crate::stats::{blocked, median, tail, tail_percentile};
use crate::trace::{self, Span};
use std::collections::{BTreeMap, HashMap};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("users_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not pass through reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.gen_lag_ms", "ms"),
    ("bench.outstanding_max", "count"),
    ("bench.sent", "count"),
    ("bench.samples", "count"),
    ("bench.blocks", "count"),
    ("bench.tail_pct", "%"),
    ("error_share", "ratio"),
    ("p50_ms.low", "ms"),
    ("tail_ms.low", "ms"),
    ("p50_ms.mid", "ms"),
    ("tail_ms.mid", "ms"),
    ("p50_ms.high", "ms"),
    ("tail_ms.high", "ms"),
    ("max_rate_rps", "req/s"),
    ("staleness_s", "s"),
    ("net.self_ms.p50", "ms"),
    ("net.self_ms.tail", "ms"),
    ("net.wait_ms.p50", "ms"),
    ("net.shed", "count"),
    ("net.queue_max", "count"),
    ("net.share", "ratio"),
    ("wire.req_bytes", "bytes"),
    ("wire.resp_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("service.serve_ms.p50", "ms"),
    ("service.serve_ms.tail", "ms"),
    ("service.busy_s", "s"),
    ("service.self_s", "s"),
    ("service.share", "ratio"),
    ("service.cold_tp", "count"),
    ("service.replayed_tp", "count"),
    ("service.recomputed_tp", "count"),
    ("cache.cells", "count"),
    ("cache.cells_per_user", "count"),
    ("cache.models", "count"),
    ("store.saves", "count"),
    ("store.save_ms.p50", "ms"),
    ("store.save_s", "s"),
    ("store.save_share", "ratio"),
    ("store.loads", "count"),
    ("store.load_ms.p50", "ms"),
    ("store.load_s", "s"),
    ("store.users", "count"),
    ("db.syncs", "count"),
    ("db.sync_s", "s"),
    ("db.append_bytes", "bytes"),
    ("db.checkpoints", "count"),
    ("db.checkpoint_s", "s"),
    ("db.wal_bytes", "bytes"),
    ("train.train_s", "s"),
    ("train.retrain_s", "s"),
    ("train.drifted_models", "count"),
    ("refresh.pass_s", "s"),
    ("refresh.self_s", "s"),
    ("refresh.scanned", "count"),
    ("refresh.refreshed", "count"),
    ("refresh.replayed_tp", "count"),
    ("refresh.recomputed_tp", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "cores"),
    ("proc.ctx_switches", "count"),
    ("proc.rss_mb", "MB"),
    ("proc.setup_cpu_s", "s"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Named metric values of one run.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The end-to-end latency of a workload's timed requests: `samples` in
/// time order, ms, summarized over `blocks` blocks (see
/// [`crate::stats::blocked`]).
pub fn latency_metrics(m: &mut Metrics, samples: &[f64], blocks: usize) {
    let (p50, tail) = blocked(samples, blocks);
    m.set("p50_ms", p50);
    m.set("tail_ms", tail);
    m.set("bench.samples", samples.len() as f64);
    m.set("bench.blocks", blocks as f64);
    m.set("bench.tail_pct", tail_percentile(samples.len() / blocks.max(1)));
}

fn in_window(s: &Span, window: (u64, u64)) -> bool {
    s.start >= window.0 && s.start <= window.1
}

fn named<'a>(spans: &'a [Span], name: &str, window: (u64, u64)) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name && in_window(s, window)).collect()
}

fn ms(spans: &[&Span]) -> Vec<f64> {
    spans.iter().map(|s| s.duration_s() * 1e3).collect()
}

fn total_s(spans: &[&Span]) -> f64 {
    spans.iter().fold(0.0, |sum, s| sum + s.duration_s())
}

/// Self time of every span in `parents`, net of the given children.
fn self_total(parents: &[&Span], children: &[&Span]) -> f64 {
    let mut by_parent: HashMap<u64, Vec<&Span>> = HashMap::new();
    for c in children {
        by_parent.entry(c.parent).or_default().push(c);
    }
    parents
        .iter()
        .map(|p| trace::self_s(p, by_parent.get(&p.id).map_or(&[][..], Vec::as_slice)))
        .sum()
}

/// The span-derived layers (net, service, store, db, refresh) over the
/// timed window. `stale_windows` are the drift workload's retrain-to-
/// refreshed intervals.
pub fn span_layers(
    m: &mut Metrics,
    spans: &[Span],
    window: (u64, u64),
    stale_windows: &[(u64, u64)],
) {
    let client = named(spans, "client", window);
    let serve = named(spans, "service.serve", window);
    let saves = named(spans, "store.save", window);
    let loads = named(spans, "store.load", window);
    let store_all: Vec<&Span> = saves.iter().chain(&loads).copied().collect();

    // net: the client's span minus the backend's span for the same
    // request, and the wait from send to the backend picking it up.
    let serve_by_req: HashMap<u64, &Span> =
        serve.iter().filter(|s| s.req != 0).map(|s| (s.req, *s)).collect();
    let mut net_self = Vec::new();
    let mut net_wait = Vec::new();
    let (mut client_sum, mut net_sum, mut serve_sum) = (0.0, 0.0, 0.0);
    for c in &client {
        if let Some(s) = serve_by_req.get(&c.req) {
            let own = (c.duration_s() - s.duration_s()).max(0.0);
            net_self.push(own * 1e3);
            net_wait.push(s.start.saturating_sub(c.start) as f64 / 1e6);
            client_sum += c.duration_s();
            net_sum += own;
            serve_sum += s.duration_s();
        }
    }
    m.set("net.self_ms.p50", median(&net_self));
    m.set("net.self_ms.tail", tail(&net_self));
    m.set("net.wait_ms.p50", median(&net_wait));
    if client_sum > 0.0 {
        m.set("net.share", net_sum / client_sum);
        m.set("service.share", serve_sum / client_sum);
    }

    m.set("service.serve_ms.p50", median(&ms(&serve)));
    m.set("service.serve_ms.tail", tail(&ms(&serve)));
    m.set("service.busy_s", total_s(&serve));
    m.set("service.self_s", self_total(&serve, &store_all));

    m.set("store.saves", saves.len() as f64);
    m.set("store.save_ms.p50", median(&ms(&saves)));
    m.set("store.save_s", total_s(&saves));
    m.set("store.loads", loads.len() as f64);
    m.set("store.load_ms.p50", median(&ms(&loads)));
    m.set("store.load_s", total_s(&loads));

    let syncs = named(spans, "db.sync", window);
    let checkpoints = named(spans, "db.checkpoint", window);
    m.set("db.syncs", syncs.len() as f64);
    m.set("db.sync_s", total_s(&syncs));
    m.set("db.checkpoints", checkpoints.len() as f64);
    m.set("db.checkpoint_s", total_s(&checkpoints));

    let passes = named(spans, "refresh.pass", window);
    if !passes.is_empty() {
        let pass_children: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name.starts_with("store.") && in_window(s, window))
            .collect();
        m.set("refresh.pass_s", total_s(&passes));
        m.set("refresh.self_s", self_total(&passes, &pass_children));
    }
    let stale_s: f64 = stale_windows.iter().map(|w| (w.1 - w.0) as f64 / 1e9).sum();
    if stale_s > 0.0 {
        let saves: f64 = stale_windows
            .iter()
            .map(|w| total_s(&named(spans, "store.save", *w)))
            .sum();
        m.set("store.save_share", saves / stale_s);
    }
    m.set("trace.spans", spans.len() as f64);
}

/// Prints every metric of `table` with its unit, then the result line.
pub fn print(
    table: &[(&str, &str)],
    m: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = m.get(name);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<24} {value:>16.4} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
}
