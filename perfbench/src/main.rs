//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload arrivals|population|drift --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds the serving stack trained on the registered
//! `synth/credit` scenario, serves applicants drawn from `--seed`, times
//! the workload, checks the served outputs against an in-process oracle,
//! prints every metric with its unit, and ends with one JSON result line. `--trace 0` reports the end-to-end
//! metrics. `--trace 1` runs the workload twice, untraced and then with
//! span recording, and reports the per-layer breakdown of the traced
//! run plus the tracing overhead (traced minus untraced). See
//! `perfbench/README.md` for the metric definitions.

mod arrivals;
mod drift;
mod openloop;
mod population;
mod probe;
mod report;
mod setup;
mod stats;
mod trace;

use jit_service::{JitService, ShardedService};
use probe::ProcSample;
use report::Metrics;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One measured pass of a workload.
pub struct Run {
    pub m: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub timed_s: f64,
    pub spans: Vec<trace::Span>,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

fn parse() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value =
            it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad {flag} {value}")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number(),
            "--seconds" => opts.seconds = number().max(1),
            "--trace" => opts.trace = number() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    opts
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: --workload arrivals|population|drift --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

/// Runs `make` `times` times, dropping each state before building the
/// next, and returns the last state. Records `setup_s`, the median
/// set-up time, and `proc.setup_cpu_s`, the CPU time of the set-ups.
pub fn repeat_setup<S>(
    times: usize,
    m: &mut Metrics,
    mut make: impl FnMut() -> S,
) -> S {
    let mut durations = Vec::new();
    let mut state = None;
    let cpu_before = ProcSample::now().cpu_s;
    for _ in 0..times.max(1) {
        drop(state.take());
        let t = trace::now();
        state = Some(make());
        durations.push((trace::now() - t) as f64 / 1e9);
    }
    m.set("setup_s", stats::median(&durations));
    m.set("proc.setup_cpu_s", ProcSample::now().cpu_s - cpu_before);
    state.unwrap_or_else(|| setup::fail("no set-up ran"))
}

/// Cells and model slots across the shard cell caches.
pub fn cells(service: &ShardedService) -> (usize, usize) {
    service
        .shards()
        .iter()
        .map(|s| (s.cell_cache().cell_count(), s.cell_cache().model_count()))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Snapshots held across the shard stores.
pub fn stored_users(shards: &[JitService]) -> usize {
    shards.iter().map(|s| s.store().user_ids().map_or(0, |ids| ids.len())).sum()
}

/// The `proc.*` metrics of the timed phase, and the peak RSS.
pub fn proc_metrics(
    m: &mut Metrics,
    before: &ProcSample,
    after: &ProcSample,
    timed_s: f64,
) {
    let cpu_s = after.cpu_s - before.cpu_s;
    m.set("proc.cpu_s", cpu_s);
    m.set("proc.cpu_util", cpu_s / timed_s.max(1e-9));
    m.set(
        "proc.ctx_switches",
        after.ctx_switches.saturating_sub(before.ctx_switches) as f64,
    );
    m.set("proc.rss_mb", after.rss_mb);
    m.set("peak_rss_mb", after.hwm_mb);
}

fn run(opts: &Opts, traced: bool, setups: usize) -> Result<Run, String> {
    trace::set_enabled(traced);
    let result = match opts.workload.as_str() {
        "arrivals" => arrivals::run(opts, traced, setups),
        "population" => population::run(opts, traced, setups),
        "drift" => drift::run(opts, traced, setups),
        other => usage(&format!("unknown workload {other:?}")),
    };
    trace::set_enabled(false);
    result
}

fn main() {
    let opts = parse();
    if opts.workload.is_empty() {
        usage("--workload is required");
    }
    let outcome = if opts.trace {
        run(&opts, false, 1).and_then(|base| {
            run(&opts, true, 1).map(|traced| {
                let mut m = traced.m;
                // Latency-shaped numbers come from the untraced pass; the
                // traced pass adds the layers and the overhead.
                for name in [
                    "p50_ms.low",
                    "tail_ms.low",
                    "p50_ms.mid",
                    "tail_ms.mid",
                    "p50_ms.high",
                    "tail_ms.high",
                    "max_rate_rps",
                    "staleness_s",
                    "error_share",
                ] {
                    m.set(name, base.m.get(name));
                }
                m.set("trace.overhead_ms", m.get("p50_ms") - base.m.get("p50_ms"));
                m.set(
                    "trace.overhead_share",
                    traced.timed_s / base.timed_s.max(1e-9) - 1.0,
                );
                let path = setup::out_dir()
                    .join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
                if let Err(e) = trace::write_jsonl(&path, &traced.spans) {
                    eprintln!("perfbench: could not write {}: {e}", path.display());
                }
                Run {
                    m,
                    attempted: base.attempted + traced.attempted,
                    failed: base.failed + traced.failed,
                    timed_s: traced.timed_s,
                    spans: Vec::new(),
                }
            })
        })
    } else {
        run(&opts, false, SETUPS)
    };
    let table = if opts.trace { report::PER_LAYER } else { report::END_TO_END };
    match outcome {
        Ok(run) => report::print(table, &run.m, true, run.attempted, run.failed),
        Err(message) => {
            eprintln!("perfbench: output check failed: {message}");
            report::print(table, &Metrics::default(), false, 1, 0);
            std::process::exit(1);
        }
    }
}
