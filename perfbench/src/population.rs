//! `population`: a large cohort of distinct applicants served in
//! closed-loop batches directly through `ShardedService::serve` (no
//! TCP) with a serving-scale forest, after the shard cell caches were
//! warmed on a disjoint cohort.

use crate::probe::ProcSample;
use crate::report::{self, Metrics};
use crate::setup::{Rng, Scenario, SHARDS};
use crate::trace::{self, ServeSpan};
use crate::{Opts, Run};
use jit_core::JustInTime;
use jit_service::wire::response_bytes;
use jit_service::{
    CohortMember, JitService, MemorySnapshotStore, ServeRequest, ShardedService,
    WireResponse,
};
use std::collections::HashSet;
use std::sync::Arc;

const TREES: usize = 96;
const WARM_USERS: usize = 100;
/// Timed users per measured second.
const USERS_PER_SECOND: usize = 70;
/// Users per closed-loop batch.
const BATCH: usize = 4;
const ORACLE_BATCHES: usize = 3;
/// Contiguous blocks of the timed pass. `users_per_s` is the median of
/// their rates and the latencies are summarized over them, so a short
/// stall of the machine moves one block only.
const BLOCKS: usize = 5;

struct State {
    system: Arc<JustInTime>,
    service: ShardedService,
    timed: Vec<CohortMember>,
    train_s: f64,
}

fn setup(opts: &Opts, traced: bool) -> State {
    let timed_users = USERS_PER_SECOND * opts.seconds as usize;
    let scenario = Scenario::credit(opts.seed, WARM_USERS + timed_users);
    let t = trace::now();
    let system = Arc::new(scenario.train(TREES));
    let train_s = (trace::now() - t) as f64 / 1e9;
    let (warm, timed) = scenario.split_cohort(WARM_USERS, opts.seed);
    let service = ShardedService::from_shared(Arc::clone(&system), SHARDS, 0, |_| {
        trace::store(Arc::new(MemorySnapshotStore::new()), traced)
    });
    for chunk in warm.chunks(BATCH) {
        if let Err(e) = service.serve(ServeRequest::batch(chunk.to_vec())) {
            crate::setup::fail(&format!("warm-up serve failed: {e}"));
        }
    }
    State { system, service, timed, train_s }
}

pub fn run(opts: &Opts, traced: bool, setups: usize) -> Result<Run, String> {
    let mut m = Metrics::default();
    let state = crate::repeat_setup(setups, &mut m, || setup(opts, traced));
    m.set("train.train_s", state.train_s);
    let batches: Vec<&[CohortMember]> = state.timed.chunks(BATCH).collect();
    let mut rng = Rng::new(opts.seed, 0x9091);
    let keep: HashSet<usize> =
        rng.sample(batches.len(), ORACLE_BATCHES).into_iter().collect();

    let cells_before = crate::cells(&state.service).0;
    let setup_proc = ProcSample::now();
    let t0 = trace::now();
    let mut latencies = Vec::with_capacity(batches.len());
    let mut kept: Vec<(usize, WireResponse)> = Vec::new();
    let (mut attempted, mut failed, mut users) = (0u64, 0u64, 0usize);
    let mut report = jit_service::ServeReport::default();
    let mut turnaround_ms = 0.0f64;
    let mut last_end = t0;
    let per_block = batches.len().div_ceil(BLOCKS);
    let mut block_rates = Vec::new();
    let (mut block_start, mut block_users) = (t0, 0usize);
    for (i, batch) in batches.iter().enumerate() {
        for member in batch.iter() {
            trace::tag_user(&member.user_id, i as u64 + 1);
        }
        let request = ServeRequest::batch(batch.to_vec());
        let start = trace::now();
        turnaround_ms = turnaround_ms.max(start.saturating_sub(last_end) as f64 / 1e6);
        let span = ServeSpan::open("service.serve", &request);
        let result = state.service.serve(request);
        drop(span);
        let end = trace::now();
        last_end = end;
        attempted += 1;
        match result {
            Ok(response) => {
                latencies.push((end - start) as f64 / 1e6);
                users += response.users.len();
                block_users += response.users.len();
                report.cold_time_points += response.report.cold_time_points;
                report.replayed_time_points += response.report.replayed_time_points;
                report.recomputed_time_points += response.report.recomputed_time_points;
                if keep.contains(&i) {
                    kept.push((i, WireResponse::from_response(&response)));
                }
            }
            Err(e) => {
                eprintln!("perfbench: batch {i} failed: {e}");
                failed += 1;
            }
        }
        if (i + 1) % per_block == 0 || i + 1 == batches.len() {
            block_rates.push(block_users as f64 / ((end - block_start) as f64 / 1e9));
            (block_start, block_users) = (end, 0);
        }
    }
    let t1 = trace::now();
    let timed_proc = ProcSample::now();
    let timed_s = (t1 - t0) as f64 / 1e9;

    report::latency_metrics(&mut m, &latencies, BLOCKS);
    m.set("users_per_s", crate::stats::median(&block_rates));
    m.set("error_share", failed as f64 / attempted.max(1) as f64);
    m.set("bench.gen_lag_ms", turnaround_ms);
    m.set("bench.outstanding_max", 1.0);
    m.set("bench.sent", attempted as f64);
    m.set("service.cold_tp", report.cold_time_points as f64);
    m.set("service.replayed_tp", report.replayed_time_points as f64);
    m.set("service.recomputed_tp", report.recomputed_time_points as f64);
    let (cells_after, models) = crate::cells(&state.service);
    m.set("cache.cells", cells_after as f64);
    m.set(
        "cache.cells_per_user",
        (cells_after - cells_before.min(cells_after)) as f64 / users.max(1) as f64,
    );
    m.set("cache.models", models as f64);
    crate::proc_metrics(&mut m, &setup_proc, &timed_proc, timed_s);

    // Output check: sampled batches must be byte-identical to the same
    // batch served by an in-process single-service oracle.
    let oracle = JitService::with_shared(
        Arc::clone(&state.system),
        Arc::new(MemorySnapshotStore::new()),
    );
    for (i, response) in &kept {
        let expected = oracle
            .serve(ServeRequest::batch(batches[*i].to_vec()))
            .map(|r| WireResponse::from_response(&r))
            .map_err(|e| format!("oracle failed for batch {i}: {e}"))?;
        if response_bytes(&expected) != response_bytes(response) {
            return Err(format!("batch {i} differs from the oracle"));
        }
    }
    m.set("store.users", crate::stored_users(state.service.shards()) as f64);

    let spans = trace::take();
    if traced {
        report::span_layers(&mut m, &spans, (t0, t1), &[]);
    }
    Ok(Run { m, attempted, failed, timed_s, spans })
}
