//! `drift`: the just-in-time cycle over durable stores. Set-up serves a
//! population into per-shard `DbSnapshotStore`s whose WALs are local
//! files. The timed part retrains one drift step ahead with the
//! scenario's pinned time points kept, hands stores and caches to the
//! next generation, runs the refresh-ahead pass, and then lets a sample
//! of returning users send `Refresh` by id through `NetClient` in a
//! closed loop on two connections.

use crate::probe::ProcSample;
use crate::report::{self, Metrics};
use crate::setup::{self, Rng, Scenario, SHARDS};
use crate::stats::median;
use crate::trace;
use crate::{Opts, Run};
use jit_core::JustInTime;
use jit_db::{DbFile, DurableDatabase, StdFile, WalConfig};
use jit_service::wire::{self, response_bytes, Message, WireReport};
use jit_service::{
    CohortMember, DbSnapshotStore, JitService, MemorySnapshotStore, NetClient,
    NetServer, NetServerConfig, RefreshAheadOptions, RefreshAheadReport, ServeBackend,
    ServeRequest, ShardedService, SnapshotStore, WireResponse,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const TREES: usize = 20;
/// Stored users: the population every refresh-ahead pass re-serves.
const POPULATION: usize = 320;
/// Returning users per measured second.
const RETURNING_PER_SECOND: usize = 6;
/// Blocks the returning users' latencies are summarized over: one, since
/// their closed loop barely loads the machine.
const BLOCKS: usize = 1;
const CONNECTIONS: usize = 2;
const SEED_BATCH: usize = 16;
const ORACLE_SAMPLE: usize = 16;
/// Model updates per run.
const DRIFT_STEPS: usize = 5;

/// One returning user's request: index, send and reply instants, reply.
type Reply = (usize, u64, u64, Result<WireResponse, String>);

struct State {
    scenario: Scenario,
    system: Arc<JustInTime>,
    service: ShardedService,
    wals: Vec<Arc<DurableDatabase>>,
    population: Vec<CohortMember>,
    dir: PathBuf,
    train_s: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(opts: &Opts, traced: bool, rep: usize) -> State {
    let scenario = Scenario::credit(opts.seed, POPULATION);
    let t = trace::now();
    let system = Arc::new(scenario.train(TREES));
    let train_s = (trace::now() - t) as f64 / 1e9;
    let (_, population) = scenario.split_cohort(0, opts.seed);

    let dir = setup::out_dir().join(format!(
        "wal-{}-{rep}-{}",
        std::process::id(),
        u8::from(traced)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| setup::fail(&format!("wal dir: {e}")));
    let schema = system.schema().clone();
    let mut wals = Vec::new();
    let mut stores = Vec::new();
    for shard in 0..SHARDS {
        let file: Arc<dyn DbFile> = Arc::new(
            StdFile::open(dir.join(format!("shard-{shard}.wal")))
                .unwrap_or_else(|e| setup::fail(&format!("wal open: {e}"))),
        );
        let file: Arc<dyn DbFile> = trace::file(file, traced);
        let (wal, _) = DurableDatabase::open(file, WalConfig::default())
            .unwrap_or_else(|e| setup::fail(&format!("wal open: {e}")));
        let wal = Arc::new(wal);
        let store: Arc<dyn SnapshotStore> = Arc::new(
            DbSnapshotStore::open_durable(Arc::clone(&wal), &schema)
                .unwrap_or_else(|e| setup::fail(&format!("store open: {e}"))),
        );
        wals.push(wal);
        stores.push(trace::store(store, traced));
    }
    let service = ShardedService::from_shared(Arc::clone(&system), SHARDS, 0, |s| {
        Arc::clone(&stores[s])
    });
    for chunk in population.chunks(SEED_BATCH) {
        if let Err(e) = service.serve(ServeRequest::batch(chunk.to_vec())) {
            setup::fail(&format!("population seeding failed: {e}"));
        }
    }
    State { scenario, system, service, wals, population, dir, train_s }
}

/// Drops the content-neutral parts of a response: provenance and the
/// replay/recompute report differ between a returning user's replay and
/// a cold serve of the same profile, the served insights do not.
fn content(mut response: WireResponse) -> Vec<u8> {
    for user in &mut response.users {
        user.provenance = None;
    }
    response.report = WireReport::default();
    response_bytes(&response)
}

pub fn run(opts: &Opts, traced: bool, setups: usize) -> Result<Run, String> {
    let mut rep = 0;
    let mut m = Metrics::default();
    let state = crate::repeat_setup(setups, &mut m, || {
        rep += 1;
        setup(opts, traced, rep)
    });
    m.set("train.train_s", state.train_s);
    let horizon = state.system.config().horizon;
    let pinned_count = state.scenario.spec.drift.pinned_time_points.min(horizon + 1);
    let pinned: Vec<bool> = (0..=horizon).map(|t| t < pinned_count).collect();
    let histories: Vec<_> =
        (1..=DRIFT_STEPS).map(|step| state.scenario.gen.history(step)).collect();

    // One model update per drift step: retrain, hand stores and cell
    // caches to the new generation, refresh ahead. Staleness is the
    // median over the steps.
    let cells_before = crate::cells(&state.service).0;
    let setup_proc = ProcSample::now();
    let wal_before: u64 = state.wals.iter().map(|w| w.wal_bytes_logged()).sum();
    let t0 = trace::now();
    let mut system = Arc::clone(&state.system);
    let mut generation: Option<Arc<ShardedService>> = None;
    let mut stale_windows = Vec::new();
    let mut staleness = Vec::new();
    let mut refresh_rates = Vec::new();
    let (mut retrain_s, mut pass_s, mut drifted) = (0.0, 0.0, 0usize);
    let mut totals = RefreshAheadReport::default();
    for history in &histories {
        let start = trace::now();
        let next = {
            let _span = trace::enter("train.retrain", 0);
            system
                .retrain_pinned(history, &pinned)
                .map_err(|e| format!("retrain failed: {e}"))?
        };
        retrain_s += (trace::now() - start) as f64 / 1e9;
        let next = Arc::new(next);
        drifted += next.drifted_time_points(&system).iter().filter(|d| **d).count();
        let prior = generation.as_deref().unwrap_or(&state.service);
        let service =
            Arc::new(ShardedService::next_generation(Arc::clone(&next), 0, prior));
        let pass_start = trace::now();
        let pass = {
            let _span = trace::enter("refresh.pass", 0);
            service
                .refresh_ahead(&system, &RefreshAheadOptions::default())
                .map_err(|e| format!("refresh-ahead failed: {e}"))?
        };
        let end = trace::now();
        pass_s += (end - pass_start) as f64 / 1e9;
        if pass.scanned != state.population.len() {
            return Err(format!(
                "refresh-ahead scanned {} of {} users",
                pass.scanned,
                state.population.len()
            ));
        }
        let stale_s = (end - start) as f64 / 1e9;
        staleness.push(stale_s);
        refresh_rates.push(pass.refreshed as f64 / stale_s);
        stale_windows.push((start, end));
        totals.scanned += pass.scanned;
        totals.refreshed += pass.refreshed;
        totals.replayed_time_points += pass.replayed_time_points;
        totals.recomputed_time_points += pass.recomputed_time_points;
        system = next;
        generation = Some(service);
    }
    let Some(generation) = generation else { return Err("no drift step ran".into()) };
    let next = system;

    // Returning users, closed loop on two connections.
    let backend =
        trace::backend(Arc::clone(&generation) as Arc<dyn ServeBackend>, traced);
    let server = NetServer::bind(backend, "127.0.0.1:0", NetServerConfig::default())
        .map_err(|e| format!("bind failed: {e}"))?;
    let returning_count =
        (RETURNING_PER_SECOND * opts.seconds as usize).min(state.population.len());
    let mut rng = Rng::new(opts.seed, 0xd41f7);
    let returning: Vec<usize> = rng.sample(state.population.len(), returning_count);
    for (req, &i) in returning.iter().enumerate() {
        trace::tag_user(&state.population[i].user_id, req as u64 + 1);
    }
    let schema = next.schema().clone();
    let in_flight = AtomicUsize::new(0);
    let outstanding_max = AtomicUsize::new(0);
    let t_net = trace::now();
    let per_conn: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<(usize, usize)> = returning
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(c)
                    .step_by(CONNECTIONS)
                    .collect();
                let (schema, server, population) =
                    (&schema, &server, &state.population);
                let (in_flight, outstanding_max) = (&in_flight, &outstanding_max);
                s.spawn(move || {
                    let mut client =
                        match NetClient::connect(server.addr(), schema.clone()) {
                            Ok(c) => c,
                            Err(e) => {
                                return vec![(0, 0, 0, Err(format!("connect: {e}")))]
                            }
                        };
                    mine.into_iter()
                        .map(|(req, i)| {
                            let id = population[i].user_id.clone();
                            let start = trace::now();
                            let now_in = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            outstanding_max.fetch_max(now_in, Ordering::SeqCst);
                            let result = client
                                .serve(ServeRequest::refresh([id]))
                                .map_err(|e| e.to_string());
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            (req, start, trace::now(), result)
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<Result<_, _>>()
    })
    .map_err(|_| "a returning-user thread panicked".to_string())?;
    let t1 = trace::now();
    let timed_proc = ProcSample::now();
    let shed = server.stats().shed;
    drop(server);

    let mut timed_latencies: Vec<(u64, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut report = WireReport::default();
    let mut responses: Vec<(usize, WireResponse)> = Vec::new();
    let mut turnaround_ms = 0.0f64;
    for conn in per_conn {
        let mut last_end = t_net;
        for (req, start, end, result) in conn {
            attempted += 1;
            turnaround_ms =
                turnaround_ms.max(start.saturating_sub(last_end) as f64 / 1e6);
            last_end = end;
            trace::record("client", req as u64 + 1, start, end, 0);
            match result {
                Ok(response) => {
                    timed_latencies.push((start, (end - start) as f64 / 1e6));
                    report.replayed_time_points += response.report.replayed_time_points;
                    report.recomputed_time_points +=
                        response.report.recomputed_time_points;
                    report.cold_time_points += response.report.cold_time_points;
                    responses.push((req, response));
                }
                Err(e) => {
                    eprintln!("perfbench: returning request {req} failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    let timed_s = (t1 - t0) as f64 / 1e9;
    // Both connections' requests, in the order they were sent.
    timed_latencies.sort_by_key(|(start, _)| *start);
    let latencies: Vec<f64> = timed_latencies.into_iter().map(|(_, l)| l).collect();

    report::latency_metrics(&mut m, &latencies, BLOCKS);
    m.set("users_per_s", median(&refresh_rates));
    m.set("staleness_s", median(&staleness));
    m.set("error_share", failed as f64 / attempted.max(1) as f64);
    m.set("bench.gen_lag_ms", turnaround_ms);
    m.set("bench.outstanding_max", outstanding_max.load(Ordering::SeqCst) as f64);
    m.set("bench.sent", attempted as f64);
    m.set("net.shed", shed as f64);
    m.set("train.retrain_s", retrain_s);
    m.set("train.drifted_models", drifted as f64);
    m.set("refresh.scanned", totals.scanned as f64);
    m.set("refresh.refreshed", totals.refreshed as f64);
    m.set("refresh.replayed_tp", totals.replayed_time_points as f64);
    m.set("refresh.recomputed_tp", totals.recomputed_time_points as f64);
    m.set("refresh.pass_s", pass_s);
    m.set("service.cold_tp", report.cold_time_points as f64);
    m.set("service.replayed_tp", report.replayed_time_points as f64);
    m.set("service.recomputed_tp", report.recomputed_time_points as f64);
    let (cells, models) = crate::cells(&generation);
    m.set("cache.cells", cells as f64);
    m.set(
        "cache.cells_per_user",
        cells.saturating_sub(cells_before) as f64 / totals.refreshed.max(1) as f64,
    );
    m.set("cache.models", models as f64);
    m.set("db.wal_bytes", state.wals.iter().map(|w| w.wal_len() as f64).sum());
    m.set(
        "db.append_bytes",
        (state.wals.iter().map(|w| w.wal_bytes_logged()).sum::<u64>() - wal_before)
            as f64,
    );
    crate::proc_metrics(&mut m, &setup_proc, &timed_proc, timed_s);

    // The wire cost of the returning traffic, re-measured from outside
    // `NetClient`: encode each request and reply frame, decode it back.
    let (mut encode_ns, mut decode_ns, mut req_bytes, mut resp_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for (req, response) in &responses {
        let id = state.population[returning[*req]].user_id.clone();
        let t = trace::now();
        let request = wire::encode_message(&Message::Serve {
            id: 1,
            request: ServeRequest::refresh([id]),
        });
        let reply = wire::encode_message(&Message::Served {
            id: 1,
            response: response.clone(),
        });
        encode_ns += trace::now() - t;
        let t = trace::now();
        let decoded = wire::decode_message(&reply, Some(&schema));
        decode_ns += trace::now() - t;
        if decoded.is_err() {
            return Err("a returning reply does not decode".into());
        }
        req_bytes += request.len() as u64 + 4;
        resp_bytes += reply.len() as u64 + 4;
    }
    let n = responses.len().max(1) as f64;
    m.set("wire.req_bytes", req_bytes as f64 / n);
    m.set("wire.resp_bytes", resp_bytes as f64 / n);
    m.set("wire.encode_us", encode_ns as f64 / 1e3 / n);
    m.set("wire.decode_us", decode_ns as f64 / 1e3 / n);

    // Output checks (each pass scanned the whole population, above):
    // returning users recompute nothing, and sampled replies carry the same
    // insights as a cold serve on the retrained system.
    if report.recomputed_time_points != 0 {
        return Err(format!(
            "returning users recomputed {} time points after the pass",
            report.recomputed_time_points
        ));
    }
    let oracle = JitService::with_shared(
        Arc::clone(&next),
        Arc::new(MemorySnapshotStore::new()),
    );
    for (req, response) in responses.iter().take(ORACLE_SAMPLE) {
        let member = &state.population[returning[*req]];
        let expected = oracle
            .serve(ServeRequest::NewUser(member.clone()))
            .map(|r| WireResponse::from_response(&r))
            .map_err(|e| format!("oracle failed for {}: {e}", member.user_id))?;
        if content(expected) != content(response.clone()) {
            return Err(format!(
                "refreshed insights of {} differ from the oracle",
                member.user_id
            ));
        }
    }
    m.set("store.users", crate::stored_users(generation.shards()) as f64);

    let spans = trace::take();
    if traced {
        report::span_layers(&mut m, &spans, (t0, t1), &stale_windows);
    }
    Ok(Run { m, attempted, failed, timed_s, spans })
}
