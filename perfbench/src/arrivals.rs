//! `arrivals`: first-time applicants arrive over TCP on a seeded
//! open-loop schedule, one single-user `NewUser` frame each, pipelined
//! on one connection to a `NetServer` in front of an in-process
//! `ShardedService` with in-memory stores and a bench-scale forest.

use crate::openloop::{self, Planned, Status};
use crate::probe::ProcSample;
use crate::report::{self, Metrics};
use crate::setup::{self, Rng, Scenario, SHARDS};
use crate::stats::{blocked, median};
use crate::trace;
use crate::{Opts, Run};
use jit_core::JustInTime;
use jit_service::wire::response_bytes;
use jit_service::{
    CohortMember, JitService, MemorySnapshotStore, NetServer, NetServerConfig,
    ServeBackend, ServeRequest, ShardedService, WireResponse,
};
use std::collections::HashSet;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

/// One step of the fixed rate ladder.
pub struct Rung {
    pub rate: f64,
    /// Share of the measured seconds the rung runs for.
    pub share: f64,
    pub p50: &'static str,
    pub tail: &'static str,
}

/// The fixed rate ladder, requests per second, lowest first. At `low`
/// applicants arrive about one at a time, so the end-to-end latency is
/// taken there: it is what a single applicant waits, and the machine's
/// load barely moves it. `mid` and `high` show queueing; `high` keeps
/// headroom below the rate where the parent commit starts shedding, so
/// that a stall of the machine does not turn into shed requests.
pub const LADDER: [Rung; 3] = [
    Rung { rate: 10.0, share: 0.75, p50: "p50_ms.low", tail: "tail_ms.low" },
    Rung { rate: 50.0, share: 0.125, p50: "p50_ms.mid", tail: "tail_ms.mid" },
    Rung { rate: 120.0, share: 0.125, p50: "p50_ms.high", tail: "tail_ms.high" },
];
/// Tail-latency limit a rung must meet to count towards `max_rate_rps`.
pub const LIMIT_MS: f64 = 250.0;
const TREES: usize = 20;
const WARM_USERS: usize = 100;
const WARM_RATE: f64 = 150.0;
const ORACLE_SAMPLE: usize = 24;
/// Blocks each rung's latencies are summarized over: one, since arrivals
/// below the knee barely load the machine.
const BLOCKS: usize = 1;

struct State {
    system: Arc<JustInTime>,
    service: Arc<ShardedService>,
    // Field order is drop order: connections close before the server
    // shuts down.
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    server: NetServer,
    timed: Vec<CohortMember>,
    next_id: u64,
    train_s: f64,
}

/// Requests per rung: each rung runs for its share of the measured time.
fn rung_sizes(seconds: u64) -> Vec<usize> {
    LADDER
        .iter()
        .map(|r| (r.rate * r.share * seconds as f64).round() as usize)
        .collect()
}

fn plan(
    members: &[CohortMember],
    dues: Vec<u64>,
    first_id: u64,
) -> (Vec<Planned>, u64) {
    let mut encode_ns = 0;
    let plan = members
        .iter()
        .zip(dues)
        .enumerate()
        .map(|(i, (m, due))| {
            let id = first_id + i as u64;
            trace::tag_user(&m.user_id, id);
            let (frame, ns) = openloop::encode(id, ServeRequest::NewUser(m.clone()));
            encode_ns += ns;
            Planned { id, due, frame }
        })
        .collect();
    (plan, encode_ns)
}

fn setup(opts: &Opts, traced: bool) -> State {
    let timed_users: usize = rung_sizes(opts.seconds).iter().sum();
    let scenario = Scenario::credit(opts.seed, WARM_USERS + timed_users);
    let t = trace::now();
    let system = Arc::new(scenario.train(TREES));
    let train_s = (trace::now() - t) as f64 / 1e9;
    let (warm, timed) = scenario.split_cohort(WARM_USERS, opts.seed);
    let service =
        Arc::new(ShardedService::from_shared(Arc::clone(&system), SHARDS, 0, |_| {
            trace::store(Arc::new(MemorySnapshotStore::new()), traced)
        }));
    let backend = trace::backend(Arc::clone(&service) as Arc<dyn ServeBackend>, traced);
    let server = NetServer::bind(backend, "127.0.0.1:0", NetServerConfig::default())
        .unwrap_or_else(|e| setup::fail(&format!("bind failed: {e}")));
    let writer = TcpStream::connect(server.addr())
        .unwrap_or_else(|e| setup::fail(&format!("connect failed: {e}")));
    let reader = BufReader::new(
        writer
            .try_clone()
            .unwrap_or_else(|e| setup::fail(&format!("clone failed: {e}"))),
    );
    let mut state =
        State { system, service, writer, reader, server, timed, next_id: 1, train_s };

    // Warm the server, the connection and the caches with users the
    // timed phase never sends.
    let dues = openloop::even_schedule(WARM_RATE, warm.len());
    let (warm_plan, _) = plan(&warm, dues, state.next_id);
    state.next_id += warm.len() as u64;
    let schema = state.system.schema().clone();
    let result = openloop::run_rung(
        &state.writer,
        &mut state.reader,
        &schema,
        &warm_plan,
        &HashSet::new(),
        None,
    );
    if result.outcomes.iter().any(|o| o.status != Status::Served) {
        setup::fail("warm-up requests failed");
    }
    state
}

pub fn run(opts: &Opts, traced: bool, setups: usize) -> Result<Run, String> {
    let mut m = Metrics::default();
    let mut state = crate::repeat_setup(setups, &mut m, || setup(opts, traced));
    m.set("train.train_s", state.train_s);
    let schema = state.system.schema().clone();
    let sizes = rung_sizes(opts.seconds);
    let mut rng = Rng::new(opts.seed, 0x0a7713a1);
    let keep_idx: HashSet<usize> =
        rng.sample(state.timed.len(), ORACLE_SAMPLE).into_iter().collect();

    let cells_before = crate::cells(&state.service).0;
    let setup_proc = ProcSample::now();
    let t0 = trace::now();
    let mut offset = 0usize;
    let (mut attempted, mut failed, mut shed) = (0u64, 0u64, 0u64);
    let (mut served_users, mut sampled_served) = (0usize, 0usize);
    let mut encode_ns = 0u64;
    let mut decode_ns = 0u64;
    let (mut req_bytes, mut resp_bytes) = (0u64, 0u64);
    let (mut gen_lag_ms, mut outstanding_max, mut queue_max) = (0.0f64, 0usize, 0usize);
    let mut kept: Vec<(usize, WireResponse)> = Vec::new();
    let mut max_rate = 0.0f64;
    let mut report = jit_service::WireReport::default();
    let mut rung_latency: Vec<Vec<f64>> = Vec::new();
    for (rung, size) in LADDER.iter().zip(&sizes) {
        let members = &state.timed[offset..offset + size];
        let first_id = state.next_id;
        let dues = openloop::poisson_schedule(&mut rng, rung.rate, members.len());
        let (rung_plan, ns) = plan(members, dues, first_id);
        encode_ns += ns;
        req_bytes += rung_plan.iter().map(|p| p.frame.len() as u64 + 4).sum::<u64>();
        let keep: HashSet<u64> = (0..*size)
            .filter(|i| keep_idx.contains(&(offset + i)))
            .map(|i| first_id + i as u64)
            .collect();
        let server = &state.server;
        let probe = move || server.stats().queued;
        let result = openloop::run_rung(
            &state.writer,
            &mut state.reader,
            &schema,
            &rung_plan,
            &keep,
            if traced { Some(&probe) } else { None },
        );
        state.next_id += *size as u64;

        let mut latencies = Vec::with_capacity(*size);
        let mut rung_misses = 0usize;
        for (o, p) in result.outcomes.iter().zip(&rung_plan) {
            attempted += 1;
            let latency = match o.status {
                Status::Served => {
                    served_users += 1;
                    sampled_served += usize::from(keep.contains(&p.id));
                    resp_bytes += o.resp_bytes;
                    o.latency_ms()
                }
                Status::Shed => {
                    shed += 1;
                    rung_misses += 1;
                    o.latency_ms().max(LIMIT_MS)
                }
                _ => {
                    failed += 1;
                    rung_misses += 1;
                    o.latency_ms().max(LIMIT_MS)
                }
            };
            latencies.push(latency);
            gen_lag_ms = gen_lag_ms.max(o.sent.saturating_sub(o.due) as f64 / 1e6);
            trace::record("client", p.id, o.sent, o.recv, o.resp_bytes);
        }
        // A backlog grows when the last quarter of the rung waits much
        // longer than the first.
        let quarter = (latencies.len() / 4).max(1);
        let backlog = median(&latencies[latencies.len() - quarter..])
            > 2.0 * median(&latencies[..quarter]) + 10.0;
        let (p50, rung_tail) = blocked(&latencies, BLOCKS);
        if rung_misses == 0 && !backlog && rung_tail <= LIMIT_MS {
            max_rate = max_rate.max(rung.rate);
        }
        m.set(rung.p50, p50);
        m.set(rung.tail, rung_tail);
        decode_ns += result.decode_ns;
        outstanding_max = outstanding_max.max(result.outstanding_max);
        queue_max = queue_max.max(result.queue_max);
        report.cold_time_points += result.report.cold_time_points;
        report.replayed_time_points += result.report.replayed_time_points;
        report.recomputed_time_points += result.report.recomputed_time_points;
        kept.extend(result.kept.into_iter().map(|(i, r)| (offset + i, r)));
        rung_latency.push(latencies);
        offset += size;
    }
    let t1 = trace::now();
    let timed_proc = ProcSample::now();
    let timed_s = (t1 - t0) as f64 / 1e9;

    let low = rung_latency.first().map_or(&[][..], Vec::as_slice);
    report::latency_metrics(&mut m, low, BLOCKS);
    m.set("users_per_s", served_users as f64 / timed_s);
    m.set("max_rate_rps", max_rate);
    m.set("error_share", (failed + shed) as f64 / attempted.max(1) as f64);
    m.set("bench.gen_lag_ms", gen_lag_ms);
    m.set("bench.outstanding_max", outstanding_max as f64);
    m.set("bench.sent", attempted as f64);
    m.set("net.shed", state.server.stats().shed as f64);
    m.set("net.queue_max", queue_max as f64);
    m.set("wire.req_bytes", req_bytes as f64 / attempted.max(1) as f64);
    m.set("wire.resp_bytes", resp_bytes as f64 / served_users.max(1) as f64);
    m.set("wire.encode_us", encode_ns as f64 / 1e3 / attempted.max(1) as f64);
    m.set("wire.decode_us", decode_ns as f64 / 1e3 / attempted.max(1) as f64);
    m.set("service.cold_tp", report.cold_time_points as f64);
    m.set("service.replayed_tp", report.replayed_time_points as f64);
    m.set("service.recomputed_tp", report.recomputed_time_points as f64);
    let (cells_after, models) = crate::cells(&state.service);
    m.set("cache.cells", cells_after as f64);
    m.set(
        "cache.cells_per_user",
        (cells_after - cells_before.min(cells_after)) as f64 / offset.max(1) as f64,
    );
    m.set("cache.models", models as f64);
    crate::proc_metrics(&mut m, &setup_proc, &timed_proc, timed_s);

    // Output check: the sampled responses must be byte-identical to an
    // in-process single-service oracle over the same trained system.
    let oracle = JitService::with_shared(
        Arc::clone(&state.system),
        Arc::new(MemorySnapshotStore::new()),
    );
    for (i, response) in &kept {
        let member = &state.timed[*i];
        let expected = oracle
            .serve(ServeRequest::NewUser(member.clone()))
            .map(|r| WireResponse::from_response(&r))
            .map_err(|e| format!("oracle failed for {}: {e}", member.user_id))?;
        if response_bytes(&expected) != response_bytes(response) {
            return Err(format!(
                "response for {} differs from the oracle",
                member.user_id
            ));
        }
    }
    if kept.len() != sampled_served {
        return Err(format!(
            "{} of {} sampled responses were compared",
            kept.len(),
            sampled_served
        ));
    }
    m.set("store.users", crate::stored_users(state.service.shards()) as f64);

    let spans = trace::take();
    if traced {
        report::span_layers(&mut m, &spans, (t0, t1), &[]);
    }
    Ok(Run { m, attempted, failed: failed + shed, timed_s, spans })
}
