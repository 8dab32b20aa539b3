//! Open-loop arrivals over one TCP connection.
//!
//! A sender thread writes pre-encoded `Serve` frames at their due
//! instants, without waiting for replies (pipelining); a receiver thread
//! reads reply frames and matches them to requests by id. Each request
//! is timed from the instant it was due, so a stall also charges the
//! requests queued behind it. Frames go through the public
//! `wire::{encode_message, write_frame, read_frame, decode_message}` and
//! the socket gets no option that `NetClient` does not set.

use crate::trace;
use jit_data::FeatureSchema;
use jit_service::wire::{self, Message, WireReport, MAX_FRAME_LEN};
use jit_service::{ServeError, ServeRequest, WireResponse};
use std::collections::HashSet;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Slack before the first due instant, so the receiver is reading
/// before the first reply can arrive.
const LEAD_NS: u64 = 2_000_000;
/// How long after the last due instant missing replies are waited for
/// before the connection is cut and they count as failed.
const DRAIN_NS: u64 = 30_000_000_000;

/// One scheduled request.
pub struct Planned {
    pub id: u64,
    /// Due offset from the start of the rung, ns.
    pub due: u64,
    pub frame: Vec<u8>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Pending,
    Served,
    Shed,
    Failed,
}

/// What happened to one request; instants are [`trace::now`] ns.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub due: u64,
    pub sent: u64,
    pub recv: u64,
    pub status: Status,
    pub resp_bytes: u64,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        self.recv.saturating_sub(self.due) as f64 / 1e6
    }
}

/// Result of one rung.
pub struct RungResult {
    pub outcomes: Vec<Outcome>,
    /// Responses kept for the output check, by request index.
    pub kept: Vec<(usize, WireResponse)>,
    pub report: WireReport,
    pub decode_ns: u64,
    pub outstanding_max: usize,
    pub queue_max: usize,
}

/// Encodes a `Serve` frame body; returns it with the encode time, ns.
pub fn encode(id: u64, request: ServeRequest) -> (Vec<u8>, u64) {
    let t = trace::now();
    let body = wire::encode_message(&Message::Serve { id, request });
    (body, trace::now() - t)
}

/// Arrival offsets (ns) of `n` independent users at `rate` per second:
/// a Poisson process conditioned on exactly `n` arrivals in `n / rate`
/// seconds, so every schedule of a rung spans the same time.
pub fn poisson_schedule(rng: &mut crate::setup::Rng, rate: f64, n: usize) -> Vec<u64> {
    let mut at = 0.0f64;
    let mut arrivals: Vec<f64> = (0..=n)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln();
            at
        })
        .collect();
    let scale = n as f64 / rate / arrivals.pop().unwrap_or(1.0);
    arrivals.into_iter().map(|a| (a * scale * 1e9) as u64).collect()
}

/// Evenly spaced offsets (ns) of `n` requests at `rate` per second.
pub fn even_schedule(rate: f64, n: usize) -> Vec<u64> {
    (0..n).map(|i| (i as f64 / rate * 1e9) as u64).collect()
}

fn sleep_until(instant: u64) {
    let now = trace::now();
    if instant > now {
        std::thread::sleep(Duration::from_nanos(instant - now));
    }
}

/// Sends `plan` over the connection and waits for every reply.
/// `queue_probe` is sampled at each send (the traced run passes the
/// server's admission-queue depth).
pub fn run_rung(
    writer: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    schema: &FeatureSchema,
    plan: &[Planned],
    keep: &HashSet<u64>,
    queue_probe: Option<&(dyn Fn() -> usize + Sync)>,
) -> RungResult {
    let n = plan.len();
    let first_id = plan.first().map_or(0, |p| p.id);
    let received = AtomicUsize::new(0);
    let start = trace::now() + LEAD_NS;
    let last_due = start + plan.last().map_or(0, |p| p.due);

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut recv = vec![(0u64, Status::Pending, 0u64); n];
            let mut kept = Vec::new();
            let mut report = WireReport::default();
            let mut decode_ns = 0u64;
            let mut got = 0usize;
            while got < n {
                let Ok(body) = wire::read_frame(reader, MAX_FRAME_LEN) else { break };
                let at = trace::now();
                let message = wire::decode_message(&body, Some(schema));
                decode_ns += trace::now() - at;
                let (id, status) = match message {
                    Ok(Message::Served { id, response }) => {
                        report.users += response.report.users;
                        report.cold_time_points += response.report.cold_time_points;
                        report.replayed_time_points +=
                            response.report.replayed_time_points;
                        report.recomputed_time_points +=
                            response.report.recomputed_time_points;
                        if keep.contains(&id) {
                            kept.push(((id - first_id) as usize, response));
                        }
                        (id, Status::Served)
                    }
                    Ok(Message::Failed { id, error }) if id != 0 => {
                        let status = match error {
                            ServeError::Overloaded { .. } => Status::Shed,
                            _ => Status::Failed,
                        };
                        (id, status)
                    }
                    _ => break,
                };
                let Some(slot) =
                    id.checked_sub(first_id).map(|i| i as usize).filter(|i| *i < n)
                else {
                    break;
                };
                if recv[slot].1 == Status::Pending {
                    recv[slot] = (at, status, body.len() as u64 + 4);
                    got += 1;
                    received.store(got, Ordering::Release);
                }
            }
            (recv, kept, report, decode_ns)
        });

        let mut sent = vec![0u64; n];
        let mut outstanding_max = 0usize;
        let mut queue_max = 0usize;
        let mut writer_ref = writer;
        for (i, p) in plan.iter().enumerate() {
            sleep_until(start + p.due);
            sent[i] = trace::now();
            outstanding_max =
                outstanding_max.max(i + 1 - received.load(Ordering::Acquire));
            if let Some(probe) = queue_probe {
                queue_max = queue_max.max(probe());
            }
            if wire::write_frame(&mut writer_ref, &p.frame, MAX_FRAME_LEN).is_err() {
                break;
            }
        }
        // Wait for the receiver; past the drain deadline, cut the
        // connection so it stops waiting for replies that never come.
        while !receiver.is_finished() {
            if trace::now() > last_due + DRAIN_NS {
                let _ = writer.shutdown(Shutdown::Both);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let (recv, kept, report, decode_ns) = receiver
            .join()
            .unwrap_or_else(|_| crate::setup::fail("receiver thread panicked"));
        let outcomes = plan
            .iter()
            .zip(&sent)
            .zip(recv)
            .map(|((p, &sent), (recv_at, status, resp_bytes))| {
                let status =
                    if status == Status::Pending { Status::Failed } else { status };
                let recv = if recv_at == 0 { trace::now() } else { recv_at };
                Outcome { due: start + p.due, sent, recv, status, resp_bytes }
            })
            .collect();
        RungResult { outcomes, kept, report, decode_ns, outstanding_max, queue_max }
    })
}
