//! The unified serving front end: typed requests, durable snapshots,
//! shards.
//!
//! This example walks the whole `jit-service` story on one synthetic
//! lending history:
//!
//! 1. the admin trains a system and starts a [`ShardedService`] — four
//!    in-process shard workers sharing the trained models, each owning a
//!    **jit-db-backed snapshot store** (one SQL row per snapshot);
//! 2. a mixed workload arrives — a cohort of first-visit users plus one
//!    returning user presenting their own snapshot — as plain
//!    [`ServeRequest`] values, and is routed by consistent hashing,
//!    served in parallel and reassembled in request order;
//! 3. the service tier is torn down ("process restart"): services,
//!    system and stores are dropped, only the four store *databases*
//!    survive, as they would on disk;
//! 4. a new service tier re-opens stores over the same databases and
//!    refreshes the whole population **by user id** — every time point
//!    replays from the persisted snapshots, bit-identical to the
//!    original sessions, without re-running a single search.
//!
//! Run with: `cargo run --release --example service_front_end`

// Example code: unwraps keep the walkthrough focused; a panic is a fine demo failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::prelude::*;
use std::sync::Arc;

/// Four shards, as a production box might run one worker per core.
const SHARDS: usize = 4;

fn main() {
    println!("== JustInTime: the unified serving front end ==\n");

    // ---- 1. Train once, start the sharded service tier ----------------
    println!("[1/4] training on 2007-2016 and starting {SHARDS} shards...");
    let gen = LendingClubGenerator::new(LendingClubParams {
        records_per_year: 400,
        ..Default::default()
    });
    let slice_of = |y: u32| LendingClubGenerator::to_dataset(&gen.records_for_year(y));
    let history: Vec<Dataset> = (2007..=2016).map(slice_of).collect();
    let config = AdminConfig { horizon: 3, start_year: 2017, ..Default::default() };
    let system = JustInTime::train(config.clone(), gen.schema(), &history)
        .expect("training succeeds on generated data");

    // The durable medium: one database per shard. Keep the Arcs — they
    // play the role of the files that survive a real restart.
    let databases: Vec<Arc<Database>> =
        (0..SHARDS).map(|_| Arc::new(Database::new())).collect();
    let service = ShardedService::new(system, SHARDS, 0, |shard| {
        Arc::new(
            DbSnapshotStore::open(Arc::clone(&databases[shard]), gen.schema())
                .expect("fresh databases accept the snapshot DDL"),
        )
    });

    // ---- 2. A mixed new/returning workload ----------------------------
    println!("[2/4] serving a mixed workload across the shards...");
    // Five rejected applicants from the latest year, plus John.
    let present = service.system().models().first().expect("trained");
    let mut members: Vec<CohortMember> = gen
        .records_for_year(2016)
        .into_iter()
        .filter(|r| !present.approves(&r.features))
        .take(5)
        .enumerate()
        .map(|(i, r)| {
            CohortMember::new(format!("applicant-{i}"), UserRequest::new(r.features))
        })
        .collect();
    members.push(CohortMember::new(
        "john",
        UserRequest::new(LendingClubGenerator::john()),
    ));
    let first_visit = service
        .serve(ServeRequest::batch(members.clone()))
        .expect("first visit serves");
    println!("      {}", first_visit.report);
    for user in &first_visit.users {
        println!(
            "      {} -> shard {} ({} candidates)",
            user.user_id,
            service.shard_of(&user.user_id),
            user.session.candidates().len()
        );
    }

    // John immediately returns with his snapshot in hand (the inline
    // returning path — no store involved): everything replays.
    let johns_snapshot = first_visit
        .users
        .iter()
        .find(|u| u.user_id == "john")
        .expect("john served")
        .session
        .snapshot();
    let returning = service
        .serve(ServeRequest::returning([ReturningMember::new(
            "john",
            ReturningUser::unchanged(johns_snapshot),
        )]))
        .expect("inline returning serves");
    println!(
        "      john returns inline: {} (expected: all {} time points replay)\n",
        returning.report, returning.report.replayed_time_points
    );

    // Remember what everyone was told, to verify the post-restart replay.
    let user_ids: Vec<String> =
        first_visit.users.iter().map(|u| u.user_id.clone()).collect();
    let reference: Vec<Vec<u64>> = first_visit
        .users
        .iter()
        .map(|u| {
            u.session
                .candidates()
                .iter()
                .flat_map(|c| c.profile.iter().map(|v| v.to_bits()))
                .collect()
        })
        .collect();
    drop(returning);
    drop(first_visit);

    // ---- 3. Restart: drop the entire service tier ----------------------
    println!("[3/4] restarting the service tier (stores + system dropped)...");
    drop(service);
    // Only `databases` survives — the snapshots are SQL rows in there.
    let stored: usize = databases
        .iter()
        .map(|db| {
            db.execute("SELECT COUNT(*) FROM jit_snapshots")
                .expect("snapshot table persisted")
                .scalar()
                .and_then(|v| v.as_i64())
                .unwrap_or(0) as usize
        })
        .sum();
    println!("      {stored} snapshots survive in the shard databases\n");

    // ---- 4. Refresh-by-id from the persisted snapshots -----------------
    println!("[4/4] new tier, same databases: refreshing by user id...");
    let system = JustInTime::train(config, gen.schema(), &history)
        .expect("retraining on identical data");
    let service = ShardedService::new(system, SHARDS, 0, |shard| {
        Arc::new(
            DbSnapshotStore::open(Arc::clone(&databases[shard]), gen.schema())
                .expect("existing databases re-open"),
        )
    });
    let refreshed = service
        .serve(ServeRequest::refresh(user_ids.clone()))
        .expect("refresh from persisted snapshots");
    println!("      {}", refreshed.report);
    assert_eq!(
        refreshed.report.recomputed_time_points, 0,
        "identical retrain -> identical fingerprints -> full replay"
    );

    // The replay is bit-identical to what the first tier served.
    for (user, expected) in refreshed.users.iter().zip(&reference) {
        let got: Vec<u64> = user
            .session
            .candidates()
            .iter()
            .flat_map(|c| c.profile.iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(&got, expected, "{} diverged after restart", user.user_id);
    }
    println!(
        "\nsanity: all {} users re-served bit-identically from SQL-persisted \
         snapshots",
        refreshed.users.len()
    );
}
