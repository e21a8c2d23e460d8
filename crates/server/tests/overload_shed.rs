//! Admission control under pressure: over-threshold publishes are shed
//! with explicit `Overloaded` replies, admitted work still commits, and
//! the server's rejection counters agree with what clients observed.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::{batch, start_memory_server};
use pass_server::{AdmissionConfig, Client, PublishOutcome, ServerConfig};
use std::time::Duration;

fn tiny_budget_config(max_in_flight_bytes: u64) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig { max_in_flight_bytes, ..AdmissionConfig::default() },
    }
}

#[test]
fn over_budget_publish_is_shed_not_hung() {
    // A byte budget smaller than any publish payload: everything sheds.
    let (server, addr, _pass) = start_memory_server(tiny_budget_config(16));
    let mut client = Client::connect(addr).expect("connect");

    for seq in 0..5u64 {
        match client.publish(batch(1, seq)).expect("publish answers") {
            PublishOutcome::Overloaded => {}
            PublishOutcome::Committed(_) => panic!("16-byte budget cannot admit a batch"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.publishes_rejected, 5);
    assert_eq!(stats.publishes_ok, 0);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn shed_is_explicit_and_recoverable() {
    // Generous enough for exactly one in-flight publish at a time; the
    // budget frees when the reply is sent, so sequential publishes all
    // commit. This pins the RAII release: shed would mean a leak.
    let (server, addr, _pass) = start_memory_server(tiny_budget_config(1 << 20));
    let mut client = Client::connect(addr).expect("connect");

    for seq in 0..10u64 {
        match client.publish(batch(2, seq)).expect("publish") {
            PublishOutcome::Committed(ids) => assert_eq!(ids.len(), 2),
            PublishOutcome::Overloaded => panic!("budget must be released between publishes"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.publishes_ok, 10);
    assert_eq!(stats.publishes_rejected, 0);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn mixed_sizes_shed_only_over_budget_batches() {
    // Budget sized between a small and a large batch: the gate sheds by
    // payload size, deterministically, while small work keeps flowing —
    // overload degrades service, it does not stop it.
    let small = pass_loadgen::workload::batch(3, 0, 1, 1);
    let small_payload = {
        use pass_distrib::wire::WireMsg;
        let mut buf = Vec::new();
        WireMsg::Publish { op: 1, sets: small.clone() }.encode_body(&mut buf);
        buf.len() as u64
    };
    let (server, addr, _pass) = start_memory_server(tiny_budget_config(small_payload * 4));
    let mut client = Client::connect(addr).expect("connect");

    let mut committed = 0u64;
    let mut shed = 0u64;
    for round in 0..6u64 {
        match client.publish(pass_loadgen::workload::batch(3, round * 2, 1, 1)).expect("small") {
            PublishOutcome::Committed(_) => committed += 1,
            PublishOutcome::Overloaded => panic!("small batches fit the budget"),
        }
        match client.publish(pass_loadgen::workload::batch(3, round * 2 + 1, 64, 8)).expect("large")
        {
            PublishOutcome::Overloaded => shed += 1,
            PublishOutcome::Committed(_) => panic!("64-set batches exceed the budget"),
        }
    }
    assert_eq!((committed, shed), (6, 6));

    let stats = server.stats();
    assert_eq!(stats.publishes_ok, committed);
    assert_eq!(stats.publishes_rejected, shed);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn open_loop_run_accounts_for_every_publish() {
    // An open-loop burst against a modest byte budget. Whether or not
    // the gate fires on this host, the books must balance: committed +
    // overloaded = sent, client and server counters agree, and nothing
    // errors or goes unanswered.
    let (server, addr, _pass) = start_memory_server(tiny_budget_config(8 << 10));

    let config = pass_loadgen::LoadConfig {
        offered_rate: 400.0,
        duration: Duration::from_secs(2),
        connections: 4,
        sets_per_batch: 4,
        readings_per_set: 4,
        seed: 7,
        drain: Duration::from_secs(5),
    };
    let report = pass_loadgen::run(addr, &config).expect("load run");

    assert!(report.sent > 0, "generator sent something");
    assert_eq!(report.errors, 0, "no protocol errors under load");
    assert_eq!(
        report.committed + report.overloaded,
        report.sent,
        "every publish answered within the drain window (unanswered={})",
        report.unanswered
    );
    assert!(report.latency.count == report.committed);

    let stats = server.stats();
    assert_eq!(stats.publishes_rejected, report.overloaded, "shed counters agree");
    assert_eq!(stats.publishes_ok, report.committed, "commit counters agree");
    server.shutdown().expect("clean shutdown");
}
