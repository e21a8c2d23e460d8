//! A connection runs on exactly two threads, reader and writer, however
//! many subscriptions it opens: the writer serves them all. Alone in its
//! test binary, because every test in one binary shares
//! `/proc/self/task`.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::start_memory_server;
use pass_distrib::wire::WireMsg;
use pass_server::{Client, ServerConfig};
use std::collections::HashSet;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("list /proc/self/task").count()
}

#[test]
fn subscriptions_start_no_threads() {
    let (server, addr, _pass) = start_memory_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    // A round trip proves the connection's reader and writer both run.
    client.stats().expect("stats round trip");
    let before = threads();

    let mut open = HashSet::new();
    for _ in 0..32 {
        open.insert(client.subscribe(r#"SUBSCRIBE FIND WHERE domain = "loadgen""#).expect("send"));
    }
    // Every subscription is served: each reports its catch-up.
    while !open.is_empty() {
        match client.next_push(Duration::from_secs(10)).expect("push stream") {
            Some(WireMsg::SubCaughtUp { op, .. }) => assert!(open.remove(&op), "one marker per op"),
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("{} subscriptions never reported catch-up", open.len()),
        }
    }
    let after = threads();
    assert!(after <= before, "32 subscriptions grew the process from {before} to {after} threads");
    assert_eq!(server.stats().subscriptions, 32);
    server.shutdown().expect("clean shutdown");
}
