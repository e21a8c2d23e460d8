//! A client that sends requests and never reads its replies must not
//! hold `ServerHandle::shutdown`: the writer's stuck socket write times
//! out after `REPLY_STALL`, and the drain completes.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::start_memory_server;
use pass_distrib::wire::WireMsg;
use pass_server::conn::REPLY_STALL;
use pass_server::frame::encode_msg;
use pass_server::ServerConfig;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn client_that_stops_reading_does_not_block_shutdown() {
    let (server, addr, pass) = start_memory_server(ServerConfig::default());
    pass.ingest_batch(&pass_loadgen::workload::batch(1, 0, 4096, 1)).expect("preload");

    // 400 full pages of about 70 KB each: far more than the send queue
    // and both socket buffers hold, so the server's writes stall.
    let mut stuck = TcpStream::connect(addr).expect("connect");
    let mut requests = Vec::new();
    for op in 1..=400u64 {
        requests.extend(encode_msg(&WireMsg::QueryPage {
            op,
            query: r#"FIND WHERE domain = "loadgen""#.into(),
            after: None,
            limit: 4096,
        }));
    }
    stuck.write_all(&requests).expect("send requests");

    // Wait until the writer is stuck: replies went out, and no more do.
    let mut sent = 0;
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = server.stats().bytes_out;
        if now > 0 && now == sent {
            break;
        }
        sent = now;
    }

    let started = Instant::now();
    let (done, drained) = mpsc::channel();
    let drain = std::thread::spawn(move || done.send(server.shutdown().is_ok()));
    let outcome = drained.recv_timeout(3 * REPLY_STALL);
    let waited = started.elapsed();
    // Only now does the client go away (closing would unblock the write).
    drop(stuck);
    assert_eq!(outcome, Ok(true), "shutdown still blocked after {waited:?}");
    drain.join().expect("drain thread").expect("outcome already received");
}
