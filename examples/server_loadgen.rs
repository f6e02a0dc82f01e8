//! Loopback load generator for [`mwllsc-server`]: M client threads ×
//! pipeline depth D standing in for "millions of users", driving the
//! sharded store through the binary protocol.
//!
//! Two key mixes run against both dispatch modes:
//!
//! * **zipfian** — 80% of requests hit 4 hot keys, the shape the wave
//!   coalescer folds into single SC commits per equal-key run;
//! * **uniform** — requests spread over the whole working set, the
//!   worst case for folding (batching still amortizes routing and
//!   shard-slot lookup).
//!
//! Every run asserts exactness: each client counts its acknowledged
//! increments per key, interleaves GETs to check per-key monotonicity
//! (a pipelined connection reads its own writes, and counters never go
//! backwards), and the final over-the-wire MGET must equal the sum of
//! all acknowledgements — network concurrency adds nothing and loses
//! nothing.
//!
//! Run with: `cargo run --release --example server_loadgen`
//!
//! [`mwllsc-server`]: mwllsc_suite::mwllsc_server

use std::sync::Barrier;
use std::time::Instant;

use mwllsc_suite::mwllsc_server::{
    Client, Dispatch, Request, Response, Server, ServerConfig, UpdateOp,
};
use mwllsc_suite::mwllsc_store::{Store, StoreConfig};

const CLIENTS: usize = 8;
const DEPTH: usize = 32;
const ROUNDS: usize = 150;
const KEYSPACE: u64 = 1 << 10;
const HOT: u64 = 4;
const SEED: u64 = 0x10AD_5EED;

/// splitmix64: one deterministic stream per (client, position).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn key_for(mixname: &str, n: u64) -> u64 {
    match mixname {
        "zipfian" => {
            if n % 10 < 8 {
                n % HOT
            } else {
                HOT + (n >> 8) % (KEYSPACE - HOT)
            }
        }
        _ => n % KEYSPACE,
    }
}

/// One full run: fresh store + server, all clients, exact-sum check.
/// Returns requests/sec and the mean write-batch size.
fn run(mixname: &'static str, dispatch: Dispatch) -> (f64, f64) {
    let store = Store::new(StoreConfig::new(8, 4, 1, KEYSPACE));
    let server = Server::start(&store, ServerConfig::with_workers(1).dispatch(dispatch))
        .expect("bind loopback");
    let addr = server.local_addr();

    let barrier = Barrier::new(CLIENTS);
    let runs: Vec<(Instant, Instant, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut acked = vec![0u64; KEYSPACE as usize];
                    let mut floor = vec![0u64; KEYSPACE as usize];
                    barrier.wait();
                    let start = Instant::now();
                    for r in 0..ROUNDS {
                        let keys: Vec<u64> = (0..DEPTH)
                            .map(|i| {
                                key_for(
                                    mixname,
                                    mix(SEED, (t as u64) << 40 | (r * DEPTH + i) as u64),
                                )
                            })
                            .collect();
                        for &k in &keys {
                            c.send(&Request::Update { key: k, op: UpdateOp::Add(vec![1]) });
                        }
                        // Tail each round's pipeline with a GET on its
                        // first key: pipelined FIFO means it must observe
                        // at least everything this client was just acked.
                        c.send(&Request::Get { key: keys[0] });
                        c.flush().expect("flush pipeline");
                        for &k in &keys {
                            match c.recv().expect("recv") {
                                Response::Value(v) => {
                                    acked[k as usize] += 1;
                                    // Installed values are per-key
                                    // monotone: each is past every
                                    // increment this client was acked.
                                    assert!(
                                        v[0] >= acked[k as usize],
                                        "key {k}: installed {} < own acks {}",
                                        v[0],
                                        acked[k as usize]
                                    );
                                }
                                other => panic!("update got {other:?}"),
                            }
                        }
                        match c.recv().expect("recv get") {
                            Response::Value(v) => {
                                let k = keys[0] as usize;
                                assert!(
                                    v[0] >= acked[k] && v[0] >= floor[k],
                                    "key {k}: read-your-writes / monotonicity violated"
                                );
                                floor[k] = v[0];
                            }
                            other => panic!("get got {other:?}"),
                        }
                    }
                    (start, Instant::now(), acked)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // The wall spans the earliest client start to the latest client end.
    // A start stamped in this thread after the barrier would miss the
    // work clients do while it waits to be rescheduled, inflating
    // throughput on a shared core.
    let start = runs.iter().map(|r| r.0).min().expect("at least one client");
    let end = runs.iter().map(|r| r.1).max().expect("at least one client");
    let wall = end.duration_since(start);
    let acked: Vec<Vec<u64>> = runs.into_iter().map(|r| r.2).collect();

    // Exact sum, over the wire: every acknowledged increment landed
    // exactly once across all concurrent pipelines.
    let mut probe = Client::connect(addr).expect("probe connect");
    let keys: Vec<u64> = (0..KEYSPACE).collect();
    let values = probe.mget(keys).expect("probe mget").expect("in range");
    for k in 0..KEYSPACE as usize {
        let expect: u64 = acked.iter().map(|a| a[k]).sum();
        assert_eq!(values[k][0], expect, "key {k}: exact-sum check");
    }
    drop(probe);

    let stats = server.shutdown();
    assert_eq!(store.live_slot_leases(), 0, "shutdown released every lease");
    let total = (CLIENTS * ROUNDS * (DEPTH + 1)) as f64;
    (total / wall.as_secs_f64(), stats.mean_write_batch())
}

fn main() {
    println!(
        "server_loadgen: {CLIENTS} clients x depth {DEPTH} x {ROUNDS} rounds, \
         {KEYSPACE}-key store, exact-sum + per-key monotonicity asserts on\n"
    );
    for mixname in ["zipfian", "uniform"] {
        let (rps_per, _) = run(mixname, Dispatch::PerRequest);
        let (rps_co, mean_batch) = run(mixname, Dispatch::Coalesced);
        println!(
            "{mixname:>8}: per-request {:>8.0} req/s | coalesced {:>8.0} req/s \
             ({:.2}x, mean write batch {mean_batch:.1})",
            rps_per,
            rps_co,
            rps_co / rps_per,
        );
    }
    println!("\nall exactness asserts held: acked increments landed exactly once,");
    println!("pipelined reads observed their own writes, per-key values stayed monotone");
}
