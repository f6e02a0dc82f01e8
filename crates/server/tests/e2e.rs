//! End-to-end server tests over real loopback sockets: pipelined FIFO
//! ordering, coalescing correctness under concurrent clients, typed
//! error replies, framing-failure containment, the graceful-shutdown
//! lease guarantee, and the mesh-routed server.

use std::sync::Arc;

use mwllsc_server::proto::FrameError;
use mwllsc_server::{
    Client, Dispatch, Request, Response, Server, ServerConfig, UpdateOp, WireError,
};
use mwllsc_store::{Store, StoreConfig};

fn small_store() -> Arc<Store> {
    Store::new(StoreConfig::new(8, 4, 2, 1 << 16))
}

/// One connection, deep pipeline, mixed classes: responses come back in
/// request order and reads observe this connection's earlier writes
/// (write-waves dispatch before read-waves).
#[test]
fn pipelined_responses_are_fifo_and_read_your_writes() {
    let store = small_store();
    let server = Server::start(&store, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    const N: u64 = 64;
    for k in 0..N {
        c.send(&Request::Set { key: k, value: vec![k, k * 7] });
        c.send(&Request::Update { key: k, op: UpdateOp::Add(vec![1, 0]) });
        c.send(&Request::Get { key: k });
    }
    c.flush().unwrap();
    for k in 0..N {
        assert_eq!(c.recv().unwrap(), Response::Ok, "SET {k}");
        assert_eq!(c.recv().unwrap(), Response::Value(vec![k + 1, k * 7]), "UPDATE {k}");
        assert_eq!(c.recv().unwrap(), Response::Value(vec![k + 1, k * 7]), "GET {k}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 3 * N);
    assert_eq!(stats.error_replies, 0);
}

/// The same workload answers identically under both dispatch modes.
#[test]
fn coalesced_and_per_request_dispatch_agree() {
    for dispatch in [Dispatch::Coalesced, Dispatch::PerRequest] {
        let store = small_store();
        let server = Server::start(&store, ServerConfig::default().dispatch(dispatch)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        c.mset((0..10).map(|k| (k, vec![k, 0])).collect()).unwrap().unwrap();
        for k in 0..10 {
            c.send(&Request::Update { key: k % 3, op: UpdateOp::Add(vec![1, k]) });
        }
        c.flush().unwrap();
        for _ in 0..10 {
            assert!(matches!(c.recv().unwrap(), Response::Value(_)), "{dispatch:?}");
        }
        let values = c.mget((0..10).collect()).unwrap().unwrap();
        // Keys 0,1,2 absorbed 4,3,3 increments respectively.
        assert_eq!(values[0][0], 4, "{dispatch:?}");
        assert_eq!(values[1][0], 4, "{dispatch:?}");
        assert_eq!(values[2][0], 5, "{dispatch:?}");
        assert_eq!(values[9], vec![9, 0], "{dispatch:?}");
        server.shutdown();
    }
}

/// Many concurrent pipelining clients hammering a tiny hot key set, in
/// both dispatch modes: the final sums are exact (nothing lost to
/// coalescing/folding or to per-request dispatch), and under coalesced
/// dispatch the batch histogram proves coalescing actually merged
/// cross-connection requests.
#[test]
fn concurrent_clients_sum_exactly_and_coalesce() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 30;
    const DEPTH: usize = 16;
    for dispatch in [Dispatch::Coalesced, Dispatch::PerRequest] {
        let store = small_store();
        let server = Server::start(&store, ServerConfig::default().dispatch(dispatch)).unwrap();
        let addr = server.local_addr();

        std::thread::scope(|s| {
            for t in 0..CLIENTS {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for r in 0..ROUNDS {
                        for i in 0..DEPTH {
                            let key = ((t + r + i) % 3) as u64; // 3 hot keys
                            c.send(&Request::Update { key, op: UpdateOp::Add(vec![1, 1]) });
                        }
                        c.flush().unwrap();
                        for _ in 0..DEPTH {
                            assert!(matches!(c.recv().unwrap(), Response::Value(_)));
                        }
                    }
                });
            }
        });

        let mut probe = Client::connect(addr).unwrap();
        let values = probe.mget(vec![0, 1, 2]).unwrap().unwrap();
        let total: u64 = values.iter().map(|v| v[0]).sum();
        assert_eq!(
            total,
            (CLIENTS * ROUNDS * DEPTH) as u64,
            "{dispatch:?}: every increment landed exactly once"
        );
        for v in &values {
            assert_eq!(v[0], v[1], "{dispatch:?}: per-key words move in lockstep");
        }
        let stats = server.shutdown();
        if dispatch == Dispatch::Coalesced {
            let multi = stats.batch_hist[1..].iter().sum::<u64>();
            assert!(multi > 0, "pipelined load must produce multi-entry batches: {stats:?}");
            assert!(
                stats.mean_write_batch() > 1.0,
                "coalescing should exceed one entry per dispatch: {stats:?}"
            );
        }
    }
}

/// Store-shape violations come back as typed errors in pipeline order,
/// and the connection keeps serving afterwards.
#[test]
fn invalid_requests_get_typed_errors_without_poisoning_the_batch() {
    let store = small_store();
    let server = Server::start(&store, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    c.send(&Request::Set { key: 1, value: vec![10, 20] }); // valid
    c.send(&Request::Set { key: 1 << 40, value: vec![1, 2] }); // bad key
    c.send(&Request::Set { key: 2, value: vec![1] }); // bad width
    c.send(&Request::Get { key: 1 }); // still valid
    c.flush().unwrap();

    assert_eq!(c.recv().unwrap(), Response::Ok);
    assert_eq!(
        c.recv().unwrap(),
        Response::Error(WireError::KeyOutOfRange { key: 1 << 40, capacity: 1 << 16 })
    );
    assert_eq!(
        c.recv().unwrap(),
        Response::Error(WireError::WrongValueLen { expected: 2, got: 1 })
    );
    assert_eq!(c.recv().unwrap(), Response::Value(vec![10, 20]), "valid SET survived the batch");

    // Update with wrong operand width, MGet with one bad key: whole
    // request errors, connection still lives.
    assert_eq!(
        c.update(3, UpdateOp::Add(vec![1])).unwrap().unwrap_err(),
        WireError::WrongValueLen { expected: 2, got: 1 }
    );
    assert_eq!(
        c.mget(vec![1, 1 << 40]).unwrap().unwrap_err(),
        WireError::KeyOutOfRange { key: 1 << 40, capacity: 1 << 16 }
    );
    assert_eq!(c.get(1).unwrap().unwrap(), vec![10, 20]);
    server.shutdown();
}

/// Undecodable bytes: every request decoded before the damage is
/// answered, then one `BadFrame` reply, then the connection closes —
/// and other connections are untouched.
#[test]
fn framing_garbage_is_answered_then_closed_without_collateral() {
    let store = small_store();
    let server = Server::start(&store, ServerConfig::default()).unwrap();
    let mut victim = Client::connect(server.local_addr()).unwrap();
    let mut bystander = Client::connect(server.local_addr()).unwrap();

    victim.send(&Request::Set { key: 5, value: vec![1, 2] });
    victim.flush().unwrap();
    // A frame with an unknown version byte.
    let mut garbage = 2u32.to_le_bytes().to_vec();
    garbage.extend_from_slice(&[9, 9]);
    victim.send_raw(&garbage).unwrap();

    assert_eq!(victim.recv().unwrap(), Response::Ok, "pre-damage request served");
    assert_eq!(
        victim.recv().unwrap(),
        Response::Error(WireError::BadFrame(FrameError::BadVersion(9)))
    );
    // After the diagnostic the server closes; the next read reports EOF.
    assert!(victim.recv().is_err(), "poisoned connection closes");

    assert_eq!(bystander.get(5).unwrap().unwrap(), vec![1, 2], "bystander unaffected");
    let stats = server.shutdown();
    assert_eq!(stats.bad_frames, 1);
}

/// The satellite guarantee: shutdown drains in-flight pipelines, leaks
/// no registry slots, and leaves the store fully reusable.
#[test]
fn shutdown_drains_releases_leases_and_store_remains_usable() {
    let store = Store::new(StoreConfig::new(4, 2, 1, 1 << 12));
    let server = Server::start(&store, ServerConfig::with_workers(2)).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for k in 0..32 {
        c.send(&Request::Update { key: k % 4, op: UpdateOp::Add(vec![1]) });
    }
    c.flush().unwrap();
    for _ in 0..32 {
        assert!(matches!(c.recv().unwrap(), Response::Value(_)));
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests, 32);
    assert_eq!(store.live_slot_leases(), 0, "no leaked registry slots after shutdown");

    // The store is still fully usable in-process: the slots the workers
    // held are leasable again and the served values persisted.
    let mut h = store.attach();
    for k in 0..4 {
        assert_eq!(h.read_vec(k).unwrap(), vec![8], "key {k} kept its served value");
        h.update(k, |v| v[0] += 1).unwrap();
    }

    // And a *new* server can be started over the same store.
    let server = Server::start(&store, ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.get(0).unwrap().unwrap(), vec![9]);
    server.shutdown();
    assert_eq!(
        store.live_slot_leases(),
        h.leased_shards(),
        "only the in-process handle's leases remain"
    );
}

/// The mesh dispatch mode: a server whose workers forward decoded
/// frames over SPSC rings to shard-owning mesh workers answers the same
/// pipelined FIFO workload exactly (both dispatch modes), surfaces
/// typed errors through the ring path, and tears down to zero leases.
#[test]
fn mesh_backed_server_serves_exactly_and_releases_leases() {
    use mwllsc_mesh::{Mesh, MeshConfig};
    for dispatch in [Dispatch::Coalesced, Dispatch::PerRequest] {
        let store = small_store();
        let mesh =
            Mesh::try_new(Arc::clone(&store), MeshConfig::default().with_workers(2)).unwrap();
        let server =
            Server::start_mesh(&mesh, ServerConfig::with_workers(2).dispatch(dispatch)).unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        const N: u64 = 48;
        for k in 0..N {
            // Stride the keys so both mesh workers own some of them.
            c.send(&Request::Set { key: k * 131, value: vec![k, 1] });
            c.send(&Request::Update { key: k * 131, op: UpdateOp::Add(vec![1, 1]) });
            c.send(&Request::Get { key: k * 131 });
        }
        c.flush().unwrap();
        for k in 0..N {
            assert_eq!(c.recv().unwrap(), Response::Ok, "{dispatch:?} SET {k}");
            let expect = Response::Value(vec![k + 1, 2]);
            assert_eq!(c.recv().unwrap(), expect, "{dispatch:?} UPDATE {k}");
            assert_eq!(c.recv().unwrap(), expect, "{dispatch:?} GET {k}");
        }
        // Typed errors still come back per-request on the mesh route.
        c.send(&Request::Get { key: u64::MAX });
        c.flush().unwrap();
        assert!(matches!(c.recv().unwrap(), Response::Error(WireError::KeyOutOfRange { .. })));

        let stats = server.shutdown();
        assert_eq!(stats.requests, 3 * N + 1, "{dispatch:?}");
        assert_eq!(stats.error_replies, 1, "{dispatch:?}");
        mesh.shutdown();
        assert_eq!(store.live_slot_leases(), 0, "{dispatch:?}: mesh workers released leases");
    }
}
