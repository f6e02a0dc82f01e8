//! The wake paths of the readiness-driven server: an idle server sleeps
//! in the kernel, a new connection wakes a blocked worker, and shutdown
//! wakes every thread at once.
//!
//! The tests count context switches of the server's named threads, so
//! they take one lock: no other server's threads may run alongside.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mwllsc_server::{Client, Server, ServerConfig};
use mwllsc_store::{Store, StoreConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Voluntary context switches per live server thread of this process
/// (`mwllsc-worker-*` and `mwllsc-acceptor`), keyed by task directory.
fn server_thread_switches() -> HashMap<PathBuf, u64> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        let name = comm.trim();
        if !(name.starts_with("mwllsc-worker-") || name == "mwllsc-acceptor") {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let switches = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap();
        out.insert(dir, switches);
    }
    out
}

fn store() -> std::sync::Arc<Store> {
    Store::new(StoreConfig::new(4, 2, 1, 1 << 12))
}

#[test]
fn an_idle_server_parks_its_threads() {
    let _serial = serial();
    let store = store();
    let server = Server::start(&store, ServerConfig::with_workers(2)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.get(1).unwrap().unwrap(), vec![0]);
    // Let the served tick finish and every thread settle into its wait.
    std::thread::sleep(Duration::from_millis(50));

    let before = server_thread_switches();
    assert_eq!(before.len(), 3, "two workers and the acceptor: {before:?}");
    std::thread::sleep(Duration::from_millis(200));
    let after = server_thread_switches();
    let switches: u64 = after.iter().map(|(t, n)| n - before.get(t).copied().unwrap_or(0)).sum();
    assert!(switches < 20, "idle server threads switched {switches} times in 200 ms");

    drop(client);
    server.shutdown();
}

#[test]
fn a_connection_made_while_the_worker_blocks_is_served() {
    let _serial = serial();
    let store = store();
    let server = Server::start(&store, ServerConfig::default()).unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    assert_eq!(first.get(1).unwrap().unwrap(), vec![0]);
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let mut second = Client::connect(server.local_addr()).unwrap();
    assert_eq!(second.get(2).unwrap().unwrap(), vec![0]);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "first reply to a new connection took {took:?}");
    assert_eq!(first.get(3).unwrap().unwrap(), vec![0], "the first connection still works");
    server.shutdown();
}

#[test]
fn shutdown_with_an_idle_connection_is_prompt() {
    let _serial = serial();
    let store = store();
    let config =
        ServerConfig { drain_timeout: Duration::from_millis(500), ..ServerConfig::default() };
    let server = Server::start(&store, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.get(1).unwrap().unwrap(), vec![0]);
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let stats = server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
    assert_eq!(stats.conns_closed, 1, "{stats:?}");
    assert_eq!(store.live_slot_leases(), 0, "shutdown released every worker lease");
    assert!(client.get(1).is_err(), "the server closed the idle connection");
}
