//! Tiny-size runs of every workload through every gate, the injected
//! accounting fault, and exact repeats of the allocator-derived metrics.

use std::sync::{Mutex, PoisonError};

use mwllsc_perfbench::alloc::heap_delta;
use mwllsc_perfbench::{result_json, run, Config, Outcome, Spec, NAMES};

/// Tests take turns: each one's runs use both cores.
static SERIAL: Mutex<()> = Mutex::new(());

const END_TO_END: [&str; 7] = [
    "throughput_ops_s",
    "read_p50_ns",
    "read_p99_ns",
    "update_p50_ns",
    "update_p99_ns",
    "bytes_per_user_byte",
    "setup_s",
];

const PER_LAYER: [&str; 30] = [
    "llsc.ll_sc_ns",
    "core.update_ns",
    "core.read_ns",
    "core.claim_ns",
    "core.heap_bytes_per_object",
    "store.update_ns",
    "store.read_ns",
    "store.update_self_ns",
    "store.read_self_ns",
    "store.attempts_per_update",
    "store.heap_bytes_per_key",
    "store.reported_bytes_per_key",
    "store.space_overhead",
    "store.batch_read_ns_per_key",
    "store.batch_update_ns_per_key",
    "server.codec_ns_per_frame",
    "client.round_p50_ns",
    "client.round_p99_ns",
    "server.self_ns_per_req",
    "server.requests_per_wave",
    "server.mean_write_batch",
    "server.mean_read_batch",
    "server.backpressure_skips",
    "mesh.round_p50_ns",
    "mesh.round_p99_ns",
    "mesh.self_ns_per_key",
    "mesh.entries_per_msg",
    "mesh.msgs_per_wave",
    "mesh.occupancy_p50",
    "trace.overhead_frac",
];

fn tiny(name: &str, trace: bool) -> Config {
    let spec = Spec::named(name).expect("a listed workload").tiny();
    Config { stream_ops: 4_096, setup_budget: 0.0, ..Config::new(spec, 7, 0.4, trace) }
}

fn run_serial(cfg: &Config) -> Outcome {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    run(cfg).expect("set-up succeeds")
}

fn names(out: &Outcome) -> Vec<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_passes_every_gate_at_tiny_size() {
    for name in NAMES {
        let out = run_serial(&tiny(name, false));
        assert_eq!(out.failed, 0, "{name}: {}", result_json(&out));
        assert!(out.attempted > 0, "{name} ran no ops");
        assert_eq!(names(&out), END_TO_END, "{name}");
        for m in &out.metrics {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
        let json = result_json(&out);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    }
}

#[test]
fn traced_runs_report_every_layer_on_every_workload() {
    for name in NAMES {
        let out = run_serial(&tiny(name, true));
        assert_eq!(out.failed, 0, "{name}: {}", result_json(&out));
        assert_eq!(names(&out), PER_LAYER, "{name}");
        for layer in
            ["llsc.ll_sc_ns", "core.update_ns", "store.read_ns", "server.codec_ns_per_frame"]
        {
            assert!(out.get(layer).unwrap() > 0.0, "{name}: {layer}");
        }
        assert!(out.get("client.round_p50_ns").unwrap() > 0.0, "{name}: no server rounds");
        assert!(out.get("mesh.round_p50_ns").unwrap() > 0.0, "{name}: no mesh rounds");
    }
}

#[test]
fn a_dropped_ack_trips_the_exact_sum_gate() {
    for name in ["kv-w1-zipf", "net-pipelined"] {
        let cfg = Config { drop_one_ack: true, ..tiny(name, false) };
        let out = run_serial(&cfg);
        assert_eq!(out.failed, 1, "{name}: exactly the one key whose ack went missing");
        assert!(result_json(&out).starts_with("{\"correct\": false"));
    }
}

#[test]
fn allocator_counts_repeat_exactly() {
    let heap = |name: &str, metric: &str, trace: bool| {
        let out = run_serial(&tiny(name, trace));
        out.get(metric).expect("metric present")
    };
    for name in ["kv-w1-zipf", "kv-w16-hot"] {
        let a = heap(name, "bytes_per_user_byte", false);
        assert_eq!(a, heap(name, "bytes_per_user_byte", false), "{name}");
    }
    let per_key = heap("kv-w1-zipf", "store.heap_bytes_per_key", true);
    assert_eq!(per_key, heap("kv-w1-zipf", "store.heap_bytes_per_key", true));
    let object = heap("kv-w1-zipf", "core.heap_bytes_per_object", true);
    assert_eq!(object, heap("kv-w1-zipf", "core.heap_bytes_per_object", true));
}

#[test]
fn heap_windows_count_live_bytes_exactly() {
    let (kept, bytes) = heap_delta(|| {
        let kept = vec![0u8; 4096];
        drop(vec![0u64; 100]);
        kept
    });
    assert_eq!(bytes, 4096, "a freed temporary does not count");
    drop(kept);
}
