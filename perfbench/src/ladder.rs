//! The traced run's per-layer metrics and the layer ladder.
//!
//! After the traced phase and the gates, one thread replays caller 0's
//! recorded op stream down a ladder of rungs, each a layer lower than the
//! next: a `TaggedLlSc` LL+SC pair, a persistent `MwLlSc` handle,
//! claim-per-op, `StoreHandle` per-op calls, `StoreHandle` batches in the
//! workload's round shape, and the `proto` codec. The stream then goes
//! through a 2-worker mesh in 32-op rounds and, unless the workload is
//! itself served over loopback, through a loopback server in 16-request
//! rounds, so every workload reports every layer. Each rung gets an
//! equal time slice; every call is a span.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llsc_word::{LlScCell, TaggedLlSc};
use mwllsc::MwLlSc;
use mwllsc_mesh::{MeshStats, MAX_INLINE_WIDTH, OCC_BUCKETS};
use mwllsc_server::proto::{
    decode_request, decode_response, encode_request, encode_value_response, Decoded,
};
use mwllsc_server::{Request, ServerStats, UpdateOp};
use mwllsc_store::{Store, StoreConfig};

use crate::alloc::heap_delta;
use crate::stream::Stream;
use crate::trace::{Layer, Tracer};
use crate::workload::{
    add_one, mesh_caller, net_caller, preload, start_mesh, start_server, value_ok, Config, Env,
    Front, Outcome, Phase, Setup, Spec, Start, ThreadOut, SPAN_CAP,
};

/// Rungs sharing the ladder's time budget.
const RUNGS: u32 = 8;

/// Ops per net round and per mesh round.
const NET_ROUND: usize = 16;
const MESH_ROUND: usize = 32;

/// Replays `stream` op by op for `slice`; `op(key, updated, n)` runs op
/// `n` and returns when it ended.
fn replay(stream: &Stream, slice: Duration, mut op: impl FnMut(u64, bool, u64) -> Instant) {
    let deadline = Instant::now() + slice;
    let mut n = 0;
    loop {
        for i in 0..stream.rounds() {
            let (writes, reads) = stream.round(i);
            let ops = writes.iter().map(|&k| (k, true)).chain(reads.iter().map(|&k| (k, false)));
            for (key, updated) in ops {
                let t1 = op(key, updated, n);
                n += 1;
                if t1 >= deadline {
                    return;
                }
            }
        }
    }
}

/// Rung 1: one `TaggedLlSc` LL+SC pair per op.
fn rung_llsc(stream: &Stream, slice: Duration, tr: &mut Tracer) {
    let max = u64::from(u32::MAX);
    let cell = TaggedLlSc::with_max(max, 0);
    replay(stream, slice, |_, _, n| {
        let t0 = Instant::now();
        let (v, link) = cell.ll();
        black_box(cell.sc(link, if v == max { 0 } else { v + 1 }));
        let t1 = Instant::now();
        tr.leaf(Layer::LlSc, t0, t1, None, n, 1);
        t1
    });
}

/// Heap bytes of one `MwLlSc::new(c, W)`, counted over 64 objects.
fn core_heap_per_object(spec: &Spec) -> f64 {
    const OBJECTS: usize = 64;
    let init = vec![1u64; spec.width];
    let mut objects = Vec::with_capacity(OBJECTS);
    let ((), bytes) = heap_delta(|| {
        for _ in 0..OBJECTS {
            objects.push(MwLlSc::new(spec.capacity, spec.width, &init));
        }
    });
    bytes as f64 / OBJECTS as f64
}

/// Rungs 2 and 3: the paper object with `N = c` and the workload's `W`,
/// one object per key modulo 1,024. First through persistent handles
/// (slot 0), then `claim(1)` + drop per op.
fn rung_core(spec: &Spec, stream: &Stream, slice: Duration, tr: &mut Tracer) {
    let m = spec.op_keys.min(1_024) as usize;
    let init = vec![1u64; spec.width];
    let objects: Vec<_> = (0..m).map(|_| MwLlSc::new(spec.capacity, spec.width, &init)).collect();
    let mut handles: Vec<_> =
        objects.iter().map(|o| o.claim(0).expect("slot 0 of a fresh object is free")).collect();
    let mut buf = vec![0u64; spec.width];
    replay(stream, slice, |key, updated, n| {
        let h = &mut handles[key as usize % m];
        let t0 = Instant::now();
        if updated {
            loop {
                h.ll(&mut buf);
                add_one(&mut buf);
                if h.sc(&buf) {
                    break;
                }
            }
        } else {
            h.read(&mut buf);
        }
        let t1 = Instant::now();
        let layer = if updated { Layer::CoreUpdate } else { Layer::CoreRead };
        tr.leaf(layer, t0, t1, None, n, 1);
        t1
    });
    replay(stream, slice, |key, _, n| {
        let object = &objects[key as usize % m];
        let t0 = Instant::now();
        drop(black_box(object.claim(1).expect("slot 1 is only claimed here")));
        let t1 = Instant::now();
        tr.leaf(Layer::CoreClaim, t0, t1, None, n, 1);
        t1
    });
}

/// Rung 4: per-op `StoreHandle` calls. Returns (closure invocations,
/// `update_with` calls, failed ops).
fn rung_store(
    store: &Arc<Store>,
    spec: &Spec,
    stream: &Stream,
    slice: Duration,
    tr: &mut Tracer,
) -> (u64, u64, u64) {
    let mut h = store.attach();
    let mut buf = vec![0u64; spec.width];
    let (mut attempts, mut calls, mut failed) = (0u64, 0u64, 0u64);
    replay(stream, slice, |key, updated, n| {
        let t0 = Instant::now();
        let res = if updated {
            h.update_with(key, &mut buf, |v| {
                attempts += 1;
                add_one(v);
            })
        } else {
            h.read(key, &mut buf)
        };
        let t1 = Instant::now();
        let layer = if updated { Layer::StoreUpdate } else { Layer::StoreRead };
        tr.leaf(layer, t0, t1, None, n, 1);
        calls += u64::from(updated);
        failed += u64::from(res.is_err() || !value_ok(key, &buf, updated));
        t1
    });
    (attempts, calls, failed)
}

/// Rung 5: `update_many_with` / `read_many_into` per round. Returns
/// failed ops.
fn rung_batch(
    store: &Arc<Store>,
    spec: &Spec,
    batches: &Stream,
    slice: Duration,
    tr: &mut Tracer,
) -> u64 {
    let w = spec.width;
    let mut h = store.attach();
    let mut rbuf = vec![0u64; batches.round_size() * w];
    let mut failed = 0;
    let deadline = Instant::now() + slice;
    for (n, i) in (0..batches.rounds()).cycle().enumerate() {
        let (writes, reads) = batches.round(i);
        let mut t1 = Instant::now();
        if !writes.is_empty() {
            let t0 = Instant::now();
            let res = h.update_many_with(writes, |_, v| add_one(v));
            t1 = Instant::now();
            tr.leaf(Layer::BatchUpdate, t0, t1, None, n as u64, writes.len() as u64);
            failed += if res.is_err() { writes.len() as u64 } else { 0 };
        }
        if !reads.is_empty() {
            let dst = &mut rbuf[..reads.len() * w];
            let t0 = Instant::now();
            let res = h.read_many_into(reads, dst);
            t1 = Instant::now();
            tr.leaf(Layer::BatchRead, t0, t1, None, n as u64, reads.len() as u64);
            failed += match res {
                Ok(()) => reads
                    .iter()
                    .zip(dst.chunks_exact(w))
                    .map(|(&k, v)| u64::from(!value_ok(k, v, false)))
                    .sum(),
                Err(_) => reads.len() as u64,
            };
        }
        if t1 >= deadline {
            break;
        }
    }
    failed
}

/// Rung 6: encode and decode each round's request frames and matching
/// value responses. Returns frames that failed to round-trip.
fn rung_codec(spec: &Spec, batches: &Stream, slice: Duration, tr: &mut Tracer) -> u64 {
    let mut add = Request::Update { key: 0, op: UpdateOp::Add(vec![1; spec.width]) };
    let value = vec![1u64; spec.width];
    let (mut reqs, mut resps) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let deadline = Instant::now() + slice;
    for (n, i) in (0..batches.rounds()).cycle().enumerate() {
        let (writes, reads) = batches.round(i);
        let frames = writes.len() + reads.len();
        let t0 = Instant::now();
        reqs.clear();
        resps.clear();
        for &k in writes {
            if let Request::Update { key, .. } = &mut add {
                *key = k;
            }
            encode_request(&add, &mut reqs);
            encode_value_response(&value, &mut resps);
        }
        for &k in reads {
            encode_request(&Request::Get { key: k }, &mut reqs);
            encode_value_response(&value, &mut resps);
        }
        let mut decoded = 0;
        let mut at = 0;
        while let Ok(Decoded::Frame(req, used)) = decode_request(&reqs[at..]) {
            black_box(req);
            at += used;
            decoded += 1;
        }
        at = 0;
        while let Ok(Decoded::Frame(resp, used)) = decode_response(&resps[at..]) {
            black_box(resp);
            at += used;
            decoded += 1;
        }
        let t1 = Instant::now();
        tr.leaf(Layer::Codec, t0, t1, None, n as u64, 2 * frames as u64);
        failed += (2 * frames as u64).saturating_sub(decoded);
        if t1 >= deadline {
            break;
        }
    }
    failed
}

/// Rung 7: the stream in 16-request rounds through one loopback client.
/// Returns the server counter deltas and failed ops.
fn rung_loopback(
    store: &Arc<Store>,
    spec: &Spec,
    stream: &Stream,
    slice: Duration,
    tr: &mut Tracer,
) -> Result<(ServerStats, ServerStats, u64), String> {
    let server = start_server(store)?;
    let before = server.stats();
    let out = ThreadOut::new(slice.as_secs_f64(), 0, Some(Tracer::new(tr.epoch(), SPAN_CAP)));
    let rounds = stream.regroup(NET_ROUND);
    let out = net_caller(server.local_addr(), &rounds, spec, out, &Start::new(1));
    let after = server.stats();
    let last = server.shutdown();
    tr.absorb(out.tracer.expect("the rung passed a tracer"));
    Ok((before, after, out.failed + last.error_replies))
}

/// Rung 8: the stream in 32-op rounds through a 2-worker mesh. A store
/// wider than the mesh carries is replaced by a preloaded copy at the
/// widest width it does carry.
fn rung_mesh(
    store: &Arc<Store>,
    spec: &Spec,
    stream: &Stream,
    slice: Duration,
    tr: &mut Tracer,
) -> Result<(MeshStats, MeshStats, u64), String> {
    let mut spec = spec.clone();
    let store = if spec.width > MAX_INLINE_WIDTH {
        spec.width = MAX_INLINE_WIDTH;
        let config = StoreConfig::new(spec.shards, spec.capacity, spec.width, spec.keys);
        let copy = Store::try_new(config).map_err(|e| e.to_string())?;
        preload(&copy, spec.width)?;
        copy
    } else {
        Arc::clone(store)
    };
    let mesh = start_mesh(&store)?;
    let before = mesh.stats();
    let out = ThreadOut::new(slice.as_secs_f64(), 0, Some(Tracer::new(tr.epoch(), SPAN_CAP)));
    let rounds = stream.regroup(MESH_ROUND);
    let out = mesh_caller(&mesh, &rounds, &spec, out, &Start::new(1));
    let after = mesh.stats();
    mesh.shutdown();
    let leaked = store.live_slot_leases() as u64;
    tr.absorb(out.tracer.expect("the rung passed a tracer"));
    Ok((before, after, out.failed + leaked))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median ring occupancy from a log₂ histogram delta (bucket `b ≥ 1`
/// covers `2^(b-1) .. 2^b`), interpolated inside its bucket.
fn occupancy_p50(before: &[u64; OCC_BUCKETS], after: &[u64; OCC_BUCKETS]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let half = delta.iter().sum::<u64>() as f64 / 2.0;
    let mut below = 0u64;
    for (b, &c) in delta.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= half {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1)) as f64;
            return lo + lo * (half - below as f64) / c as f64;
        }
        below += c;
    }
    0.0
}

/// Runs the ladder and pushes every per-layer metric into `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traced_metrics(
    cfg: &Config,
    env: &Env,
    stream: &Stream,
    setup: &Setup,
    plain: &Phase,
    mut traced: Phase,
    server: (Option<ServerStats>, Option<ServerStats>),
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = &cfg.spec;
    let slice = Duration::from_secs_f64(cfg.seconds * 0.4 / f64::from(RUNGS));
    let batches = stream.regroup(if spec.round > 1 { spec.round } else { MESH_ROUND });
    let mut tr = traced.tracer.take().unwrap_or_else(|| Tracer::new(Instant::now(), 0));
    let mut ladder = Tracer::new(tr.epoch(), SPAN_CAP);

    let heap_per_object = core_heap_per_object(spec);
    rung_llsc(stream, slice, &mut ladder);
    rung_core(spec, stream, slice, &mut ladder);
    let (attempts, calls, mut failed) = rung_store(&env.store, spec, stream, slice, &mut ladder);
    failed += rung_batch(&env.store, spec, &batches, slice, &mut ladder);
    failed += rung_codec(spec, &batches, slice, &mut ladder);
    let (s0, s1) = match server {
        (Some(s0), Some(s1)) => (s0, s1),
        _ => {
            let (s0, s1, f) = rung_loopback(&env.store, spec, stream, slice, &mut ladder)?;
            failed += f;
            (s0, s1)
        }
    };
    let (m0, m1, f) = rung_mesh(&env.store, spec, stream, slice, &mut ladder)?;
    failed += f;
    tr.absorb(ladder);
    let p50 = |layer| tr.hist(layer).percentile(0.50);
    let p99 = |layer| tr.hist(layer).percentile(0.99);

    let uf = spec.update_frac();
    let batch_per_key = uf * p50(Layer::BatchUpdate) + (1.0 - uf) * p50(Layer::BatchRead);
    let claim = p50(Layer::CoreClaim);
    let (store_attempts, store_calls) = match spec.front {
        Front::Store => {
            (plain.attempts + traced.attempts, plain.update_calls + traced.update_calls)
        }
        Front::Server => (attempts, calls),
    };
    let touched = setup.space.touched_keys.max(1) as f64;
    let heap_per_key = setup.heap as f64 / touched;
    let reported_per_key = setup.space.total_words() as f64 * 8.0 / touched;

    out.failed += failed;
    out.push("llsc.ll_sc_ns", p50(Layer::LlSc), "ns");
    out.push("core.update_ns", p50(Layer::CoreUpdate), "ns");
    out.push("core.read_ns", p50(Layer::CoreRead), "ns");
    out.push("core.claim_ns", claim, "ns");
    out.push("core.heap_bytes_per_object", heap_per_object, "B");
    out.push("store.update_ns", p50(Layer::StoreUpdate), "ns");
    out.push("store.read_ns", p50(Layer::StoreRead), "ns");
    out.push(
        "store.update_self_ns",
        p50(Layer::StoreUpdate) - p50(Layer::CoreUpdate) - claim,
        "ns",
    );
    out.push("store.read_self_ns", p50(Layer::StoreRead) - p50(Layer::CoreRead) - claim, "ns");
    out.push(
        "store.attempts_per_update",
        ratio(store_attempts as f64, store_calls as f64),
        "ratio",
    );
    out.push("store.heap_bytes_per_key", heap_per_key, "B");
    out.push("store.reported_bytes_per_key", reported_per_key, "B");
    out.push("store.space_overhead", ratio(heap_per_key, reported_per_key), "ratio");
    out.push("store.batch_read_ns_per_key", p50(Layer::BatchRead), "ns");
    out.push("store.batch_update_ns_per_key", p50(Layer::BatchUpdate), "ns");
    let codec = p50(Layer::Codec);
    out.push("server.codec_ns_per_frame", codec, "ns");
    let round = p50(Layer::ClientRound);
    out.push("client.round_p50_ns", round, "ns");
    out.push("client.round_p99_ns", p99(Layer::ClientRound), "ns");
    let per_req = round / NET_ROUND as f64 - 2.0 * codec - batch_per_key;
    out.push("server.self_ns_per_req", per_req, "ns");
    let d = |f: fn(&ServerStats) -> u64| (f(&s1) - f(&s0)) as f64;
    out.push("server.requests_per_wave", ratio(d(|s| s.requests), d(|s| s.waves)), "count");
    let write_batch = ratio(d(|s| s.write_entries), d(|s| s.write_batches));
    out.push("server.mean_write_batch", write_batch, "count");
    out.push("server.mean_read_batch", ratio(d(|s| s.read_keys), d(|s| s.read_batches)), "count");
    out.push("server.backpressure_skips", d(|s| s.backpressure_skips), "count");
    let mesh_round = p50(Layer::MeshRound);
    out.push("mesh.round_p50_ns", mesh_round, "ns");
    out.push("mesh.round_p99_ns", p99(Layer::MeshRound), "ns");
    let mesh_self = mesh_round / MESH_ROUND as f64 - batch_per_key;
    out.push("mesh.self_ns_per_key", mesh_self, "ns");
    let (entries, msgs, waves) = (
        (m1.entries - m0.entries) as f64,
        (m1.msgs - m0.msgs) as f64,
        (m1.waves - m0.waves) as f64,
    );
    out.push("mesh.entries_per_msg", ratio(entries, msgs), "count");
    out.push("mesh.msgs_per_wave", ratio(msgs, waves), "count");
    out.push("mesh.occupancy_p50", occupancy_p50(&m0.occ_hist, &m1.occ_hist), "count");
    let overhead = 1.0 - ratio(traced.throughput(), plain.throughput());
    out.push("trace.overhead_frac", overhead, "ratio");

    if let Some(dir) = &cfg.trace_dir {
        write_trace(&tr, dir, &format!("{}-seed{}.tsv", spec.name, cfg.seed))?;
    }
    Ok(())
}

fn write_trace(tr: &Tracer, dir: &std::path::Path, file: &str) -> Result<(), String> {
    let path = dir.join(file);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_tsv(&mut w)?;
        w.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::occupancy_p50;

    #[test]
    fn occupancy_median_interpolates_in_its_log2_bucket() {
        let mut after = [0u64; super::OCC_BUCKETS];
        after[1] = 10; // occupancy 1
        after[3] = 10; // occupancy 4..8
        assert_eq!(
            occupancy_p50(&[0; super::OCC_BUCKETS], &after),
            2.0,
            "half lands at bucket 1's top"
        );
        after[3] = 30;
        let p = occupancy_p50(&[0; super::OCC_BUCKETS], &after);
        assert!((4.0..8.0).contains(&p), "{p}");
    }
}
