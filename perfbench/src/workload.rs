//! The workloads: set-up, closed-loop phases, and correctness gates.
//!
//! Every workload preloads each key `k` to `k + 1` in every word and
//! then runs closed loops: each caller issues its next op (or round)
//! only after the previous one returned. Updates add 1 to every word, so
//! after the clock stops each key must read exactly `k + 1 + Σ acked`,
//! every read must be at least its key's floor, and a read whose words
//! differ is torn.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use mwllsc_harness::workload::{KeyDist, MixSpec, MIX_A, MIX_B};
use mwllsc_mesh::{InlineVal, Mesh, MeshConfig, UpdateKind};
use mwllsc_server::{
    Client, Dispatch, Request, Response, Server, ServerConfig, ServerStats, UpdateOp,
};
use mwllsc_store::{Store, StoreConfig, StoreSpace};

use crate::alloc::heap_delta;
use crate::hist::Hist;
use crate::stream::Stream;
use crate::trace::{Layer, Tracer};

/// The API a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// Per-op `StoreHandle` calls in process.
    Store,
    /// Pipelined `Client` rounds against a loopback `Server`.
    Server,
}

/// One workload's shape.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// The API driven.
    pub front: Front,
    /// Store shards `S`.
    pub shards: usize,
    /// Slots per shard `c` (the `N` of every per-key object).
    pub capacity: usize,
    /// Words per value `W`.
    pub width: usize,
    /// Keys in the store, all preloaded.
    pub keys: u64,
    /// Ops draw keys from `0..op_keys`.
    pub op_keys: u64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Read/update split.
    pub mix: MixSpec,
    /// Ops per round (1: one call per op).
    pub round: usize,
    /// Closed-loop callers.
    pub threads: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["kv-w1-zipf", "kv-w16-hot", "net-pipelined"];

/// Spans of each layer a tracer keeps for the written trace.
pub(crate) const SPAN_CAP: usize = 1 << 12;

const MIX_HOT: MixSpec = MixSpec { name: "hot", read_pct: 20 };

impl Spec {
    /// The workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        let base = Spec {
            name: "kv-w1-zipf",
            front: Front::Store,
            shards: 8,
            capacity: 8,
            width: 1,
            keys: 65_536,
            op_keys: 65_536,
            dist: KeyDist::Zipfian { theta: 0.99 },
            mix: MIX_A,
            round: 1,
            threads: 2,
        };
        Some(match name {
            "kv-w1-zipf" => base,
            "kv-w16-hot" => Spec {
                name: "kv-w16-hot",
                width: 16,
                keys: 16_384,
                op_keys: 16,
                dist: KeyDist::Uniform,
                mix: MIX_HOT,
                ..base
            },
            "net-pipelined" => {
                Spec { name: "net-pipelined", front: Front::Server, mix: MIX_B, round: 16, ..base }
            }
            _ => return None,
        })
    }

    /// The same workload over a 1,024-key store, for tests.
    #[must_use]
    pub fn tiny(mut self) -> Self {
        self.keys = 1_024;
        self.op_keys = self.op_keys.min(self.keys);
        self
    }

    /// Share of ops that are updates.
    #[must_use]
    pub fn update_frac(&self) -> f64 {
        f64::from(100 - self.mix.read_pct) / 100.0
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub spec: Spec,
    /// Seeds every op stream.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Ops per caller before its stream repeats.
    pub stream_ops: usize,
    /// Set up again until this many seconds went into set-ups (at least
    /// once, at most 25 times); `setup_s` is their median.
    pub setup_budget: f64,
    /// Test hook: leave one acked update out of the books, which the
    /// exact-sum gate must catch.
    pub drop_one_ack: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<std::path::PathBuf>,
}

impl Config {
    /// The full-size configuration.
    #[must_use]
    pub fn new(spec: Spec, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            spec,
            seed,
            seconds,
            trace,
            stream_ops: 1 << 20,
            setup_budget: 1.0,
            drop_one_ack: false,
            trace_dir: None,
        }
    }
}

/// The store plus the server running over it, if the workload has one.
pub(crate) struct Env {
    pub(crate) store: Arc<Store>,
    server: Option<Server>,
}

impl Env {
    /// Stops the server; its final counters come back.
    fn shutdown(&mut self) -> Option<ServerStats> {
        self.server.take().map(Server::shutdown)
    }

    fn server_stats(&self) -> Option<ServerStats> {
        self.server.as_ref().map(Server::stats)
    }
}

/// Builds the store, preloads every key, starts the front. Returns the
/// set-up seconds and the store's heap bytes (construction + preload).
fn build(spec: &Spec) -> Result<(Env, f64, i64), String> {
    let t0 = Instant::now();
    let (store, heap) = heap_delta(|| {
        let config = StoreConfig::new(spec.shards, spec.capacity, spec.width, spec.keys);
        let store = Store::try_new(config).map_err(|e| e.to_string())?;
        preload(&store, spec.width)?;
        Ok::<_, String>(store)
    });
    let store = store?;
    let server = match spec.front {
        Front::Store => None,
        Front::Server => Some(start_server(&store)?),
    };
    Ok((Env { store, server }, t0.elapsed().as_secs_f64(), heap))
}

/// A 1-worker coalescing loopback server over `store`.
pub(crate) fn start_server(store: &Arc<Store>) -> Result<Server, String> {
    let config = ServerConfig::with_workers(1).dispatch(Dispatch::Coalesced);
    Server::start(store, config).map_err(|e| format!("server start: {e}"))
}

/// A 2-worker mesh over `store`.
pub(crate) fn start_mesh(store: &Arc<Store>) -> Result<Arc<Mesh>, String> {
    Mesh::try_new(Arc::clone(store), MeshConfig::default().with_workers(2))
        .map_err(|e| format!("mesh start: {e}"))
}

/// Sets every key `k` to `k + 1` in every word.
pub(crate) fn preload(store: &Arc<Store>, w: usize) -> Result<(), String> {
    const CHUNK: u64 = 1_024;
    let mut h = store.attach();
    let mut start = 0;
    while start < store.key_capacity() {
        let end = (start + CHUNK).min(store.key_capacity());
        let vals: Vec<u64> = (start..end).flat_map(|k| std::iter::repeat_n(k + 1, w)).collect();
        let batch: Vec<(u64, &[u64])> = (start..end).zip(vals.chunks_exact(w)).collect();
        h.write_many(&batch).map_err(|e| format!("preload: {e}"))?;
        start = end;
    }
    Ok(())
}

/// Whether a value read (or installed by an update) for `key` is whole
/// and at or above its floor.
pub(crate) fn value_ok(key: u64, v: &[u64], updated: bool) -> bool {
    let floor = key + 1 + u64::from(updated);
    v[0] >= floor && v.iter().all(|&x| x == v[0])
}

pub(crate) fn add_one(v: &mut [u64]) {
    for x in v {
        *x = x.wrapping_add(1);
    }
}

fn nanos(t0: Instant, t1: Instant) -> u64 {
    t1.saturating_duration_since(t0).as_nanos() as u64
}

/// The shared start line of one phase's callers: all of them start
/// measuring from the same epoch, so their intervals line up.
pub(crate) struct Start {
    barrier: Barrier,
    epoch: OnceLock<Instant>,
}

impl Start {
    pub(crate) fn new(callers: usize) -> Self {
        Self { barrier: Barrier::new(callers), epoch: OnceLock::new() }
    }

    fn go(&self) -> Instant {
        self.barrier.wait();
        *self.epoch.get_or_init(Instant::now)
    }
}

/// The ops and latencies that ended inside one interval.
#[derive(Default)]
struct Slot {
    ops: u64,
    read: Hist,
    update: Hist,
}

impl Slot {
    fn merge(&mut self, other: &Slot) {
        self.ops += other.ops;
        self.read.merge(&other.read);
        self.update.merge(&other.update);
    }
}

/// What one caller thread measured in one phase, interval by interval.
/// Intervals count from the epoch every caller of the phase shares, so
/// an interval's rate is the ops all callers completed in it over its
/// length: the per-worker wall rule, applied per interval.
pub(crate) struct ThreadOut {
    secs: f64,
    /// The stream round this caller starts at.
    first: usize,
    step: Duration,
    next: Instant,
    cur: usize,
    /// One slot per whole interval of the phase, then one for ops that
    /// end past the last whole interval.
    slots: Vec<Slot>,
    rounds: u64,
    ops: u64,
    pub(crate) failed: u64,
    /// Update keys whose op failed: not counted as acked.
    unacked: Vec<u64>,
    /// Invocations of the benchmark's update closure.
    attempts: u64,
    update_calls: u64,
    pub(crate) tracer: Option<Tracer>,
}

impl ThreadOut {
    /// A caller measuring for `secs` in intervals of at most half a
    /// second (at least four per phase).
    pub(crate) fn new(secs: f64, first: usize, tracer: Option<Tracer>) -> Self {
        let step = (secs / 4.0).min(0.5);
        let whole = (secs / step + 1e-9).floor() as usize;
        Self {
            secs,
            first,
            step: Duration::from_secs_f64(step),
            next: Instant::now(),
            cur: 0,
            slots: (0..=whole).map(|_| Slot::default()).collect(),
            rounds: 0,
            ops: 0,
            failed: 0,
            unacked: Vec::new(),
            attempts: 0,
            update_calls: 0,
            tracer,
        }
    }

    /// Waits at the start line and arms the interval clock; returns the
    /// deadline.
    fn begin(&mut self, start: &Start) -> Instant {
        let epoch = start.go();
        self.next = epoch + self.step;
        epoch + Duration::from_secs_f64(self.secs)
    }

    /// The slot of the interval `t` falls in.
    fn slot(&mut self, t: Instant) -> &mut Slot {
        while t >= self.next && self.cur + 1 < self.slots.len() {
            self.cur += 1;
            self.next += self.step;
        }
        &mut self.slots[self.cur]
    }

    /// Books `n` completed ops ending at `t`.
    fn done(&mut self, t: Instant, n: u64) {
        self.slot(t).ops += n;
        self.ops += n;
        self.rounds += 1;
    }
}

/// Measured intervals and totals of one or more phases. Rates and
/// percentiles are medians over whole intervals, so a burst of outside
/// load that spans a few intervals does not move them.
#[derive(Debug, Default)]
pub(crate) struct Phase {
    /// Per interval: ops completed in it over its length.
    rates: Vec<f64>,
    /// Per interval: read and update p50 and p99 (intervals with samples).
    read_p50: Vec<f64>,
    read_p99: Vec<f64>,
    update_p50: Vec<f64>,
    update_p99: Vec<f64>,
    /// Latency samples behind the read and update percentiles.
    pub(crate) read_n: u64,
    pub(crate) update_n: u64,
    pub(crate) ops: u64,
    pub(crate) failed: u64,
    pub(crate) attempts: u64,
    pub(crate) update_calls: u64,
    pub(crate) tracer: Option<Tracer>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.rates.extend(other.rates);
        self.read_p50.extend(other.read_p50);
        self.read_p99.extend(other.read_p99);
        self.update_p50.extend(other.update_p50);
        self.update_p99.extend(other.update_p99);
        self.read_n += other.read_n;
        self.update_n += other.update_n;
        self.ops += other.ops;
        self.failed += other.failed;
        self.attempts += other.attempts;
        self.update_calls += other.update_calls;
        match (self.tracer.as_mut(), other.tracer) {
            (Some(all), Some(more)) => all.absorb(more),
            (None, more) => self.tracer = more,
            _ => {}
        }
    }

    /// Median ops per second over the intervals.
    pub(crate) fn throughput(&self) -> f64 {
        median(&mut self.rates.clone())
    }
}

/// Runs every caller for `secs` from its stream position and books its
/// acked updates into `acked`.
fn run_phase(
    env: &Env,
    spec: &Spec,
    streams: &[Stream],
    secs: f64,
    trace: Option<Instant>,
    acked: &mut [u64],
    positions: &mut [usize],
) -> Phase {
    let start = Start::new(streams.len());
    let addr = env.server.as_ref().map(Server::local_addr);
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .zip(positions.iter())
            .map(|(stream, &first)| {
                let start = &start;
                let tracer = trace.map(|epoch| Tracer::new(epoch, SPAN_CAP));
                let out = ThreadOut::new(secs, first, tracer);
                s.spawn(move || match addr {
                    Some(addr) => net_caller(addr, stream, spec, out, start),
                    None => kv_caller(&env.store, stream, spec, out, start),
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("a workload caller panicked")).collect()
    });

    let mut phase = Phase::default();
    let step = outs[0].step.as_secs_f64();
    for k in 0..outs[0].slots.len() - 1 {
        let mut slot = Slot::default();
        for out in &outs {
            slot.merge(&out.slots[k]);
        }
        phase.rates.push(slot.ops as f64 / step);
        if slot.read.count() > 0 {
            phase.read_p50.push(slot.read.percentile(0.50));
            phase.read_p99.push(slot.read.percentile(0.99));
        }
        if slot.update.count() > 0 {
            phase.update_p50.push(slot.update.percentile(0.50));
            phase.update_p99.push(slot.update.percentile(0.99));
        }
        phase.read_n += slot.read.count();
        phase.update_n += slot.update.count();
    }
    for ((out, stream), pos) in outs.into_iter().zip(streams).zip(positions.iter_mut()) {
        stream.add_acked(*pos, out.rounds, acked);
        *pos = ((*pos as u64 + out.rounds) % stream.rounds() as u64) as usize;
        for k in out.unacked {
            acked[k as usize] -= 1;
        }
        phase.ops += out.ops;
        phase.failed += out.failed;
        phase.attempts += out.attempts;
        phase.update_calls += out.update_calls;
        phase.absorb(Phase { tracer: out.tracer, ..Phase::default() });
    }
    phase
}

fn kv_caller(
    store: &Arc<Store>,
    stream: &Stream,
    spec: &Spec,
    mut out: ThreadOut,
    start: &Start,
) -> ThreadOut {
    let mut h = store.attach();
    let mut buf = vec![0u64; spec.width];
    let mut attempts = 0u64;
    let mut i = out.first;
    let deadline = out.begin(start);
    loop {
        let (writes, reads) = stream.round(i);
        let (key, updated) = match writes.first() {
            Some(&k) => (k, true),
            None => (reads[0], false),
        };
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
        let slot = out.slot(t1);
        let (hist, layer) = if updated {
            (&mut slot.update, Layer::StoreUpdate)
        } else {
            (&mut slot.read, Layer::StoreRead)
        };
        hist.record(nanos(t0, t1));
        out.update_calls += u64::from(updated);
        if let Some(tr) = out.tracer.as_mut() {
            tr.leaf(layer, t0, t1, None, out.rounds, 1);
        }
        match res {
            Ok(()) => out.failed += u64::from(!value_ok(key, &buf, updated)),
            Err(_) => {
                out.failed += 1;
                if updated {
                    out.unacked.push(key);
                }
            }
        }
        out.done(t1, 1);
        i = (i + 1) % stream.rounds();
        if t1 >= deadline {
            break;
        }
    }
    out.attempts = attempts;
    out
}

pub(crate) fn net_caller(
    addr: SocketAddr,
    stream: &Stream,
    spec: &Spec,
    mut out: ThreadOut,
    start: &Start,
) -> ThreadOut {
    let client = Client::connect(addr);
    let deadline = out.begin(start);
    let Ok(mut c) = client else {
        out.failed += 1;
        out.ops += 1;
        return out;
    };
    let mut add = Request::Update { key: 0, op: UpdateOp::Add(vec![1; spec.width]) };
    let mut i = out.first;
    loop {
        let (writes, reads) = stream.round(i);
        let t0 = Instant::now();
        let round = out.tracer.as_mut().map(|tr| tr.open(Layer::ClientRound, t0, None, out.rounds));
        for &k in writes {
            if let Request::Update { key, .. } = &mut add {
                *key = k;
            }
            c.send(&add);
        }
        for &k in reads {
            c.send(&Request::Get { key: k });
        }
        let t_enc = Instant::now();
        let mut broken = c.flush().is_err();
        let t_flush = Instant::now();
        for (j, &k) in writes.iter().chain(reads).enumerate() {
            let updated = j < writes.len();
            let reply = if broken { None } else { c.recv().ok() };
            let t = Instant::now();
            if updated {
                out.update_calls += 1;
            }
            match reply {
                Some(Response::Value(v)) if v.len() == spec.width => {
                    let slot = out.slot(t);
                    let hist = if updated { &mut slot.update } else { &mut slot.read };
                    hist.record(nanos(t0, t));
                    out.failed += u64::from(!value_ok(k, &v, updated));
                }
                other => {
                    broken |= other.is_none();
                    out.failed += 1;
                    if updated {
                        out.unacked.push(k);
                    }
                }
            }
        }
        let t1 = Instant::now();
        if let (Some(tr), Some(round)) = (out.tracer.as_mut(), round) {
            let parent = round.slot();
            tr.leaf(Layer::ClientEncode, t0, t_enc, parent, out.rounds, 1);
            tr.leaf(Layer::ClientFlush, t_enc, t_flush, parent, out.rounds, 1);
            tr.leaf(Layer::ClientRecv, t_flush, t1, parent, out.rounds, 1);
            tr.close(round, t1, 1);
        }
        out.done(t1, (writes.len() + reads.len()) as u64);
        i = (i + 1) % stream.rounds();
        if broken || t1 >= deadline {
            break;
        }
    }
    out
}

pub(crate) fn mesh_caller(
    mesh: &Arc<Mesh>,
    stream: &Stream,
    spec: &Spec,
    mut out: ThreadOut,
    start: &Start,
) -> ThreadOut {
    let w = spec.width;
    let mut h = mesh.attach();
    let one = InlineVal::from_slice(&vec![1; w]).expect("mesh workloads are at most 4 words wide");
    let mut rbuf = vec![0u64; stream.round_size() * w];
    let mut i = out.first;
    let deadline = out.begin(start);
    loop {
        let (writes, reads) = stream.round(i);
        let t0 = Instant::now();
        let round = out.tracer.as_mut().map(|tr| tr.open(Layer::MeshRound, t0, None, out.rounds));
        let parent = round.and_then(|r| r.slot());
        let mut t1 = t0;
        if !writes.is_empty() {
            let res = h.update_batch(writes, &mut |_| (UpdateKind::Add, one), None);
            t1 = Instant::now();
            out.slot(t1).update.record_n(nanos(t0, t1), writes.len() as u64);
            out.update_calls += writes.len() as u64;
            if let Some(tr) = out.tracer.as_mut() {
                tr.leaf(Layer::MeshUpdate, t0, t1, parent, out.rounds, 1);
            }
            if res.is_err() {
                out.failed += writes.len() as u64;
                out.unacked.extend_from_slice(writes);
            }
        }
        let mut t2 = t1;
        if !reads.is_empty() {
            let dst = &mut rbuf[..reads.len() * w];
            let res = h.read_many_into(reads, dst);
            t2 = Instant::now();
            out.slot(t2).read.record_n(nanos(t1, t2), reads.len() as u64);
            if let Some(tr) = out.tracer.as_mut() {
                tr.leaf(Layer::MeshRead, t1, t2, parent, out.rounds, 1);
            }
            if res.is_ok() {
                for (&k, v) in reads.iter().zip(dst.chunks_exact(w)) {
                    out.failed += u64::from(!value_ok(k, v, false));
                }
            } else {
                out.failed += reads.len() as u64;
            }
        }
        if let (Some(tr), Some(round)) = (out.tracer.as_mut(), round) {
            tr.close(round, t2, 1);
        }
        out.done(t2, (writes.len() + reads.len()) as u64);
        i = (i + 1) % stream.rounds();
        if t2 >= deadline {
            break;
        }
    }
    out
}

/// Reads every key back through the workload's front and counts keys
/// whose words are not all `k + 1 + acked[k]`.
fn exact_sum_mismatches(env: &Env, spec: &Spec, acked: &[u64]) -> Result<u64, String> {
    const CHUNK: u64 = 1_024;
    let w = spec.width;
    let mut got = vec![0u64; CHUNK as usize * w];
    let mut client = match env.server.as_ref() {
        Some(s) => Some(Client::connect(s.local_addr()).map_err(|e| format!("probe: {e}"))?),
        None => None,
    };
    let mut store_h = env.store.attach();
    let mut bad = 0;
    let mut start = 0;
    while start < spec.keys {
        let keys: Vec<u64> = (start..(start + CHUNK).min(spec.keys)).collect();
        let dst = &mut got[..keys.len() * w];
        if let Some(c) = client.as_mut() {
            let vals = match c.mget(keys.clone()) {
                Ok(Ok(vals)) => vals,
                other => return Err(format!("probe mget: {other:?}")),
            };
            for (d, v) in dst.chunks_exact_mut(w).zip(&vals) {
                d.copy_from_slice(v);
            }
        } else {
            store_h.read_many_into(&keys, dst).map_err(|e| format!("probe: {e}"))?;
        }
        for (&k, v) in keys.iter().zip(dst.chunks_exact(w)) {
            let want = k + 1 + acked[k as usize];
            if v.iter().any(|&x| x != want) {
                if bad == 0 {
                    eprintln!("exact-sum gate: key {k} holds {v:?}, expected {want} in every word");
                }
                bad += 1;
            }
        }
        start += CHUNK;
    }
    Ok(bad)
}

/// One metric as printed.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, where it is a percentile.
    pub samples: Option<u64>,
}

/// What one invocation measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or failed a correctness check (a
    /// key failing the exact-sum gate counts one).
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub(crate) fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit, samples: None });
    }

    fn push_n(&mut self, name: &'static str, ns: f64, samples: u64) {
        self.push(name, ns, "ns");
        if let Some(m) = self.metrics.last_mut() {
            m.samples = Some(samples);
        }
    }

    /// The value of metric `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Set-up results shared by both kinds of run.
pub(crate) struct Setup {
    pub(crate) heap: i64,
    pub(crate) space: StoreSpace,
}

/// Runs one invocation: streams, set-up, measured phase(s), gates, and
/// for a traced run the layer ladder.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let spec = &cfg.spec;
    let rounds = (cfg.stream_ops / spec.round).max(1);
    let streams: Vec<Stream> = (0..spec.threads)
        .map(|t| {
            Stream::generate(spec.dist, spec.op_keys, spec.mix, spec.round, rounds, cfg.seed, t)
        })
        .collect();

    let mut setup_secs = Vec::new();
    let mut kept: Option<(Env, i64)> = None;
    while setup_secs.is_empty()
        || (setup_secs.iter().sum::<f64>() < cfg.setup_budget && setup_secs.len() < 25)
    {
        if let Some((mut old, _)) = kept.take() {
            old.shutdown();
        }
        let (env, secs, heap) = build(spec)?;
        setup_secs.push(secs);
        kept = Some((env, heap));
    }
    let (mut env, heap) = kept.expect("at least one set-up");
    let setup = Setup { heap, space: env.store.space() };

    // The clock runs in phases of at most a second, each with freshly
    // spawned callers (so one run samples several thread placements)
    // that continue their streams where the last phase stopped. A
    // traced run alternates untraced and traced phases, so drift in the
    // host's speed lands on both sides of the tracing overhead.
    let mut acked = vec![0u64; spec.keys as usize];
    let mut pos = vec![0usize; streams.len()];
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let trace = Some(Instant::now());
    let before = env.server_stats();
    let secs = if cfg.trace { cfg.seconds * 0.3 } else { cfg.seconds };
    let phases = secs.ceil().max(1.0);
    for _ in 0..phases as usize {
        plain.absorb(run_phase(&env, spec, &streams, secs / phases, None, &mut acked, &mut pos));
        if cfg.trace {
            traced.absorb(run_phase(
                &env,
                spec,
                &streams,
                secs / phases,
                trace,
                &mut acked,
                &mut pos,
            ));
        }
    }
    let after = env.server_stats();

    let mut out = Outcome {
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        metrics: Vec::new(),
    };
    if cfg.drop_one_ack {
        if let Some(a) = acked.iter_mut().find(|a| **a > 0) {
            *a -= 1;
        }
    }
    out.failed += exact_sum_mismatches(&env, spec, &acked)?;
    if let Some(stats) = env.shutdown() {
        if stats.error_replies > 0 {
            eprintln!("gate: the server sent {} error replies", stats.error_replies);
        }
        out.failed += stats.error_replies;
    }
    let leases = env.store.live_slot_leases();
    if leases != 0 {
        eprintln!("gate: {leases} shard-slot leases outlived every handle");
        out.failed += leases as u64;
    }

    if cfg.trace {
        let server = (before, after);
        crate::ladder::traced_metrics(
            cfg,
            &env,
            &streams[0],
            &setup,
            &plain,
            traced,
            server,
            &mut out,
        )?;
    } else {
        out.push("throughput_ops_s", plain.throughput(), "ops/s");
        out.push_n("read_p50_ns", median(&mut plain.read_p50), plain.read_n);
        out.push_n("read_p99_ns", median(&mut plain.read_p99), plain.read_n);
        out.push_n("update_p50_ns", median(&mut plain.update_p50), plain.update_n);
        out.push_n("update_p99_ns", median(&mut plain.update_p99), plain.update_n);
        let user_bytes = spec.keys as f64 * spec.width as f64 * 8.0;
        out.push("bytes_per_user_byte", setup.heap as f64 / user_bytes, "B/B");
        out.push("setup_s", median(&mut setup_secs), "s");
    }
    Ok(out)
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
