//! E10/E11 (bench form): per-operation cost of the store layer — routing,
//! shard-slot lookup, key-table hit, object slot borrow — over the raw
//! object; the batched `read_many`/`update_many` paths against one-by-one
//! operations; and the same update workload across store backends.
//!
//! The harness (`mwllsc-harness e10-store` / `e11-backends`) produces the
//! headline tables; this bench isolates the store's per-op overhead at
//! criterion granularity.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use llsc_baselines::{try_build_store, Algo};
use mwllsc::MwLlSc;
use mwllsc_store::{EpochBackend, Store, StoreConfig};
use std::hint::black_box;

const W: usize = 2;
/// Working set: 1024 keys strided across the whole 2^24-key space.
const TOUCH: u64 = 1024;
const KEYS: u64 = 1 << 24;

fn bench_update_vs_shards(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_store_update_single_thread");
    for shards in [1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &s| {
            let store = Store::new(StoreConfig::new(s, 2, W, KEYS));
            let mut h = store.attach();
            let mut buf = [0u64; W];
            let mut i = 0u64;
            b.iter(|| {
                let key = (i % TOUCH) * (KEYS / TOUCH);
                i += 1;
                h.update_with(black_box(key), &mut buf, |v| v[0] += 1).unwrap();
                black_box(&buf);
            });
        });
    }
    // The raw-object floor: what one update costs with no router, no
    // table, no slot borrow — the difference is the store layer's overhead.
    group.bench_function("raw_mwllsc_floor", |b| {
        let obj = MwLlSc::new(2, W, &[0; W]);
        let mut h = obj.claim(0).expect("fresh object");
        let mut v = [0u64; W];
        b.iter(|| {
            h.ll(&mut v);
            v[0] += 1;
            black_box(h.sc(&v));
        });
    });
    group.finish();
}

fn bench_read_many_vs_loop(c: &mut Criterion) {
    const BATCH: usize = 256;
    let mut group = c.benchmark_group("e10_store_read_256_keys");
    group.throughput(Throughput::Elements(BATCH as u64));
    let store = Store::new(StoreConfig::new(64, 2, W, KEYS));
    let keys: Vec<u64> = (0..BATCH as u64).map(|i| (i * 37 % TOUCH) * (KEYS / TOUCH)).collect();
    {
        let mut h = store.attach();
        for &k in &keys {
            h.update(k, |v| v[0] = k + 1).unwrap();
        }
    }
    group.bench_function("batched_read_many", |b| {
        let mut h = store.attach();
        b.iter(|| black_box(h.read_many(black_box(&keys)).unwrap()));
    });
    group.bench_function("one_by_one", |b| {
        let mut h = store.attach();
        let mut out = vec![0u64; W];
        b.iter(|| {
            for &k in &keys {
                h.read(black_box(k), &mut out).unwrap();
                black_box(&out);
            }
        });
    });
    group.finish();
}

fn bench_update_many_vs_loop(c: &mut Criterion) {
    const BATCH: usize = 256;
    let mut group = c.benchmark_group("e11_store_update_256_keys");
    group.throughput(Throughput::Elements(BATCH as u64));
    let store = Store::new(StoreConfig::new(64, 2, W, KEYS));
    let keys: Vec<u64> = (0..BATCH as u64).map(|i| (i * 37 % TOUCH) * (KEYS / TOUCH)).collect();
    group.bench_function("batched_update_many", |b| {
        let mut h = store.attach();
        let mut batch: Vec<(u64, _)> =
            keys.iter().map(|&k| (k, |v: &mut [u64]| v[0] += 1)).collect();
        b.iter(|| h.update_many(black_box(&mut batch)).unwrap());
    });
    group.bench_function("one_by_one", |b| {
        let mut h = store.attach();
        let mut buf = [0u64; W];
        b.iter(|| {
            for &k in &keys {
                h.update_with(black_box(k), &mut buf, |v| v[0] += 1).unwrap();
            }
        });
    });
    group.finish();
}

fn bench_backend_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_store_backend_update");
    let keys: Vec<u64> = (0..TOUCH).map(|i| i * (KEYS / TOUCH)).collect();
    // The runtime-selectable backends, driven through the erased handle
    // so every row pays the same dispatch cost.
    for algo in [Algo::Jp, Algo::PtrSwap, Algo::SeqLock, Algo::Lock] {
        group.bench_with_input(BenchmarkId::from_parameter(algo), &algo, |b, &algo| {
            let store = try_build_store(algo, StoreConfig::new(8, 2, W, KEYS)).unwrap();
            let mut h = store.attach_dyn();
            let mut buf = [0u64; W];
            let mut i = 0usize;
            b.iter(|| {
                let key = keys[i % keys.len()];
                i += 1;
                h.update_with_dyn(black_box(key), &mut buf, &mut |v| v[0] += 1).unwrap();
            });
        });
    }
    // The typed epoch-substrate variant, same driver.
    group.bench_function("jp-epoch-substrate", |b| {
        let store = Store::<EpochBackend>::new_in(StoreConfig::new(8, 2, W, KEYS));
        let mut h = store.attach();
        let mut buf = [0u64; W];
        let mut i = 0usize;
        b.iter(|| {
            let key = keys[i % keys.len()];
            i += 1;
            h.update_with(black_box(key), &mut buf, |v| v[0] += 1).unwrap();
        });
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(Duration::from_millis(900)).warm_up_time(Duration::from_millis(200));
    targets = bench_update_vs_shards, bench_read_many_vs_loop, bench_update_many_vs_loop, bench_backend_update
);
criterion_main!(benches);
