//! Server protocol hot path: encode/decode cost per frame, the per-byte
//! tax the network layer adds on top of the store operations it carries.
//!
//! The repository benchmark (`perfbench/`, workload `net-pipelined`)
//! measures end-to-end requests/sec over loopback; this bench isolates
//! the codec so a framing regression (extra copies, per-word bounds
//! checks going quadratic) is visible independent of socket behavior.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mwllsc_server::proto::{
    decode_request, decode_response, encode_request, encode_response, Decoded,
};
use mwllsc_server::{Request, Response, UpdateOp};

const W: usize = 4;

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("get", Request::Get { key: 42 }),
        ("update_add", Request::Update { key: 42, op: UpdateOp::Add(vec![1; W]) }),
        ("mget_32", Request::MGet { keys: (0..32).collect() }),
        ("mset_32", Request::MSet { pairs: (0..32).map(|k| (k, vec![k; W])).collect() }),
    ]
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_proto_encode");
    for (name, req) in requests() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &req, |b, req| {
            let mut buf = Vec::with_capacity(4096);
            b.iter(|| {
                buf.clear();
                encode_request(black_box(req), &mut buf);
                black_box(buf.len());
            });
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_proto_decode");
    for (name, req) in requests() {
        let mut wire = Vec::new();
        encode_request(&req, &mut wire);
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &wire, |b, wire| {
            b.iter(|| match decode_request(black_box(wire)).expect("well-formed") {
                Decoded::Frame(req, consumed) => {
                    black_box((req, consumed));
                }
                Decoded::NeedMore => unreachable!("complete frame"),
            });
        });
    }
    group.finish();
}

fn bench_response_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_proto_response");
    let resp = Response::Values((0..32).map(|k| vec![k; W]).collect());
    let mut wire = Vec::new();
    encode_response(&resp, &mut wire);
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_values_32", |b| {
        let mut buf = Vec::with_capacity(wire.len());
        b.iter(|| {
            buf.clear();
            encode_response(black_box(&resp), &mut buf);
            black_box(buf.len());
        });
    });
    group.bench_function("decode_values_32", |b| {
        b.iter(|| match decode_response(black_box(&wire)).expect("well-formed") {
            Decoded::Frame(resp, consumed) => {
                black_box((resp, consumed));
            }
            Decoded::NeedMore => unreachable!("complete frame"),
        });
    });
    // A deep pipelined stream: the decoder must split 64 back-to-back
    // frames without rescanning earlier bytes.
    let mut stream = Vec::new();
    for k in 0..64u64 {
        encode_request(&Request::Update { key: k % 4, op: UpdateOp::Add(vec![1; W]) }, &mut stream);
    }
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("decode_pipeline_64", |b| {
        b.iter(|| {
            let mut at = 0;
            let mut n = 0u32;
            while let Decoded::Frame(req, consumed) =
                decode_request(black_box(&stream[at..])).expect("well-formed")
            {
                black_box(req);
                at += consumed;
                n += 1;
                if at == stream.len() {
                    break;
                }
            }
            assert_eq!(n, 64);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_response_roundtrip);
criterion_main!(benches);
