//! Distribution sanity for the YCSB key generators, driven through the
//! public library surface (what perfbench actually calls): zipfian
//! head mass matches theory, streams are seed-deterministic, and the
//! mix splitter conserves operations.

use mwllsc_harness::workload::{KeyDist, KeyGen, SplitMix64, MIX_A};

#[test]
fn zipfian_head_and_tail_shares_match_theory() {
    let keys = 8_192u64;
    let theta = 0.99;
    let samples = 500_000u64;
    let mut gen = KeyGen::new(KeyDist::Zipfian { theta }, keys);
    let mut rng = SplitMix64::new(0xE16);
    let mut hist = vec![0u64; keys as usize];
    for _ in 0..samples {
        hist[gen.next(&mut rng) as usize] += 1;
    }
    // zeta(8192, 0.99) ~= 9.48; P(rank 0) = 1/zetan ~= 0.105.
    let zetan: f64 = (1..=keys).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    let f0 = hist[0] as f64 / samples as f64;
    assert!((f0 - 1.0 / zetan).abs() < 0.01, "rank-0 share {f0:.4} vs {:.4}", 1.0 / zetan);
    // The head dominates a dense 8k key space: top 16 ranks carry more
    // than a quarter of the draws, yet the deep tail still gets hits.
    let head: u64 = hist[..16].iter().sum();
    assert!(head as f64 / samples as f64 > 0.25, "head share too small");
    let tail: u64 = hist[4096..].iter().sum();
    assert!(tail > 0, "tail starved — every key must be reachable");
}

#[test]
fn workloads_are_reproducible_across_generators() {
    // Two independently constructed generator+rng pairs with the same
    // seed produce identical (read, write) splits — the property that
    // makes perfbench's correctness gates meaningful.
    let mk = || (KeyGen::new(KeyDist::Zipfian { theta: 0.99 }, 1024), SplitMix64::new(42));
    let (mut g1, mut r1) = mk();
    let (mut g2, mut r2) = mk();
    let (mut reads1, mut writes1) = (Vec::new(), Vec::new());
    let (mut reads2, mut writes2) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        MIX_A.fill_round(&mut g1, &mut r1, 64, &mut reads1, &mut writes1);
        MIX_A.fill_round(&mut g2, &mut r2, 64, &mut reads2, &mut writes2);
        assert_eq!(reads1, reads2);
        assert_eq!(writes1, writes2);
        assert_eq!(reads1.len() + writes1.len(), 64);
    }
}
