//! The experiments: each function regenerates one table of
//! `EXPERIMENTS.md` (which indexes them and records a full run) and ends
//! in the bounded checks that table supports.

use mwllsc::sync::{AtomicBool, Ordering};
use std::cell::Cell;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use llsc_baselines::{try_build, Algo, MwHandle, SpaceEstimate};
use mwllsc::layout::Layout;
use mwllsc::{smr, EpochLlSc, Handle, LlScCell, LlStrategy, MwLlSc, TaggedLlSc};
use mwllsc_store::{Store, StoreConfig, StoreError};
use simsched::explore::{explore, ExploreConfig};
use simsched::interp::{ll_step_bound, sc_step_bound, SimOp};
use simsched::runner::{run, RunConfig, Sim};
use simsched::sched::{RandomSched, StarveVictim, WeightedRandom};
use simsched::wg::{check_linearizable, CheckConfig};

use crate::table::{fmt_iqr, fmt_ns, fmt_ops, Table};
use crate::timing::{bench_ns, correlation, linear_fit, quartiles, worker_wall, BlockNs, BLOCKS};

thread_local! {
    /// Bounded checks failed so far; every check runs on the main thread.
    static FAILED: Cell<usize> = const { Cell::new(0) };
}

/// Prints one bounded check. `what` states the measured value against its
/// bound. A failure prints `CHECK FAILED: <experiment>: <what>` and is
/// counted, and the process exits 1 once the remaining experiments have
/// run.
fn check(experiment: &str, ok: bool, what: impl std::fmt::Display) {
    if ok {
        println!("check ok: {what}");
    } else {
        FAILED.with(|f| f.set(f.get() + 1));
        println!("CHECK FAILED: {experiment}: {what}");
    }
}

/// A bounded check that nothing failed: `failures` lists what did, and
/// `what` names what a failure is.
fn check_none(experiment: &str, what: &str, failures: &[impl std::fmt::Debug]) {
    check(experiment, failures.is_empty(), format!("{what}: {failures:?} (bound: none)"));
}

/// How many bounded checks have failed in this process.
pub fn failed_checks() -> usize {
    FAILED.with(Cell::get)
}

/// `max / min` of `xs`, 1.0 when perfectly flat. A non-positive minimum (a
/// derived time lost in noise) reads as unbounded, so it fails a flatness
/// bound instead of passing it.
fn max_over_min(xs: &[f64]) -> f64 {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

/// A timing cell: median ±IQR over [`bench_ns`]'s blocks.
fn ns_cell(t: &BlockNs) -> String {
    fmt_iqr(t.median(), t.iqr(), fmt_ns)
}

/// Times each handle's LL alone and its LL;SC pair in one interleaved
/// [`bench_ns`] run, and returns `(LL, pair)` per handle. SC alone is the
/// pair minus LL.
fn ll_and_pair_ns(hs: &mut [impl MwHandle], iters: u64) -> Vec<(BlockNs, BlockNs)> {
    let mut bufs: Vec<Vec<u64>> = hs.iter().map(|h| vec![0; h.width()]).collect();
    let vals: Vec<Vec<u64>> = hs.iter().map(|h| vec![1; h.width()]).collect();
    // Variant 2i is handle i's LL alone, 2i + 1 its LL;SC pair.
    let ns = bench_ns(iters, 2 * hs.len(), |v| {
        let i = v / 2;
        hs[i].ll(&mut bufs[i]);
        if v % 2 == 1 {
            let _ = hs[i].sc(&vals[i]);
        }
    });
    ns.chunks(2).map(|p| (p[0], p[1])).collect()
}

/// Handle 0 of a fresh `n`-process, `w`-word object, one per `(n, w)`.
fn solo_handles(nw: impl Iterator<Item = (usize, usize)>) -> Vec<Handle> {
    nw.map(|(n, w)| MwLlSc::new(n, w, &vec![0u64; w]).claim(0).expect("fresh object")).collect()
}

/// Builds via [`try_build`] and exits the CLI with a clean message (rather
/// than a panic backtrace) if an experiment sweeps into an invalid
/// configuration.
fn build(
    algo: Algo,
    n: usize,
    w: usize,
    initial: &[u64],
) -> (Vec<Box<dyn MwHandle>>, SpaceEstimate) {
    try_build(algo, n, w, initial).unwrap_or_else(|e| {
        eprintln!("mwllsc-harness: cannot build {algo} with n={n}, w={w}: {e}");
        std::process::exit(2);
    })
}

/// E1 — space complexity: the paper's headline `O(NW)` vs `O(N²W)`.
pub fn e1_space(_quick: bool) {
    println!("## E1 — space (64-bit words) vs N and W\n");
    println!("Claim (paper abstract / §1): this algorithm needs O(NW) space;");
    println!("the previous best wait-free algorithm (Anderson–Moir) needs O(N^2 W).\n");
    let (mut cells, mut on_formula) = (0, 0);
    let mut rising_ratio_ws = Vec::new();
    let ws = [1usize, 4, 16, 64];
    for w in ws {
        let mut t = Table::new([
            "N",
            "jp-waitfree (O(NW))",
            "am-style (O(N^2 W))",
            "ratio",
            "lock (O(W))",
            "ptr-swap live",
        ]);
        let init = vec![0u64; w];
        let mut ratios = Vec::new();
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let jp = build(Algo::Jp, n, w, &init).1.shared_words;
            let am = build(Algo::AmStyle, n, w, &init).1.shared_words;
            let lock = build(Algo::Lock, n, w, &init).1.shared_words;
            let ptr = build(Algo::PtrSwap, n, w, &init).1.shared_words;
            cells += 1;
            on_formula += usize::from(jp == 3 * n * w + 3 * n + 1);
            ratios.push(am as f64 / jp as f64);
            t.row([
                n.to_string(),
                jp.to_string(),
                am.to_string(),
                format!("{:.1}x", am as f64 / jp as f64),
                lock.to_string(),
                ptr.to_string(),
            ]);
        }
        if ratios.windows(2).all(|r| r[1] > r[0]) {
            rising_ratio_ws.push(w);
        }
        println!("### W = {w}\n");
        t.print();
        println!();
    }
    println!("Shape check: the jp column grows linearly in N; am-style quadratically;");
    println!("the ratio column grows linearly in N — the paper's factor-N separation.\n");
    check(
        "E1",
        on_formula == cells,
        format!("jp-waitfree words = 3NW + 3N + 1 in {on_formula} of {cells} cells (bound: all)"),
    );
    check(
        "E1",
        rising_ratio_ws.len() == ws.len(),
        format!(
            "am-style/jp strictly increases in N at W in {rising_ratio_ws:?} (bound: all of {ws:?})"
        ),
    );
    println!();
}

/// E2 — LL/SC latency is linear in `W` (Theorem 1: `O(W)` time).
pub fn e2_time_w(quick: bool) {
    println!("## E2 — single-process LL/SC latency vs W (N = 16)\n");
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let n = 16;
    let mut t = Table::new(["W", "LL", "SC", "LL ns/word", "SC ns/word"]);
    let mut ll_pts = Vec::new();
    let mut sc_pts = Vec::new();
    let ws = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let mut hs = solo_handles(ws.iter().map(|&w| (n, w)));
    for (w, (ll, pair)) in ws.into_iter().zip(ll_and_pair_ns(&mut hs, iters)) {
        let sc = pair.minus(&ll);
        ll_pts.push((w as f64, ll.median()));
        sc_pts.push((w as f64, sc.median()));
        t.row([
            w.to_string(),
            ns_cell(&ll),
            ns_cell(&sc),
            format!("{:.2}", ll.median() / w as f64),
            format!("{:.2}", sc.median() / w as f64),
        ]);
    }
    t.print();
    let (ll_slope, ll_icpt) = linear_fit(&ll_pts);
    let (sc_slope, sc_icpt) = linear_fit(&sc_pts);
    let (ll_r, sc_r) = (correlation(&ll_pts), correlation(&sc_pts));
    println!();
    println!(
        "Cells: median ±IQR over {BLOCKS} blocks; SC is the LL;SC pair minus LL, block by block."
    );
    println!(
        "Linear fit of the medians: LL ≈ {ll_slope:.2}·W + {ll_icpt:.0} ns; SC ≈ {sc_slope:.2}·W + {sc_icpt:.0} ns"
    );
    println!("Shape check: a linear model fits both ⇒ O(W) time, as Theorem 1 states.\n");
    check("E2", ll_r >= 0.98, format!("LL medians vs W: Pearson r = {ll_r:.4} (bound ≥ 0.98)"));
    check("E2", sc_r >= 0.98, format!("SC medians vs W: Pearson r = {sc_r:.4} (bound ≥ 0.98)"));
    println!();
}

/// E3 — LL/SC latency is independent of `N` (no `N` term in Theorem 1).
pub fn e3_time_n(quick: bool) {
    println!("## E3 — single-process LL/SC latency vs N (W = 8)\n");
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let w = 8;
    let mut t = Table::new(["N", "LL", "SC"]);
    let (mut lls, mut scs) = (Vec::new(), Vec::new());
    let ns = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut hs = solo_handles(ns.iter().map(|&n| (n, w)));
    for (n, (ll, pair)) in ns.into_iter().zip(ll_and_pair_ns(&mut hs, iters)) {
        let sc = pair.minus(&ll);
        lls.push(ll.median());
        scs.push(sc.median());
        t.row([n.to_string(), ns_cell(&ll), ns_cell(&sc)]);
    }
    t.print();
    println!();
    println!(
        "Cells: median ±IQR over {BLOCKS} blocks; SC is the LL;SC pair minus LL, block by block."
    );
    println!("Shape check: flat in N ⇒ no N term in the time bound.\n");
    let (ll_ratio, sc_ratio) = (max_over_min(&lls), max_over_min(&scs));
    check("E3", ll_ratio <= 2.0, format!("LL max/min over N = {ll_ratio:.2}x (bound ≤ 2.0x)"));
    check("E3", sc_ratio <= 2.0, format!("SC max/min over N = {sc_ratio:.2}x (bound ≤ 2.0x)"));
    println!();
}

/// E4 — VL is `O(1)`: flat across both `N` and `W`.
pub fn e4_vl(quick: bool) {
    println!("## E4 — VL latency across N and W (Theorem 1: O(1))\n");
    let iters: u64 = if quick { 50_000 } else { 500_000 };
    let mut t = Table::new(["N", "W", "VL"]);
    let grid: Vec<(usize, usize)> =
        [2usize, 16, 128].into_iter().flat_map(|n| [1usize, 64, 1024].map(|w| (n, w))).collect();
    let mut hs = solo_handles(grid.iter().copied());
    for (h, &(_, w)) in hs.iter_mut().zip(&grid) {
        h.ll(&mut vec![0u64; w]);
    }
    let vls = bench_ns(iters, hs.len(), |i| {
        let _ = hs[i].vl();
    });
    let mut all = Vec::new();
    for (&(n, w), vl) in grid.iter().zip(&vls) {
        all.push(vl.median());
        t.row([n.to_string(), w.to_string(), ns_cell(vl)]);
    }
    t.print();
    println!();
    println!("Cells: median ±IQR over {BLOCKS} blocks.");
    println!("Shape check: flat in both N and W ⇒ O(1).\n");
    let ratio = max_over_min(&all);
    check("E4", ratio <= 2.0, format!("VL max/min over the grid = {ratio:.2}x (bound ≤ 2.0x)"));
    println!();
}

fn inc_program(rounds: usize) -> Vec<SimOp> {
    let mut ops = Vec::new();
    for _ in 0..rounds {
        ops.push(SimOp::Ll);
        ops.push(SimOp::ScBump(1));
    }
    ops
}

/// E5 — wait-freedom: worst-case steps per operation over adversarial and
/// random schedules, against the theoretical bound.
pub fn e5_waitfree(quick: bool) {
    println!("## E5 — wait-freedom: observed max steps per op vs bound\n");
    println!("Interpreter steps (1 step = 1 shared access or 1 word copied); bound:");
    println!("LL ≤ 8 + 4W, SC ≤ 10 + W, VL ≤ 1 — in *every* schedule.\n");
    let seeds: u64 = if quick { 50 } else { 500 };
    let mut t = Table::new([
        "N",
        "W",
        "schedules",
        "max LL",
        "bound",
        "max SC",
        "bound",
        "max VL",
        "verdict",
    ]);
    let mut failed_rows = Vec::new();
    for (n, w) in [(2usize, 1usize), (2, 4), (3, 2), (4, 8), (4, 32)] {
        let mut max_ll = 0;
        let mut max_sc = 0;
        let mut max_vl = 0;
        let mut schedules = 0u64;
        // Random schedules.
        for seed in 0..seeds {
            let mut programs = vec![inc_program(4); n];
            programs[0].push(SimOp::Vl);
            let sim = Sim::new(w, &vec![0u64; w], programs);
            let report = run(sim, &mut RandomSched::new(seed), &RunConfig::default())
                .unwrap_or_else(|f| panic!("E5 violation: {f}"));
            max_ll = max_ll.max(report.max_op_steps.ll);
            max_sc = max_sc.max(report.max_op_steps.sc);
            max_vl = max_vl.max(report.max_op_steps.vl);
            schedules += 1;
        }
        // Starvation schedules, every victim.
        for victim in 0..n {
            for grant in [20u64, 60, 200] {
                let mut programs = vec![inc_program(6); n];
                programs[victim] = vec![SimOp::Ll, SimOp::Ll, SimOp::Vl];
                let sim = Sim::new(w, &vec![0u64; w], programs);
                let report = run(sim, &mut StarveVictim::new(victim, grant), &RunConfig::default())
                    .unwrap_or_else(|f| panic!("E5 violation: {f}"));
                max_ll = max_ll.max(report.max_op_steps.ll);
                max_sc = max_sc.max(report.max_op_steps.sc);
                max_vl = max_vl.max(report.max_op_steps.vl);
                schedules += 1;
            }
        }
        let ok = max_ll <= ll_step_bound(w) && max_sc <= sc_step_bound(w) && max_vl <= 1;
        if !ok {
            failed_rows.push(format!("N={n} W={w}"));
        }
        t.row([
            n.to_string(),
            w.to_string(),
            schedules.to_string(),
            max_ll.to_string(),
            ll_step_bound(w).to_string(),
            max_sc.to_string(),
            sc_step_bound(w).to_string(),
            max_vl.to_string(),
            if ok { "PASS".into() } else { "FAIL".to_string() },
        ]);
    }
    t.print();
    println!();
    println!("Fault tolerance (§1: progress \"regardless of whether other processes are");
    println!("slow, fast or have crashed\"): processes are crashed at arbitrary steps —");
    println!("possibly mid-operation, announced, or holding a donated buffer — and the");
    println!("survivors must finish within the same bounds:\n");
    let mut t =
        Table::new(["N", "W", "crashes injected", "survivor runs", "max LL (bound)", "violations"]);
    for (n, w) in [(3usize, 2usize), (4, 8)] {
        let mut runs = 0u64;
        let mut max_ll = 0;
        let mut crash_count = 0u64;
        for crash_at in (0..200).step_by(if quick { 40 } else { 10 }) {
            for victim in 0..n {
                let programs = vec![inc_program(5); n];
                let sim = Sim::new(w, &vec![0u64; w], programs);
                let report = simsched::runner::run_with_crashes(
                    sim,
                    &mut RandomSched::new(crash_at as u64 * 7 + victim as u64),
                    &RunConfig::default(),
                    &[(victim, crash_at as u64)],
                )
                .unwrap_or_else(|f| panic!("E5 crash violation: {f}"));
                assert!(report.completed, "survivors must finish");
                max_ll = max_ll.max(report.max_op_steps.ll);
                runs += 1;
                crash_count += 1;
            }
        }
        t.row([
            n.to_string(),
            w.to_string(),
            crash_count.to_string(),
            runs.to_string(),
            format!("{} ({})", max_ll, ll_step_bound(w)),
            "0".into(),
        ]);
    }
    t.print();
    println!();
    println!("Ablation — why helping is necessary: the same starvation adversary, but the");
    println!("victim's LL replaced by the bare read–validate retry loop (no announce, no");
    println!("help). The wait-free LL finishes within bound; the retry LL is still");
    println!("spinning when the step budget expires:\n");
    let mut t =
        Table::new(["W", "victim LL", "grant every", "completed", "steps used", "bound (8+4W)"]);
    for w in [4usize, 16] {
        for (label, op) in [("paper (wait-free)", SimOp::Ll), ("retry-loop", SimOp::LlRetry)] {
            let mut programs = vec![vec![op.clone()]];
            for _ in 0..3 {
                programs.push(inc_program(10_000));
            }
            let sim = Sim::new(w, &vec![0u64; w], programs);
            let cfg = RunConfig {
                record_history: false,
                max_steps: if quick { 60_000 } else { 200_000 },
                ..RunConfig::default()
            };
            let report = run(sim, &mut StarveVictim::new(0, 100), &cfg)
                .unwrap_or_else(|f| panic!("E5 ablation violation: {f}"));
            let victim_done = !report.pending.contains(&0);
            let steps = if op == SimOp::Ll {
                report.max_op_steps.ll.to_string()
            } else if victim_done {
                report.max_op_steps.retry_ll.to_string()
            } else {
                format!(">{} (starved)", cfg.max_steps / 100)
            };
            t.row([
                w.to_string(),
                label.to_string(),
                "100".into(),
                victim_done.to_string(),
                steps,
                ll_step_bound(w).to_string(),
            ]);
        }
    }
    t.print();
    println!();
    println!("Shape check: the observed maxima grow with W and never with the schedule —");
    println!("every operation finishes within its O(W) budget even under starvation and");
    println!("arbitrary crash faults; removing the helping mechanism breaks exactly this.\n");
    check_none("E5", "configs over a step bound", &failed_rows);
    println!();
}

/// E6 — linearizability: exhaustive exploration (tiny configs) plus
/// Wing–Gong checking over sampled schedules; invariants I1/I2/Lemma 3
/// monitored on every step.
pub fn e6_linearizability(quick: bool) {
    println!("## E6 — linearizability and invariants\n");

    println!("### Exhaustive exploration (all schedules, invariants checked each step)\n");
    let mut t =
        Table::new(["config", "programs", "states", "transitions", "complete", "violations"]);
    let mut failed_configs = Vec::new();
    let configs: Vec<(&str, usize, Vec<Vec<SimOp>>)> = vec![
        (
            "N=2 W=1",
            1,
            vec![vec![SimOp::Ll, SimOp::Sc(vec![10])], vec![SimOp::Ll, SimOp::Sc(vec![20])]],
        ),
        (
            "N=2 W=2",
            2,
            vec![
                vec![SimOp::Ll, SimOp::Vl, SimOp::Sc(vec![1, 2])],
                vec![SimOp::Ll, SimOp::Sc(vec![3, 4])],
            ],
        ),
        ("N=2 W=1 2rds", 1, vec![inc_program(2), inc_program(2)]),
        ("N=2 W=1 3rds", 1, vec![inc_program(3), inc_program(3)]),
        ("N=3 W=1", 1, vec![inc_program(1), inc_program(1), inc_program(1)]),
    ];
    for (label, w, programs) in configs {
        let progdesc = format!("{} procs", programs.len());
        let sim = Sim::new(w, &vec![0u64; w], programs);
        let cfg = ExploreConfig {
            max_states: if quick { 2_000_000 } else { 50_000_000 },
            ..ExploreConfig::default()
        };
        match explore(sim, &cfg) {
            Ok(r) => t.row([
                label.to_string(),
                progdesc,
                r.states.to_string(),
                r.transitions.to_string(),
                r.complete.to_string(),
                "0".into(),
            ]),
            Err(f) => {
                failed_configs.push(label);
                t.row([
                    label.to_string(),
                    progdesc,
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    f.to_string(),
                ]);
            }
        }
    }
    t.print();

    println!("\n### Sampled schedules with Wing–Gong history checking\n");
    let seeds: u64 = if quick { 300 } else { 3_000 };
    let mut t = Table::new(["config", "scheduler", "histories", "ops checked", "violations"]);
    let (mut histories, mut non_linearizable) = (0u64, 0u64);
    for (n, w) in [(2usize, 1usize), (3, 1), (3, 2), (4, 2)] {
        for flavor in ["random", "weighted", "starve"] {
            let mut ops_checked = 0u64;
            let mut violations = 0u64;
            for seed in 0..seeds {
                let mut programs = vec![inc_program(3); n];
                programs[(seed as usize) % n].push(SimOp::Vl);
                let sim = Sim::new(w, &vec![0u64; w], programs);
                let report = match flavor {
                    "random" => run(sim, &mut RandomSched::new(seed), &RunConfig::default()),
                    "weighted" => {
                        let mut weights = vec![10.0; n];
                        weights[(seed as usize) % n] = 1.0;
                        run(sim, &mut WeightedRandom::new(weights, seed), &RunConfig::default())
                    }
                    _ => run(
                        sim,
                        &mut StarveVictim::new((seed as usize) % n, 30 + seed % 100),
                        &RunConfig::default(),
                    ),
                }
                .unwrap_or_else(|f| panic!("E6 monitor violation: {f}"));
                ops_checked += report.history.ops().len() as u64;
                if check_linearizable(&report.history, &vec![0u64; w], CheckConfig::default())
                    .is_err()
                {
                    violations += 1;
                }
            }
            t.row([
                format!("N={n} W={w}"),
                flavor.to_string(),
                seeds.to_string(),
                ops_checked.to_string(),
                violations.to_string(),
            ]);
            histories += seeds;
            non_linearizable += violations;
        }
    }
    t.print();

    println!("\n### Long histories via the linearization-point monitor\n");
    println!("The paper's §3 proof (LP assignment + Lemmas 2/4/5/6/8/10/11) runs as an");
    println!("online monitor in O(1) per operation, so histories far beyond Wing–Gong");
    println!("reach are fully verified:\n");
    let rounds: usize = if quick { 2_000 } else { 20_000 };
    let mut t = Table::new([
        "config",
        "scheduler",
        "ops verified",
        "successful SCs",
        "helped LLs",
        "violations",
    ]);
    for (n, w) in [(4usize, 2usize), (4, 8), (8, 4)] {
        for flavor in ["random", "starve"] {
            let mut programs = vec![inc_program(rounds); n];
            if flavor == "starve" {
                programs[0] = vec![SimOp::Ll; rounds / 4];
            }
            let total_ops: usize = programs.iter().map(Vec::len).sum();
            let sim = Sim::new(w, &vec![0u64; w], programs);
            let cfg = RunConfig { record_history: false, ..RunConfig::default() };
            let report = match flavor {
                "random" => run(sim, &mut RandomSched::new(n as u64 * 31 + w as u64), &cfg),
                _ => run(sim, &mut StarveVictim::new(0, 100), &cfg),
            }
            .unwrap_or_else(|f| panic!("E6 LP violation: {f}"));
            assert!(report.completed);
            t.row([
                format!("N={n} W={w}"),
                flavor.to_string(),
                total_ops.to_string(),
                report.x_changes.to_string(),
                report.helped_lls.to_string(),
                "0".into(),
            ]);
        }
    }
    t.print();
    println!();
    println!("Shape check: zero violations everywhere; exhaustive rows cover *every* schedule,");
    println!("and the LP monitor extends the guarantee to histories of 10^5+ operations.\n");
    check_none("E6", "exhaustive configs with a violation", &failed_configs);
    check(
        "E6",
        non_linearizable == 0,
        format!("{non_linearizable} of {histories} sampled histories not linearizable (bound: 0)"),
    );
    println!();
}

fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(0xCBF29CE484222325, |acc, &x| (acc ^ x).wrapping_mul(0x100000001B3))
}

/// E7 — the helping mechanism under real-thread writer storms.
pub fn e7_helping(quick: bool) {
    println!("## E7 — helping mechanism frequency and correctness (real threads)\n");
    let reader_ops: u64 = if quick { 20_000 } else { 200_000 };
    let mut t = Table::new([
        "N",
        "W",
        "reader LLs",
        "helped",
        "rescued",
        "helps given",
        "bank fixups",
        "withdraw races",
        "sc success rate",
        "torn values returned",
    ]);
    let (mut reads, mut torn_total) = (0u64, 0u64);
    for (n, w) in [(2usize, 64usize), (4, 64), (4, 256), (8, 128)] {
        let init = {
            let mut v = vec![0u64; w - 1];
            let c = checksum(&v);
            v.push(c);
            v
        };
        let obj = MwLlSc::new(n, w, &init);
        let mut handles = obj.handles();
        let mut reader = handles.remove(0);
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for mut h in handles {
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut v = vec![0u64; w];
                let mut seed = 1u64;
                h.ll(&mut v);
                while !stop.load(Ordering::Relaxed) {
                    let mut next: Vec<u64> =
                        (0..w as u64 - 1).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
                    next.push(checksum(&next));
                    if h.sc(&next) {
                        seed += 1;
                    }
                    h.ll(&mut v);
                }
                h.stats()
            }));
        }
        let mut torn = 0u64;
        let mut v = vec![0u64; w];
        for _ in 0..reader_ops {
            reader.ll(&mut v);
            if checksum(&v[..w - 1]) != v[w - 1] {
                torn += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        // Counters are per handle: the object's totals are the sum.
        let mut s = reader.stats();
        for j in joins {
            s += j.join().unwrap();
        }
        reads += reader_ops;
        torn_total += torn;
        t.row([
            n.to_string(),
            w.to_string(),
            reader_ops.to_string(),
            s.lls_helped.to_string(),
            s.lls_rescued.to_string(),
            s.helps_given.to_string(),
            s.bank_fixups.to_string(),
            s.withdraw_races.to_string(),
            format!("{:.3}", s.sc_success_rate().unwrap_or(0.0)),
            torn.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("On commodity hardware the overtaken-reader case (paper §2.5 Case iii) is rare:");
    println!("a reader must be descheduled long enough for 2N successful SCs to land inside");
    println!("one of its copy loops. Helped counts are therefore small, and a torn value");
    println!("returned by any LL would violate linearizability.\n");
    check(
        "E7",
        torn_total == 0,
        format!("{torn_total} torn values in {reads} reader LLs (bound: 0)"),
    );
    println!();
    println!("The table below drives the same code path deterministically in the");
    println!("simulator, where the starvation scheduler makes helping mandatory:\n");

    let mut t = Table::new([
        "N",
        "W",
        "grant every",
        "victim LLs",
        "helped",
        "rescued",
        "helps given",
        "verdict",
    ]);
    let mut failed_rows = Vec::new();
    for (n, w, grant) in [(2usize, 8usize, 80u64), (3, 8, 120), (4, 16, 200), (4, 32, 400)] {
        let mut programs = vec![inc_program(30); n];
        programs[0] = vec![SimOp::Ll, SimOp::Ll, SimOp::Ll, SimOp::Ll];
        let victim_lls = programs[0].len() as u64;
        let sim = Sim::new(w, &vec![0u64; w], programs);
        let report = run(sim, &mut StarveVictim::new(0, grant), &RunConfig::default())
            .unwrap_or_else(|f| panic!("E7 sim violation: {f}"));
        let ok = report.completed && report.helped_lls > 0;
        if !ok {
            failed_rows.push(format!("N={n} W={w}"));
        }
        t.row([
            n.to_string(),
            w.to_string(),
            grant.to_string(),
            victim_lls.to_string(),
            report.helped_lls.to_string(),
            report.rescued_lls.to_string(),
            report.helps_given.to_string(),
            if ok { "PASS".to_string() } else { "FAIL".to_string() },
        ]);
    }
    t.print();
    println!();
    println!("Shape check: under forced starvation every victim LL is helped (helped > 0),");
    println!("rescues appear, and the run still completes within the wait-freedom bounds.\n");
    check_none("E7", "starved configs not completed or never helped", &failed_rows);
    println!();
}

/// One E8 storm: `n` threads, each looping LL, `v[0] += 1`, SC until
/// `per_thread` of its SCs succeed. Returns the throughput over the
/// workers' own wall and handle 0's retired-words high-water, sampled
/// during the storm because post-storm the limbo backlog has already
/// drained to ~0.
fn storm(algo: Algo, n: usize, w: usize, per_thread: u64) -> (f64, usize) {
    let (handles, _space) = build(algo, n, w, &vec![0u64; w]);
    let barrier = Barrier::new(n);
    let runs: Vec<(Instant, Instant, usize)> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, mut h)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut v = vec![0u64; w];
                    let (mut wins, mut retired) = (0u64, 0usize);
                    barrier.wait();
                    let start = Instant::now();
                    while wins < per_thread {
                        h.ll(&mut v);
                        v[0] += 1;
                        if h.sc(&v) {
                            wins += 1;
                            if i == 0 {
                                retired = retired.max(h.space().retired_words);
                            }
                        }
                    }
                    (start, Instant::now(), retired)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let secs = worker_wall(runs.iter().map(|r| (r.0, r.1))).as_secs_f64();
    (per_thread as f64 * n as f64 / secs, runs.iter().map(|r| r.2).max().unwrap_or(0))
}

/// E8 — end-to-end comparison: throughput and space, all implementations.
pub fn e8_compare(quick: bool) {
    println!("## E8 — N-thread fetch-update storm: throughput and space\n");
    const STORMS: usize = 3;
    const N: usize = 8;
    let per_thread: u64 = if quick { 10_000 } else { 50_000 };
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let (mut jp_off_formula, mut am_ratios) = (Vec::new(), Vec::new());
    for w in [2usize, 8, 64] {
        let mut t = Table::new([
            "algo",
            "progress",
            "solo LL;SC (N=8)",
            "N=2",
            "N=4",
            "N=8",
            "space words (N=8)",
            "retired high-water",
            "space class",
        ]);
        let (mut jp, mut am) = (0, 0);
        for algo in Algo::ALL {
            let mut cells: Vec<String> = Vec::new();
            // Post-storm reclamation backlog (the epoch-limbo high-water
            // mark): 0 by construction for the bounded algorithms, bounded
            // by O(threads × bag size) for the pointer-swap substrate.
            let mut retired_high = 0usize;
            for n in [2usize, 4, N] {
                let mut ops = [0f64; STORMS];
                for o in &mut ops {
                    let (ops_s, retired) = storm(algo, n, w, per_thread);
                    *o = ops_s;
                    retired_high = retired_high.max(retired);
                }
                let (q1, median, q3) = quartiles(&ops);
                cells.push(fmt_iqr(median, q3 - q1, fmt_ops));
            }
            let (mut handles, space) = build(algo, N, w, &vec![0u64; w]);
            let (_, solo) = ll_and_pair_ns(&mut handles[..1], iters)[0];
            match algo {
                Algo::Jp => jp = space.shared_words,
                Algo::AmStyle => am = space.shared_words,
                _ => {}
            }
            t.row([
                algo.name().to_string(),
                algo.progress().to_string(),
                ns_cell(&solo),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                space.shared_words.to_string(),
                retired_high.to_string(),
                space.asymptotic.to_string(),
            ]);
        }
        if jp != 3 * N * w + 3 * N + 1 {
            jp_off_formula.push(w);
        }
        am_ratios.push(am as f64 / jp as f64);
        println!("### W = {w}\n");
        t.print();
        println!();
    }
    println!("Solo: handle 0 of the N = 8 object running alone, median ±IQR over {BLOCKS}");
    println!("blocks. N = 2, 4, 8: median ±IQR of {STORMS} storms. Throughput has no bound: the");
    println!("N = 4 and N = 8 storms oversubscribe a 2-vCPU host, so who is descheduled");
    println!("mid-operation decides them as much as the algorithm does.\n");
    println!("Shape check: jp-waitfree throughput within a small constant of am-style and");
    println!("ptr-swap, while its space column is ~N× below am-style — the paper's claim:");
    println!("same time class, factor-N less space, no GC dependence.\n");
    check_none("E8", "W where jp-waitfree words at N = 8 ≠ 3NW + 3N + 1", &jp_off_formula);
    let min_ratio = am_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    check(
        "E8",
        min_ratio >= (N / 2) as f64,
        format!("am-style/jp words at N = 8, lowest over W = {min_ratio:.2}x (bound ≥ {}x)", N / 2),
    );
    println!();
}

/// E9 — reclamation: what a successful SC costs on the epoch substrate
/// (allocate + CAS + retire + amortized collection) against the tagged
/// substrate's one CAS, and how many heap nodes a swapping cell holds.
pub fn e9_reclamation(quick: bool) {
    println!("## E9 — reclamation overhead and steady-state memory (one thread)\n");
    println!("Claim (ours): the epoch scheme (`smr`) keeps the pointer substrate's memory");
    println!("at O(threads × bag size) retired nodes whatever the swap count, at an SC");
    println!("overhead within the allocation-per-SC design's budget.\n");
    let iters: u64 = if quick { 100_000 } else { 1_000_000 };
    let tagged = TaggedLlSc::new(32, 0);
    let epoch = EpochLlSc::new(0);
    // Variants: LL alone and the LL;SC pair, on each substrate.
    let ns = bench_ns(iters, 4, |v| {
        if v < 2 {
            let (x, link) = tagged.ll();
            if v == 1 {
                let _ = tagged.sc(link, x + 1);
            }
        } else {
            let (x, link) = epoch.ll();
            if v == 3 {
                let _ = epoch.sc(link, x.wrapping_add(1));
            }
        }
    });
    let stale_cell = EpochLlSc::new(0);
    let (_, stale) = stale_cell.ll();
    let (_, link) = stale_cell.ll();
    assert!(stale_cell.sc(link, 1), "uncontended SC succeeds");
    let epoch_fail = bench_ns(iters, 1, |_| {
        let _ = stale_cell.sc(stale, 2);
    })[0];

    const SWAPS: u64 = 200_000;
    let cell = EpochLlSc::new(0);
    let mut high_water = 0usize;
    for _ in 0..SWAPS {
        let (v, link) = cell.ll();
        assert!(cell.sc(link, v.wrapping_add(1)), "uncontended SC succeeds");
        high_water = high_water.max(cell.tracked_nodes());
    }
    smr::try_flush();
    // The reclamation suite's backlog bound, `(threads + 2) × ADVANCE_EVERY
    // × 16`, at one thread.
    let bound = 3 * smr::ADVANCE_EVERY as usize * 16;

    let mut t = Table::new(["measurement", "value"]);
    t.row(["tagged SC (success)".to_string(), ns_cell(&ns[1].minus(&ns[0]))]);
    t.row([
        "epoch SC (success: alloc + CAS + retire + amortized collection)".to_string(),
        ns_cell(&ns[3].minus(&ns[2])),
    ]);
    t.row(["epoch SC (failure: no retire)".to_string(), ns_cell(&epoch_fail)]);
    t.row([format!("node high-water, {SWAPS} successful swaps"), high_water.to_string()]);
    t.row(["nodes tracked after a flush".to_string(), cell.tracked_nodes().to_string()]);
    t.print();
    println!();
    println!("Timings: median ±IQR over {BLOCKS} blocks; a successful SC is the LL;SC pair");
    println!("minus LL, block by block. Without reclamation the high-water would equal the");
    println!("number of successful swaps.\n");
    check(
        "E9",
        high_water < bound,
        format!("node high-water = {high_water} (bound < (1 + 2) × ADVANCE_EVERY × 16 = {bound})"),
    );
    println!();
}

/// Builds a [`Store`] via [`Store::try_new`] and exits the CLI with a
/// clean message (rather than a panic backtrace) on an invalid
/// configuration.
fn build_store(config: StoreConfig) -> std::sync::Arc<Store> {
    let desc = format!(
        "shards={} capacity={} w={} keys={}",
        config.shards, config.shard_capacity, config.width, config.keys
    );
    Store::try_new(config).unwrap_or_else(|e| {
        eprintln!("mwllsc-harness: cannot build store with {desc}: {e}");
        std::process::exit(2);
    })
}

/// E10 — store scaling: throughput vs shard count and key-space scaling
/// past the single-object `N = 2^22` ceiling, with the honest space
/// rollup.
pub fn e10_store(quick: bool) {
    println!("## E10 — sharded store: scaling past the 2^22 single-object ceiling\n");
    println!("Claim: composing many small O(cW) paper-objects behind a deterministic");
    println!("router serves a 2^24-key space (beyond Layout::MAX_PROCESSES = 2^22) at");
    println!("per-key cost 3cW + 3c + 1 words, materialized lazily; update throughput");
    println!("grows with shard count because handles stop sharing X/Help/Bank regions.\n");

    // The typed-error path the CLI is required to surface cleanly.
    let too_big = Layout::MAX_PROCESSES + 1;
    match Store::try_new(StoreConfig::new(2, too_big, 1, 16)) {
        Err(e @ StoreError::ShardCapacityTooLarge { .. }) => {
            println!("Config validation: shard_capacity = 2^22 + 1 rejected with a typed");
            println!("error (no panic): \"{e}\"\n");
        }
        other => {
            check("E10", false, format!("2^22 + 1 slots gave {other:?}, not ShardCapacityTooLarge"))
        }
    }

    let threads =
        std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).clamp(2, 8);
    let per_thread: u64 = if quick { 20_000 } else { 100_000 };
    let touch: u64 = if quick { 1 << 12 } else { 1 << 14 };
    const KEYS: u64 = 1 << 24;
    let stride = KEYS / touch; // spread the working set across the whole space
    let w = 2;

    println!("### Throughput vs shard count ({threads} threads, {per_thread} updates each,");
    println!("{touch} distinct keys spread over a {KEYS}-key space, W = {w})\n");
    let mut t = Table::new([
        "shards",
        "throughput",
        "sc retries",
        "touched keys",
        "shared words",
        "words/key",
    ]);
    let mut off_rollup = Vec::new();
    for shards in [1usize, 2, 4, 8, 16, 32, 64] {
        let store = build_store(StoreConfig::new(shards, threads, w, KEYS));
        let barrier = Barrier::new(threads);
        let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
            let joins: Vec<_> = (0..threads)
                .map(|tid| {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || {
                        let mut h = store.attach();
                        let mut buf = vec![0u64; w];
                        let mut x = tid as u64 + 1;
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..per_thread {
                            // SplitMix-ish stream, distinct per thread.
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let key = ((x >> 17) % touch) * stride;
                            h.update_with(key, &mut buf, |v| {
                                v[0] += 1;
                                v[1] = v[0] ^ key;
                            })
                            .unwrap();
                        }
                        (start, Instant::now())
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let secs = worker_wall(spans).as_secs_f64();
        let space = store.space();
        let stats = store.stats();
        if space.shared_words != space.touched_keys * space.per_key_shared_words {
            off_rollup.push(format!("{shards} shards"));
        }
        t.row([
            shards.to_string(),
            fmt_ops(per_thread as f64 * threads as f64 / secs),
            stats.update_retries.to_string(),
            space.touched_keys.to_string(),
            space.shared_words.to_string(),
            space.per_key_shared_words.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Shape check (multi-core hosts): throughput rises and SC retries collapse");
    println!("as shards grow — each added shard splits the contended X/Help/Bank");
    println!("regions. On any host the space column stays exactly");
    println!("touched × (3cW + 3c + 1): the honest rollup.\n");

    println!("### Key-space scaling at 64 shards (lazy vs eager footprint)\n");
    let sample: u64 = if quick { 1 << 10 } else { 1 << 12 };
    let mut t = Table::new([
        "key space",
        "vs 2^22 ceiling",
        "keys touched",
        "live words",
        "eager words (avoided)",
        "boundary keys ok",
    ]);
    let mut boundary_failed = Vec::new();
    for exp in [20u32, 22, 24] {
        let keys = 1u64 << exp;
        let store = build_store(StoreConfig::new(64, 2, w, keys));
        let mut h = store.attach();
        let stride = keys / sample;
        let mut ok = true;
        for i in 0..sample {
            let key = i * stride;
            let v = h.update(key, |v| v[0] = key + 1).unwrap();
            ok &= v[0] == key + 1;
        }
        // Both ends of the space must be live.
        ok &= h.update(keys - 1, |v| v[0] = keys).unwrap()[0] == keys;
        ok &= h.read_vec(0).unwrap()[0] == 1;
        let space = store.space();
        if space.shared_words != space.touched_keys * space.per_key_shared_words {
            off_rollup.push(format!("2^{exp} keys"));
        }
        t.row([
            format!("2^{exp}"),
            format!("{:.2}x", keys as f64 / Layout::MAX_PROCESSES as f64),
            space.touched_keys.to_string(),
            space.shared_words.to_string(),
            space.eager_words().to_string(),
            ok.to_string(),
        ]);
        if !ok {
            boundary_failed.push(format!("2^{exp}"));
        }
    }
    t.print();
    println!();
    println!("Shape check: live words track *touched* keys only — a 2^24-key store costs");
    println!("what its working set costs, while the eager column (full materialization)");
    println!("is what a non-lazy design would pay up front.\n");
    check_none("E10", "rows where shared words ≠ touched × words/key", &off_rollup);
    check_none("E10", "key spaces with a wrong boundary or strided key", &boundary_failed);
    println!();
}

/// Ablations — what the design choices cost when nothing contends: the
/// substrate backing the multiword object's cells, and the paper's
/// announce-and-help LL against the lock-free retry-loop LL.
pub fn ablations(quick: bool) {
    const N: usize = 4;
    const W: usize = 8;
    println!("## Ablations — design choices, one handle, uncontended (N = {N}, W = {W})\n");
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let init = [0u64; W];
    let config = "a valid N, W";
    // Tagged cells are the default backing, so the wait-free handle is
    // also the tagged side of the backing row.
    let mut strategies = [LlStrategy::WaitFree, LlStrategy::RetryLoop].map(|s| {
        MwLlSc::try_with_strategy(N, W, &init, s).expect(config).claim(0).expect("fresh object")
    });
    let t = ll_and_pair_ns(&mut strategies, iters);
    let ((wf_ll, wf_pair), (retry_ll, retry_pair)) = (t[0], t[1]);
    let epoch_obj = MwLlSc::<EpochLlSc>::try_new_in(N, W, &init).expect(config);
    let (_, epoch) = ll_and_pair_ns(&mut [epoch_obj.claim(0).expect("fresh object")], iters)[0];

    let mut t = Table::new(["ablation", "variant A", "variant B", "B/A"]);
    for (what, a, b) in [
        ("multiword LL;SC: tagged (A) vs epoch (B) cells", wf_pair, epoch),
        ("LL: wait-free (A) vs retry-loop (B)", wf_ll, retry_ll),
        ("LL;SC: wait-free (A) vs retry-loop (B) LL", wf_pair, retry_pair),
    ] {
        t.row([
            what.to_string(),
            ns_cell(&a),
            ns_cell(&b),
            format!("{:.2}x", b.median() / a.median()),
        ]);
    }
    t.print();
    println!();
    println!("Cells: median ±IQR over {BLOCKS} blocks. Reported, not bounded: these are the");
    println!("uncontended prices of the paper's choices; E5 shows what wait-freedom buys.");
    println!("The raw single-word substrate costs are E9's.\n");
}

/// E12 — model checking the shipping code through the instrumented
/// atomics facade: exhaustive sleep-set DFS and scheduler-driven drift
/// replay, every path lock-stepped against the interpreter twin.
#[cfg(mwllsc_model)]
pub fn e12_model(quick: bool) {
    use simsched::real::bridge::{drift_run, explore_mw, explore_mw_parallel, MwScenario};
    use simsched::real::dfs::DfsConfig;
    use simsched::sched::RoundRobin;

    fn inc_scenario(w: usize, rounds: usize, procs: usize) -> MwScenario {
        let mut program = Vec::new();
        for _ in 0..rounds {
            program.push(SimOp::Ll);
            program.push(SimOp::ScBump(1));
        }
        MwScenario { w, initial: vec![0; w], programs: vec![program; procs] }
    }

    println!("## E12 — model checking the shipping code (instrumented facade)\n");
    println!("The compiled `MwLlSc` — not the interpreter — serialized at every shared");
    println!("access by the facade hook, with each path verified against the interpreter");
    println!("twin (I1/I2, linearization points, step bounds, Wing–Gong) plus the");
    println!("memory-ordering policy lint.\n");

    println!("### Exhaustive sleep-set DFS over every interleaving\n");
    let mut t = Table::new([
        "config",
        "ops/proc",
        "workers",
        "paths",
        "pruned",
        "transitions",
        "max depth",
        "wall",
    ]);
    let mut configs: Vec<(MwScenario, &str, usize, usize)> =
        vec![(inc_scenario(1, 2, 2), "N=2 W=1", 4, 1)];
    if !quick {
        configs.push((inc_scenario(1, 1, 3), "N=3 W=1", 2, 4));
        configs.push((inc_scenario(2, 1, 2), "N=2 W=2", 2, 4));
        configs.push((inc_scenario(2, 1, 3), "N=3 W=2", 2, 4));
    }
    for (scenario, tag, ops, workers) in configs {
        let start = Instant::now();
        let report = if workers > 1 {
            explore_mw_parallel(scenario, workers, &DfsConfig::default())
        } else {
            explore_mw(scenario, &DfsConfig::default())
        };
        let wall = start.elapsed();
        if let Some(f) = &report.failure {
            check("E12", false, format!("{tag}: schedule {:?}: {}", f.schedule, f.error));
            continue;
        }
        assert_eq!(report.truncated, 0, "{tag}: depth bound hit");
        t.row([
            tag.to_string(),
            ops.to_string(),
            workers.to_string(),
            report.paths.to_string(),
            report.pruned.to_string(),
            report.transitions.to_string(),
            report.max_depth_seen.to_string(),
            format!("{:.1?}", wall),
        ]);
    }
    t.print();

    println!("\n### Schedule-drift replay (interpreter twin vs shipping code)\n");
    let seeds: u64 = if quick { 20 } else { 200 };
    let mut t = Table::new(["config", "scheduler", "schedules", "decisions", "divergences"]);
    for (n, w) in [(2usize, 1usize), (3, 2)] {
        let scenario = inc_scenario(w, 2, n);
        let mut decisions = 0usize;
        let out = drift_run(&scenario, &mut RoundRobin::default(), 1_000_000)
            .unwrap_or_else(|e| panic!("E12 drift (round-robin N={n} W={w}): {e}"));
        decisions += out.decisions;
        for seed in 0..seeds {
            let out = drift_run(&scenario, &mut RandomSched::new(seed), 1_000_000)
                .unwrap_or_else(|e| panic!("E12 drift (seed {seed} N={n} W={w}): {e}"));
            decisions += out.decisions;
        }
        t.row([
            format!("N={n} W={w}"),
            "round-robin + random".into(),
            (seeds + 1).to_string(),
            decisions.to_string(),
            "0".into(),
        ]);
    }
    t.print();
    println!();
    println!("Shape check: zero divergences and zero lint findings; the exhaustive rows");
    println!("cover every sleep-set-distinct interleaving of the real compiled code.\n");
}

/// E12 without the instrumented facade: nothing to measure.
#[cfg(not(mwllsc_model))]
pub fn e12_model(_quick: bool) {
    eprintln!("mwllsc-harness: e12-model drives the instrumented atomics facade,");
    eprintln!("which this binary was built without. Rebuild with:");
    eprintln!();
    eprintln!(
        "  RUSTFLAGS='--cfg mwllsc_model' cargo run --release -p mwllsc-harness -- e12-model"
    );
    std::process::exit(2);
}

/// E14 — the static tier: runs `mwllsc-lint` over the workspace in-process
/// and reports per-rule counts. A clean tree prints an all-zero table; any
/// finding is listed and the harness exits nonzero, same as CI's
/// `lint-static` job.
pub fn e14_lint(_quick: bool) {
    println!("## E14 — mwllsc-lint: static policy sweep over the workspace\n");
    println!("Claim: the invariants the model scheduler checks dynamically (facade");
    println!("routing, per-cell memory-ordering policy) plus SAFETY coverage and");
    println!("hot-path allocation/panic discipline hold on every source file, by");
    println!("lexical analysis alone — no special build, no scheduler run.\n");

    let cwd = std::env::current_dir().expect("cwd");
    let Some(root) = mwllsc_lint::find_workspace_root(&cwd) else {
        eprintln!("e14-lint: no workspace root above {}", cwd.display());
        std::process::exit(2);
    };
    let report = match mwllsc_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e14-lint: walk failed: {e}");
            std::process::exit(2);
        }
    };

    let rules: [(&str, &str); 5] = [
        ("L001", "atomics outside the `mwllsc::sync` facade"),
        ("L002", "memory-ordering policy (`// lint: cell=`)"),
        ("L003", "`unsafe` without a SAFETY comment"),
        ("L004", "allocation inside `// lint: no-alloc` regions"),
        ("L005", "panic paths in mwllsc-server / mwllsc-store"),
    ];
    let mut t = Table::new(["rule", "checks", "findings"]);
    for (id, what) in rules {
        let n = report.findings.iter().filter(|f| f.rule == id).count();
        t.row([format!("{id} — {what}"), "workspace".to_string(), n.to_string()]);
    }
    t.print();
    println!("\nfiles scanned: {}, baselined: {}\n", report.files_scanned, report.baselined);

    if !report.findings.is_empty() {
        println!("{}", report.to_human());
    }
    check(
        "E14",
        report.findings.is_empty(),
        format!("{} lint findings against LINT_POLICY.md (bound: 0)", report.findings.len()),
    );
    println!();
}

/// Runs every experiment in order.
pub fn all(quick: bool) {
    e1_space(quick);
    e2_time_w(quick);
    e3_time_n(quick);
    e4_vl(quick);
    e5_waitfree(quick);
    e6_linearizability(quick);
    e7_helping(quick);
    e8_compare(quick);
    e9_reclamation(quick);
    e10_store(quick);
    ablations(quick);
    e14_lint(quick);
    #[cfg(mwllsc_model)]
    e12_model(quick);
}
