//! Experiments E1–E8: each function regenerates one table of
//! `EXPERIMENTS.md` (see `DESIGN.md` §4 for the experiment index).

use mwllsc::sync::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use llsc_baselines::{try_build, try_build_store, Algo, MwHandle, SpaceEstimate};
use mwllsc::layout::Layout;
use mwllsc::MwLlSc;
use mwllsc_store::{DynStore, EpochBackend, Store, StoreConfig, StoreError};
use simsched::explore::{explore, ExploreConfig};
use simsched::interp::{ll_step_bound, sc_step_bound, SimOp};
use simsched::runner::{run, RunConfig, Sim};
use simsched::sched::{RandomSched, StarveVictim, WeightedRandom};
use simsched::wg::{check_linearizable, CheckConfig};

use crate::table::{fmt_ns, fmt_ops, Table};
use crate::timing::{bench_ns, correlation, linear_fit};

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
    for w in [1usize, 4, 16, 64] {
        let mut t = Table::new([
            "N",
            "jp-waitfree (O(NW))",
            "am-style (O(N^2 W))",
            "ratio",
            "lock (O(W))",
            "ptr-swap live",
        ]);
        let init = vec![0u64; w];
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let jp = build(Algo::Jp, n, w, &init).1.shared_words;
            let am = build(Algo::AmStyle, n, w, &init).1.shared_words;
            let lock = build(Algo::Lock, n, w, &init).1.shared_words;
            let ptr = build(Algo::PtrSwap, n, w, &init).1.shared_words;
            t.row([
                n.to_string(),
                jp.to_string(),
                am.to_string(),
                format!("{:.1}x", am as f64 / jp as f64),
                lock.to_string(),
                ptr.to_string(),
            ]);
        }
        println!("### W = {w}\n");
        t.print();
        println!();
    }
    println!("Shape check: the jp column grows linearly in N; am-style quadratically;");
    println!("the ratio column grows linearly in N — the paper's factor-N separation.\n");
}

/// E2 — LL/SC latency is linear in `W` (Theorem 1: `O(W)` time).
pub fn e2_time_w(quick: bool) {
    println!("## E2 — single-process LL/SC latency vs W (N = 16)\n");
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let n = 16;
    let mut t = Table::new(["W", "LL", "SC", "LL ns/word", "SC ns/word"]);
    let mut ll_pts = Vec::new();
    let mut sc_pts = Vec::new();
    for w in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let init = vec![0u64; w];
        let obj = MwLlSc::new(n, w, &init);
        let mut h = obj.claim(0).expect("fresh object");
        let mut buf = vec![0u64; w];
        let ll_ns = bench_ns(iters.max(w as u64), || h.ll(&mut buf));
        let val = vec![1u64; w];
        let sc_ns = bench_ns(iters.max(w as u64), || {
            h.ll(&mut buf);
            let _ = h.sc(&val);
        }) - ll_ns; // isolate the SC from the mandatory preceding LL
        let sc_ns = sc_ns.max(0.1);
        ll_pts.push((w as f64, ll_ns));
        sc_pts.push((w as f64, sc_ns));
        t.row([
            w.to_string(),
            fmt_ns(ll_ns),
            fmt_ns(sc_ns),
            format!("{:.2}", ll_ns / w as f64),
            format!("{:.2}", sc_ns / w as f64),
        ]);
    }
    t.print();
    let (ll_slope, ll_icpt) = linear_fit(&ll_pts);
    let (sc_slope, sc_icpt) = linear_fit(&sc_pts);
    println!();
    println!(
        "Linear fit: LL ≈ {ll_slope:.2}·W + {ll_icpt:.0} ns (r = {:.4}); SC ≈ {sc_slope:.2}·W + {sc_icpt:.0} ns (r = {:.4})",
        correlation(&ll_pts),
        correlation(&sc_pts)
    );
    println!(
        "Shape check: high correlation with a linear model ⇒ O(W) time, as Theorem 1 states.\n"
    );
}

/// E3 — LL/SC latency is independent of `N` (no `N` term in Theorem 1).
pub fn e3_time_n(quick: bool) {
    println!("## E3 — single-process LL/SC latency vs N (W = 8)\n");
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let w = 8;
    let mut t = Table::new(["N", "LL", "SC"]);
    let mut lls = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let init = vec![0u64; w];
        let obj = MwLlSc::new(n, w, &init);
        let mut h = obj.claim(0).expect("fresh object");
        let mut buf = vec![0u64; w];
        let ll_ns = bench_ns(iters, || h.ll(&mut buf));
        let val = vec![1u64; w];
        let pair_ns = bench_ns(iters, || {
            h.ll(&mut buf);
            let _ = h.sc(&val);
        });
        let sc_ns = (pair_ns - ll_ns).max(0.1);
        lls.push(ll_ns);
        t.row([n.to_string(), fmt_ns(ll_ns), fmt_ns(sc_ns)]);
    }
    t.print();
    let min = lls.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = lls.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!("LL max/min across N: {:.2}x (flat ⇒ no N term in the time bound).\n", max / min);
}

/// E4 — VL is `O(1)`: flat across both `N` and `W`.
pub fn e4_vl(quick: bool) {
    println!("## E4 — VL latency across N and W (Theorem 1: O(1))\n");
    let iters: u64 = if quick { 50_000 } else { 500_000 };
    let mut t = Table::new(["N", "W", "VL"]);
    let mut all = Vec::new();
    for n in [2usize, 16, 128] {
        for w in [1usize, 64, 1024] {
            let init = vec![0u64; w];
            let obj = MwLlSc::new(n, w, &init);
            let mut h = obj.claim(0).expect("fresh object");
            let mut buf = vec![0u64; w];
            h.ll(&mut buf);
            let vl_ns = bench_ns(iters, || {
                let _ = h.vl();
            });
            all.push(vl_ns);
            t.row([n.to_string(), w.to_string(), fmt_ns(vl_ns)]);
        }
    }
    t.print();
    let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = all.iter().cloned().fold(0.0f64, f64::max);
    println!();
    println!("VL max/min across the grid: {:.2}x (flat in both N and W ⇒ O(1)).\n", max / min);
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
}

/// E6 — linearizability: exhaustive exploration (tiny configs) plus
/// Wing–Gong checking over sampled schedules; invariants I1/I2/Lemma 3
/// monitored on every step.
pub fn e6_linearizability(quick: bool) {
    println!("## E6 — linearizability and invariants\n");

    println!("### Exhaustive exploration (all schedules, invariants checked each step)\n");
    let mut t =
        Table::new(["config", "programs", "states", "transitions", "complete", "violations"]);
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
            Err(f) => t.row([
                label.to_string(),
                progdesc,
                "-".into(),
                "-".into(),
                "-".into(),
                f.to_string(),
            ]),
        }
    }
    t.print();

    println!("\n### Sampled schedules with Wing–Gong history checking\n");
    let seeds: u64 = if quick { 300 } else { 3_000 };
    let mut t = Table::new(["config", "scheduler", "histories", "ops checked", "violations"]);
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
            if violations > 0 {
                println!("!! LINEARIZABILITY VIOLATION in N={n} W={w} {flavor}");
            }
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
        for j in joins {
            j.join().unwrap();
        }
        let s = obj.stats();
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
    println!("one of its copy loops. Helped counts are therefore small — but *zero torn");
    println!("values were ever returned*, so every occurrence was masked. The table below");
    println!("drives the same code path deterministically in the simulator, where the");
    println!("starvation scheduler makes helping mandatory:\n");

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
    for (n, w, grant) in [(2usize, 8usize, 80u64), (3, 8, 120), (4, 16, 200), (4, 32, 400)] {
        let mut programs = vec![inc_program(30); n];
        programs[0] = vec![SimOp::Ll, SimOp::Ll, SimOp::Ll, SimOp::Ll];
        let victim_lls = programs[0].len() as u64;
        let sim = Sim::new(w, &vec![0u64; w], programs);
        let report = run(sim, &mut StarveVictim::new(0, grant), &RunConfig::default())
            .unwrap_or_else(|f| panic!("E7 sim violation: {f}"));
        let ok = report.completed && report.helped_lls > 0;
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
}

/// E8 — end-to-end comparison: throughput and space, all implementations.
pub fn e8_compare(quick: bool) {
    println!("## E8 — N-thread fetch-update storm: throughput and space\n");
    let per_thread: u64 = if quick { 10_000 } else { 50_000 };
    for w in [2usize, 8, 64] {
        let mut t = Table::new([
            "algo",
            "progress",
            "N=2",
            "N=4",
            "N=8",
            "space words (N=8)",
            "retired high-water",
            "space class",
        ]);
        for algo in Algo::ALL {
            let mut cells: Vec<String> = Vec::new();
            // Post-storm reclamation backlog (the epoch-limbo high-water
            // mark): 0 by construction for the bounded algorithms, bounded
            // by O(threads × bag size) for the pointer-swap substrate.
            let mut retired_high = 0usize;
            for n in [2usize, 4, 8] {
                let init = vec![0u64; w];
                let (mut handles, _space) = build(algo, n, w, &init);
                let start = Instant::now();
                let mut joins = Vec::new();
                let mut h0 = handles.remove(0);
                for mut h in handles {
                    joins.push(std::thread::spawn(move || {
                        let mut v = vec![0u64; w];
                        let mut wins = 0u64;
                        while wins < per_thread {
                            h.ll(&mut v);
                            v[0] += 1;
                            if h.sc(&v) {
                                wins += 1;
                            }
                        }
                    }));
                }
                let mut v = vec![0u64; w];
                let mut wins = 0u64;
                while wins < per_thread {
                    h0.ll(&mut v);
                    v[0] += 1;
                    if h0.sc(&v) {
                        wins += 1;
                        // Sample the limbo backlog *during* the storm —
                        // post-storm it has already decongested to ~0.
                        retired_high = retired_high.max(h0.space().retired_words);
                    }
                }
                for j in joins {
                    j.join().unwrap();
                }
                let secs = start.elapsed().as_secs_f64();
                let total_ops = per_thread * n as u64;
                cells.push(fmt_ops(total_ops as f64 / secs));
            }
            let init = vec![0u64; w];
            let (_h, space) = build(algo, 8, w, &init);
            t.row([
                algo.name().to_string(),
                algo.progress().to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                space.shared_words.to_string(),
                retired_high.to_string(),
                space.asymptotic.to_string(),
            ]);
        }
        println!("### W = {w}\n");
        t.print();
        println!();
    }
    println!("Shape check: jp-waitfree throughput within a small constant of am-style and");
    println!("ptr-swap, while its space column is ~N× below am-style — the paper's claim:");
    println!("same time class, factor-N less space, no GC dependence.\n");
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
            eprintln!("mwllsc-harness: expected ShardCapacityTooLarge, got {other:?}");
            std::process::exit(2);
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
        "retired",
        "words/key",
    ]);
    for shards in [1usize, 2, 4, 8, 16, 32, 64] {
        let store = build_store(StoreConfig::new(shards, threads, w, KEYS));
        let start = Instant::now();
        let joins: Vec<_> = (0..threads)
            .map(|tid| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut h = store.attach();
                    let mut buf = vec![0u64; w];
                    let mut x = tid as u64 + 1;
                    for _ in 0..per_thread {
                        // SplitMix-ish stream, distinct per thread.
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = ((x >> 17) % touch) * stride;
                        h.update_with(key, &mut buf, |v| {
                            v[0] += 1;
                            v[1] = v[0] ^ key;
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let secs = start.elapsed().as_secs_f64();
        let space = store.space();
        let stats = store.stats();
        t.row([
            shards.to_string(),
            fmt_ops(per_thread as f64 * threads as f64 / secs),
            stats.update_retries.to_string(),
            space.touched_keys.to_string(),
            space.shared_words.to_string(),
            space.retired_words.to_string(),
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
    let mut all_ok = true;
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
        t.row([
            format!("2^{exp}"),
            format!("{:.2}x", keys as f64 / Layout::MAX_PROCESSES as f64),
            space.touched_keys.to_string(),
            space.shared_words.to_string(),
            space.eager_words().to_string(),
            ok.to_string(),
        ]);
        all_ok &= ok;
    }
    t.print();
    println!();
    println!("Shape check: live words track *touched* keys only — a 2^24-key store costs");
    println!("what its working set costs, while the eager column (full materialization)");
    println!("is what a non-lazy design would pay up front.\n");
    // The CI smoke job gates on this exit code, not on reading the table.
    if !all_ok {
        eprintln!("mwllsc-harness: E10 boundary-key check FAILED (see table above)");
        std::process::exit(2);
    }
}

/// E11 — multi-backend store shards and the batched `update_many` path.
pub fn e11_backends(quick: bool) {
    println!("## E11 — multi-backend store: backend × operation matrix\n");
    println!("Claim: the FNV router + shard-slot lease discipline is implementation-");
    println!("agnostic — one Store design serves the paper algorithm (tagged or epoch");
    println!("substrate) and every baseline through the MwFactory backend parameter —");
    println!("and the batched update_many path, which sorts a batch by (shard, key),");
    println!("leases all shard slots up front, and borrows one object slot per run of");
    println!("equal keys, beats per-key update on batched workloads.\n");

    // The typed-error path: capacity is judged against the *backend's*
    // own per-object ceiling, not a store-wide constant.
    match try_build_store(Algo::AmStyle, StoreConfig::new(2, (1 << 15) + 1, 1, 16)) {
        Err(e @ StoreError::ShardCapacityTooLarge { .. }) => {
            println!("Config validation: shard_capacity = 2^15 + 1 on the am-style backend");
            println!("rejected with a typed error against *its* ceiling (no panic): \"{e}\"\n");
        }
        other => {
            eprintln!("mwllsc-harness: expected ShardCapacityTooLarge, got {other:?}");
            std::process::exit(2);
        }
    }

    const KEYS: u64 = 1 << 24;
    let w = 2;
    let touch: u64 = if quick { 512 } else { 2048 };
    let stride = KEYS / touch;
    let batch = 256usize;
    let reps: usize = if quick { 4 } else { 16 };
    let keys: Vec<u64> = (0..touch).map(|i| i * stride).collect();
    let config = StoreConfig::new(8, 4, w, KEYS);

    println!("### Backend × operation matrix (single handle, {touch} keys spread over a");
    println!("2^24-key space, W = {w}, update_many in batches of {batch}, {reps} passes)\n");

    // Every runtime-selectable backend, plus the epoch-substrate paper
    // variant (typed construction, same erased driver).
    let mut stores: Vec<Box<dyn DynStore>> = Algo::ALL
        .into_iter()
        .map(|algo| {
            try_build_store(algo, config.clone()).unwrap_or_else(|e| {
                eprintln!("mwllsc-harness: cannot build {algo} store: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    stores.push(Box::new(Store::<EpochBackend>::new_in(config)));

    let mut t = Table::new([
        "backend",
        "progress",
        "read",
        "update",
        "update_many",
        "batch speedup",
        "words/key",
        "retired",
    ]);
    let mut all_ok = true;
    let mut paper_speedup = 0.0f64;
    for store in &stores {
        let mut h = store.attach_dyn();
        let mut buf = vec![0u64; w];
        // Materialize every key up front so the matrix times steady-state
        // operations, not first-touch table writes.
        h.update_many_dyn(&keys, &mut |_, v| v[0] = 1).unwrap();

        let start = Instant::now();
        for _ in 0..reps {
            for &k in &keys {
                h.read(k, &mut buf).unwrap();
            }
        }
        let read_ns = start.elapsed().as_nanos() as f64 / (reps as f64 * touch as f64);

        let start = Instant::now();
        for _ in 0..reps {
            for &k in &keys {
                h.update_with_dyn(k, &mut buf, &mut |v| v[0] += 1).unwrap();
            }
        }
        let update_ns = start.elapsed().as_nanos() as f64 / (reps as f64 * touch as f64);

        let start = Instant::now();
        for _ in 0..reps {
            for chunk in keys.chunks(batch) {
                h.update_many_dyn(chunk, &mut |_, v| v[0] += 1).unwrap();
            }
        }
        let many_ns = start.elapsed().as_nanos() as f64 / (reps as f64 * touch as f64);

        // Exactness across all three phases: seed + reps per write phase.
        let expected = 1 + 2 * reps as u64;
        for &k in &keys {
            let got = h.read_vec(k).unwrap();
            if got[0] != expected {
                eprintln!(
                    "mwllsc-harness: E11 {} key {k}: expected {expected}, got {got:?}",
                    store.backend()
                );
                all_ok = false;
            }
        }

        let speedup = update_ns / many_ns;
        if store.backend() == "paper" {
            paper_speedup = speedup;
        }
        let space = store.space();
        t.row([
            store.backend().to_string(),
            store.progress().to_string(),
            fmt_ns(read_ns),
            fmt_ns(update_ns),
            fmt_ns(many_ns),
            format!("{speedup:.2}x"),
            space.per_key_shared_words.to_string(),
            space.retired_words.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Shape check: update_many amortizes routing, shard-slot lookup, object-");
    println!("table locking, and counter flushes over each (shard, key)-sorted batch.");
    println!("The amortized slice matters most where per-update cost is highest: the");
    println!("paper backend ran at {paper_speedup:.2}x this run, while the cheap O(W) baselines");
    println!("(~75–100 ns/update) hover near parity single-core — their batched win is");
    println!("expected from shard-run locality and counter-line contention on real");
    println!("cores. The words/key column is the per-backend space story:");
    println!("3cW + 3c + 1 for the tagged paper variants (the epoch substrate adds its");
    println!("live heap node per cell), W + O(1) for the O(W) baselines, Θ(c²W) for");
    println!("am-style; `retired` is the epoch substrates' bounded reclamation");
    println!("backlog, 0 for the rest.\n");
    if paper_speedup < 1.0 {
        println!("NOTE: paper-backend update_many did not beat per-key update this run;");
        println!("single-core timing noise — re-run, and measure on pinned hardware.\n");
    }
    if !all_ok {
        eprintln!("mwllsc-harness: E11 exactness check FAILED (see above)");
        std::process::exit(2);
    }
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
            eprintln!("!! E12 {tag}: schedule {:?}: {}", f.schedule, f.error);
            std::process::exit(2);
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

/// E13 — the network frontend: loopback requests/sec across connection
/// count × pipeline depth, coalesced vs per-request dispatch, plus a
/// machine-readable `BENCH_<rev>.json` drop (the perf-trajectory entry
/// the ROADMAP asks for).
pub fn e13_server(quick: bool) {
    use mwllsc_harness::bench_schema::{bench_rev, BenchFile, Cell};
    use mwllsc_server::{
        Client, Dispatch, Request, Response, Server, ServerConfig, ServerStats, UpdateOp,
    };

    println!("## E13 — mwllsc-server: pipelined loopback traffic, coalesced vs per-request\n");
    println!("Claim: the server's wave coalescer converts socket-level concurrency into");
    println!("the store's batched paths — each worker tick drains every ready");
    println!("connection's pipelined frames into one merged (shard, key)-sorted batch,");
    println!("so equal-key runs from different clients fold into single SC commits.");
    println!("Per-request dispatch serves the same pipelines one store call at a time;");
    println!("the delta is what batching buys at the network layer.\n");

    const HOT: u64 = 4;
    const KEYSPACE: u64 = 256;
    let per_cell: u64 = if quick { 8_000 } else { 48_000 };
    let seed: u64 = 0xE13_5EED;

    // 80% of requests hit one of HOT keys (the skewed mix the coalescer
    // folds), the rest spread uniformly over KEYSPACE.
    fn skewed_key(n: u64) -> u64 {
        if n % 10 < 8 {
            n % HOT
        } else {
            HOT + (n >> 8) % (KEYSPACE - HOT)
        }
    }

    fn mix(seed: u64, stream: u64) -> u64 {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One cell: fresh store + server, `conns` client threads each
    /// pipelining `depth` increments per round. Returns requests/sec
    /// and the server's counter snapshot; exits on any exactness miss.
    fn run_cell(
        conns: usize,
        depth: usize,
        dispatch: Dispatch,
        per_cell: u64,
        seed: u64,
    ) -> (f64, ServerStats) {
        let rounds = (per_cell / (conns as u64 * depth as u64)).max(1) as usize;
        let store = Store::new(StoreConfig::new(8, 4, 1, KEYSPACE));
        let config = ServerConfig::with_workers(1).dispatch(dispatch);
        let server = Server::start(&store, config).unwrap_or_else(|e| {
            eprintln!("mwllsc-harness: E13 cannot start server: {e}");
            std::process::exit(2);
        });
        let addr = server.local_addr();

        let barrier = std::sync::Barrier::new(conns + 1);
        let (wall, acked) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut c = Client::connect(addr).unwrap();
                        let mut acked = vec![0u64; KEYSPACE as usize];
                        barrier.wait();
                        for r in 0..rounds {
                            let keys: Vec<u64> = (0..depth)
                                .map(|i| {
                                    let n = mix(seed, (t as u64) << 40 | (r * depth + i) as u64);
                                    skewed_key(n)
                                })
                                .collect();
                            for &k in &keys {
                                c.send(&Request::Update { key: k, op: UpdateOp::Add(vec![1]) });
                            }
                            c.flush().unwrap();
                            for &k in &keys {
                                match c.recv().unwrap() {
                                    Response::Value(_) => acked[k as usize] += 1,
                                    other => {
                                        eprintln!("mwllsc-harness: E13 bad reply: {other:?}");
                                        std::process::exit(2);
                                    }
                                }
                            }
                        }
                        acked
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let per_thread: Vec<Vec<u64>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            (start.elapsed(), per_thread)
        });

        // Exactness over the wire: every acknowledged increment landed
        // exactly once, across all concurrent pipelines.
        let mut probe = Client::connect(addr).unwrap();
        let keys: Vec<u64> = (0..KEYSPACE).collect();
        let values = probe.mget(keys).unwrap().unwrap();
        for k in 0..KEYSPACE as usize {
            let expect: u64 = acked.iter().map(|a| a[k]).sum();
            if values[k][0] != expect {
                eprintln!(
                    "mwllsc-harness: E13 exactness FAILED at key {k}: {} != {expect}",
                    values[k][0]
                );
                std::process::exit(2);
            }
        }
        drop(probe);

        let stats = server.shutdown();
        let total = (conns * depth * rounds) as f64;
        (total / wall.as_secs_f64(), stats)
    }

    let grid: &[(usize, usize)] = if quick {
        &[(4, 8), (8, 32)]
    } else {
        &[(1, 1), (1, 32), (4, 8), (8, 8), (8, 32), (16, 32)]
    };

    println!("### Requests/sec over loopback (1 worker, W = 1, skewed 80/20 key mix,");
    println!("~{per_cell} UPDATEs per cell; single core — both modes share it with the clients)\n");

    let mut t = Table::new([
        "conns",
        "depth",
        "per-request",
        "coalesced",
        "speedup",
        "mean write batch",
        "waves",
    ]);
    let mut bench_cells: Vec<Cell> = Vec::new();
    let mut flagship: Option<ServerStats> = None;
    let mut flagship_speedup = 0.0f64;
    for &(conns, depth) in grid {
        let (rps_per, _) = run_cell(conns, depth, Dispatch::PerRequest, per_cell, seed);
        let (rps_co, stats) = run_cell(conns, depth, Dispatch::Coalesced, per_cell, seed);
        let speedup = rps_co / rps_per;
        if conns >= 8 && depth >= 8 {
            flagship = Some(stats);
            flagship_speedup = speedup;
        }
        for (mode, rps) in [("per-request", rps_per), ("coalesced", rps_co)] {
            let mut cell = Cell::new(format!("e13/conns={conns}/depth={depth}/{mode}"), true, rps);
            if mode == "coalesced" {
                cell = cell
                    .counter("mean_write_batch", stats.mean_write_batch())
                    .counter("waves", stats.waves as f64)
                    .with_hist(stats.batch_hist.to_vec());
            } else {
                // Per-request dispatch coalesces nothing, by definition.
                cell = cell.counter("mean_write_batch", 1.0).counter("waves", 0.0);
            }
            bench_cells.push(cell);
        }
        t.row([
            conns.to_string(),
            depth.to_string(),
            fmt_ops(rps_per),
            fmt_ops(rps_co),
            format!("{speedup:.2}x"),
            format!("{:.1}", stats.mean_write_batch()),
            stats.waves.to_string(),
        ]);
    }
    t.print();
    println!();
    if let Some(stats) = flagship {
        let labels = ServerStats::hist_labels();
        let hist = labels
            .iter()
            .zip(stats.batch_hist)
            .map(|(l, n)| format!("{l}: {n}"))
            .collect::<Vec<_>>()
            .join(" · ");
        println!("Batch-size histogram at the ≥8-conn deep-pipeline cell (coalesced):");
        println!("{hist}\n");
        println!("Shape check: depth-1 single-connection traffic has nothing to coalesce");
        println!("(waves of one request — parity at best, and the wave bookkeeping can");
        println!("cost a few percent on batches of one); once ≥ 8");
        println!("connections pipeline ≥ 8 deep, each wave merges tens of requests into");
        println!("one store batch and folds the hot keys' runs into single SC commits,");
        println!("which is where the speedup column and the mean-write-batch column");
        println!("come from.\n");
        if flagship_speedup < 1.0 {
            println!("NOTE: coalesced dispatch did not beat per-request at the flagship cell");
            println!("this run; single-core timing noise — re-run on pinned hardware.\n");
        }
    }

    // Machine-readable drop on the shared bench schema (`bench-diff`
    // consumes it). The E16 flagship grid owns `BENCH_<rev>.json`, so
    // the server grid drops alongside it with a `_server` suffix.
    let rev = bench_rev();
    let backend = Store::new(StoreConfig::new(1, 1, 1, 1)).backend();
    let labels = ServerStats::hist_labels().join(", ");
    let mut bench = BenchFile::new(
        "e13-server",
        &rev,
        quick,
        1,
        &format!(
            "backend={backend}; hist buckets are write-batch sizes: {labels}; \
             per-request rows coalesce nothing (mean_write_batch=1, waves=0, no hist)"
        ),
    );
    for c in bench_cells {
        bench.push(c);
    }
    let path = format!("BENCH_{rev}_server.json");
    match std::fs::write(&path, bench.to_json()) {
        Ok(()) => println!("Wrote {path} (throughput, batch histogram, backend).\n"),
        Err(e) => println!("NOTE: could not write {path}: {e}\n"),
    }
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

    if report.findings.is_empty() {
        println!("Result: clean — the tree conforms to LINT_POLICY.md.\n");
    } else {
        println!("{}", report.to_human());
        std::process::exit(1);
    }
}

/// E15 — the shared-nothing mesh: symmetric `StoreHandle` threads vs
/// mesh `MeshHandle` callers on identical seeded skewed increment
/// workloads, with an exactness gate (both modes must produce the same
/// per-key sums), the ring-occupancy histogram, and a
/// `BENCH_<rev>.json` drop.
pub fn e15_mesh(quick: bool) {
    use mwllsc_harness::bench_schema::{bench_rev, BenchFile, Cell};
    use mwllsc_mesh::{InlineVal, Mesh, MeshConfig, MeshStats, UpdateKind, OCC_BUCKETS};

    println!("## E15 — mwllsc-mesh: symmetric handles vs shared-nothing shard ownership\n");
    println!("Claim: symmetric StoreHandles make every caller RMW every shard it");
    println!("touches — cross-core coherence traffic on the X/Bank/Help lines grows");
    println!("with callers. The mesh pins each shard to one worker thread and ships");
    println!("operations over bounded SPSC rings instead, so a shard's cache lines");
    println!("stay resident at their owner and cross-caller batching falls out of");
    println!("the worker's drain-dispatch waves. Both modes run the *same* seeded");
    println!("workload; the gate requires their per-key sums to be identical.\n");

    const HOT: u64 = 4;
    const KEYSPACE: u64 = 256;
    const MESH_WORKERS: usize = 2;
    let per_cell: u64 = if quick { 6_000 } else { 48_000 };
    let seed: u64 = 0xE15_5EED;

    // Same 80/20 skew as E13: the mix that makes cross-caller batching
    // (and symmetric-mode contention) actually happen.
    fn skewed_key(n: u64) -> u64 {
        if n % 10 < 8 {
            n % HOT
        } else {
            HOT + (n >> 8) % (KEYSPACE - HOT)
        }
    }

    fn mix(seed: u64, stream: u64) -> u64 {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The caller's deterministic batch for round `r` — both modes call
    /// this with the same seed, so their workloads are word-identical.
    fn round_keys(seed: u64, caller: usize, r: usize, depth: usize) -> Vec<u64> {
        (0..depth)
            .map(|i| skewed_key(mix(seed, (caller as u64) << 40 | (r * depth + i) as u64)))
            .collect()
    }

    fn check_exact(label: &str, got: &[u64], acked: &[Vec<u64>]) {
        for k in 0..KEYSPACE as usize {
            let expect: u64 = acked.iter().map(|a| a[k]).sum();
            if got[k] != expect {
                eprintln!(
                    "mwllsc-harness: E15 exactness FAILED ({label}, key {k}): {} != {expect}",
                    got[k]
                );
                std::process::exit(2);
            }
        }
    }

    /// Symmetric cell: `callers` threads, each owning a plain
    /// `StoreHandle`, committing `depth`-key batches directly. Returns
    /// ops/sec and the per-key totals (for the cross-mode gate).
    fn run_symmetric(callers: usize, depth: usize, per_cell: u64, seed: u64) -> (f64, Vec<u64>) {
        let rounds = (per_cell / (callers as u64 * depth as u64)).max(1) as usize;
        let store = Store::new(StoreConfig::new(8, 32, 1, KEYSPACE));
        let barrier = std::sync::Barrier::new(callers + 1);
        let (wall, acked) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let (store, barrier) = (Arc::clone(&store), &barrier);
                    s.spawn(move || {
                        let mut h = store.attach();
                        let mut acked = vec![0u64; KEYSPACE as usize];
                        barrier.wait();
                        for r in 0..rounds {
                            let keys = round_keys(seed, t, r, depth);
                            h.update_many_with(&keys, |_, v| v[0] += 1).unwrap_or_else(|e| {
                                eprintln!("mwllsc-harness: E15 symmetric update: {e}");
                                std::process::exit(2);
                            });
                            for &k in &keys {
                                acked[k as usize] += 1;
                            }
                        }
                        acked
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let per_thread: Vec<Vec<u64>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            (start.elapsed(), per_thread)
        });

        let mut probe = store.attach();
        let got: Vec<u64> =
            (0..KEYSPACE).map(|k| probe.read_vec(k).expect("E15 probe read")[0]).collect();
        check_exact("symmetric", &got, &acked);
        let totals: Vec<u64> =
            (0..KEYSPACE as usize).map(|k| acked.iter().map(|a| a[k]).sum()).collect();
        ((callers * depth * rounds) as f64 / wall.as_secs_f64(), totals)
    }

    /// Mesh cell: the same workload, but `callers` hold `MeshHandle`s
    /// and every operation crosses a ring to its shard's owning worker.
    fn run_mesh(
        callers: usize,
        depth: usize,
        per_cell: u64,
        seed: u64,
    ) -> (f64, Vec<u64>, MeshStats) {
        let rounds = (per_cell / (callers as u64 * depth as u64)).max(1) as usize;
        let store = Store::new(StoreConfig::new(8, 32, 1, KEYSPACE));
        let mesh =
            Mesh::try_new(Arc::clone(&store), MeshConfig::default().with_workers(MESH_WORKERS))
                .unwrap_or_else(|e| {
                    eprintln!("mwllsc-harness: E15 cannot start mesh: {e}");
                    std::process::exit(2);
                });
        let barrier = std::sync::Barrier::new(callers + 1);
        let (wall, acked) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let (mesh, barrier) = (Arc::clone(&mesh), &barrier);
                    s.spawn(move || {
                        let mut h = mesh.attach();
                        let mut acked = vec![0u64; KEYSPACE as usize];
                        let one = InlineVal::from_slice(&[1]).unwrap();
                        barrier.wait();
                        for r in 0..rounds {
                            let keys = round_keys(seed, t, r, depth);
                            h.update_batch(&keys, &mut |_| (UpdateKind::Add, one), None)
                                .unwrap_or_else(|e| {
                                    eprintln!("mwllsc-harness: E15 mesh update: {e}");
                                    std::process::exit(2);
                                });
                            for &k in &keys {
                                acked[k as usize] += 1;
                            }
                        }
                        acked
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let per_thread: Vec<Vec<u64>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            (start.elapsed(), per_thread)
        });

        let mut probe = mesh.attach();
        let got: Vec<u64> =
            (0..KEYSPACE).map(|k| probe.read_vec(k).expect("E15 mesh probe read")[0]).collect();
        check_exact("mesh", &got, &acked);
        let totals: Vec<u64> =
            (0..KEYSPACE as usize).map(|k| acked.iter().map(|a| a[k]).sum()).collect();
        let stats = mesh.stats();
        drop(probe);
        mesh.shutdown();
        if store.live_slot_leases() != 0 {
            eprintln!("mwllsc-harness: E15 mesh shutdown leaked a shard-slot lease");
            std::process::exit(2);
        }
        ((callers * depth * rounds) as f64 / wall.as_secs_f64(), totals, stats)
    }

    let grid: &[(usize, usize)] =
        if quick { &[(2, 8), (4, 32)] } else { &[(1, 1), (2, 8), (4, 8), (4, 32), (8, 32)] };

    println!("### Increments/sec, {MESH_WORKERS} mesh workers, W = 1, skewed 80/20 key mix,");
    println!("~{per_cell} ops per cell (symmetric = callers committing directly; mesh =");
    println!("the same callers forwarding over rings to shard owners)\n");

    let mut t =
        Table::new(["callers", "depth", "symmetric", "mesh", "ratio", "entries/msg", "waves"]);
    let mut bench_cells: Vec<Cell> = Vec::new();
    let mut flagship: Option<MeshStats> = None;
    for &(callers, depth) in grid {
        let (rps_sym, sums_sym) = run_symmetric(callers, depth, per_cell, seed);
        let (rps_mesh, sums_mesh, stats) = run_mesh(callers, depth, per_cell, seed);
        // The cross-mode gate: same seed, same workload, same sums.
        if sums_sym != sums_mesh {
            eprintln!("mwllsc-harness: E15 modes diverged on identical workloads");
            std::process::exit(2);
        }
        let packing = stats.entries as f64 / (stats.msgs.max(1)) as f64;
        for (mode, rps) in [("symmetric", rps_sym), ("mesh", rps_mesh)] {
            let mut cell =
                Cell::new(format!("e15/callers={callers}/depth={depth}/{mode}"), true, rps);
            if mode == "mesh" {
                cell = cell
                    .counter("entries", stats.entries as f64)
                    .counter("msgs", stats.msgs as f64)
                    .counter("waves", stats.waves as f64)
                    .with_hist(stats.occ_hist.to_vec());
            }
            bench_cells.push(cell);
        }
        if callers >= 4 && depth >= 32 {
            flagship = Some(stats.clone());
        }
        t.row([
            callers.to_string(),
            depth.to_string(),
            fmt_ops(rps_sym),
            fmt_ops(rps_mesh),
            format!("{:.2}x", rps_mesh / rps_sym),
            format!("{packing:.2}"),
            stats.waves.to_string(),
        ]);
    }
    t.print();
    println!();
    if let Some(stats) = flagship {
        let hist = (1..OCC_BUCKETS)
            .filter(|&b| stats.occ_hist[b] > 0)
            .map(|b| {
                let lo = 1u64 << (b - 1);
                let hi = (1u64 << b) - 1;
                if lo == hi {
                    format!("{lo}: {}", stats.occ_hist[b])
                } else {
                    format!("{lo}-{hi}: {}", stats.occ_hist[b])
                }
            })
            .collect::<Vec<_>>()
            .join(" · ");
        println!("Ring-occupancy histogram at the deep-pipeline cell (drain-time samples");
        println!("of nonempty request rings): {hist}\n");
    }
    println!("Shape check: entries/msg > 1 means the caller's batch packer folded");
    println!("consecutive same-owner keys into shared ring slots, and entries/wave");
    println!("(entries ÷ waves) is the cross-caller batch the owning worker handed");
    println!("the store in one dispatch. On a single core the mesh pays its ring");
    println!("round-trips with no parallelism to amortize them — the ratio column");
    println!("is expected to favor symmetric there; the coherence-traffic claim");
    println!("needs a pinned multi-core re-measurement.\n");

    // Machine-readable drop on the shared bench schema, alongside E13's
    // `_server` and E16's flagship files.
    let rev = bench_rev();
    let backend = Store::new(StoreConfig::new(1, 1, 1, 1)).backend();
    let mut bench = BenchFile::new(
        "e15-mesh",
        &rev,
        quick,
        1,
        &format!(
            "backend={backend}; mesh_workers={MESH_WORKERS}; hist buckets are log2 ring \
             occupancy, bucket b covers 2^(b-1)..2^b-1, empty rings unsampled; symmetric \
             rows have no ring counters"
        ),
    );
    for c in bench_cells {
        bench.push(c);
    }
    let path = format!("BENCH_{rev}_mesh.json");
    match std::fs::write(&path, bench.to_json()) {
        Ok(()) => println!("Wrote {path} (both modes' rps, packing, occupancy histogram).\n"),
        Err(e) => println!("NOTE: could not write {path}: {e}\n"),
    }
}

/// E16 — the YCSB-style perf-trajectory grid: seeded key distributions
/// (zipfian / uniform / 80-20 hot set) and read-update mixes A–C over
/// three store backends, the server loopback path (both dispatch
/// modes), the mesh, a handle-churn storm and an update-batch-size
/// sweep. Every cell doubles as a correctness run — keys are preloaded
/// to `k + 1` and per-key acked sums are checked exactly after the
/// clock stops — and the grid lands in the versioned `BENCH_<rev>.json`
/// that the `bench-diff` regression gate consumes.
pub fn e16_ycsb(quick: bool) {
    use mwllsc_harness::bench_schema::{bench_repeats, bench_rev, BenchFile, Cell};
    use mwllsc_harness::workload::{
        KeyDist, KeyGen, MixSpec, SplitMix64, MIX_A, MIX_B, MIX_C, MIX_U,
    };
    use mwllsc_mesh::{InlineVal, Mesh, MeshConfig, MeshStats, UpdateKind};
    use mwllsc_server::{
        Client, Dispatch, Request, Response, Server, ServerConfig, ServerStats, UpdateOp,
    };
    use mwllsc_store::DynStoreHandle;

    println!("## E16 — YCSB-style workload grid (the perf-trajectory suite)\n");
    println!("Claim: one seeded driver exercises the store's batched paths, three");
    println!("backends, both server dispatch modes and the mesh under the standard");
    println!("YCSB taxonomy (zipfian theta=0.99 / uniform / 80-20 hot set; mixes");
    println!("A=50/50 read-update, B=95/5, C=read-only), so perf claims become");
    println!("diffable BENCH_<rev>.json cells. The workloads are deterministic,");
    println!("so every cell is also an exactness gate: per-key acked sums must");
    println!("match the store exactly when the clock stops.\n");

    const KEYS: u64 = 8_192;
    const ZIPF: KeyDist = KeyDist::Zipfian { theta: 0.99 };
    const CALLERS: usize = 2;
    const DEPTH: usize = 32;
    const CONNS: usize = 4;
    const SERVER_DEPTH: usize = 16;
    // Quick cells are sized so release-mode walls stay well above timer
    // granularity, and quick repeats are high enough that min-of-k
    // reliably samples the fast scheduling mode (two callers timeslicing
    // one core are bimodal — a reader can spin out a whole quantum while
    // the writer is parked). The committed CI baseline is cut with the
    // same quick protocol so head and baseline share an estimator.
    let ops: u64 = if quick { 16_000 } else { 60_000 };
    let repeats = bench_repeats(if quick { 7 } else { 5 });
    let seed: u64 = 0xE16_5EED;

    fn fail(what: &str, e: impl std::fmt::Display) -> ! {
        eprintln!("mwllsc-harness: E16 {what}: {e}");
        std::process::exit(2);
    }

    /// Materializes every key at `base(k) = k + 1`, so reads have a
    /// verifiable floor from the first round and read-only cells an
    /// exact expectation.
    fn preload(h: &mut dyn DynStoreHandle, keys: u64) {
        const CHUNK: u64 = 1_024;
        let mut start = 0u64;
        while start < keys {
            let end = (start + CHUNK).min(keys);
            let vals: Vec<u64> = (start..end).map(|k| k + 1).collect();
            let batch: Vec<(u64, &[u64])> = (start..end)
                .map(|k| (k, std::slice::from_ref(&vals[(k - start) as usize])))
                .collect();
            if let Err(e) = h.write_many(&batch) {
                fail("preload", e);
            }
            start = end;
        }
    }

    /// One measured run of one cell.
    struct Measured {
        rps: f64,
        p50: f64,
        p99: f64,
        ok: bool,
    }

    /// What each worker thread hands back: its own start/end instants
    /// (the cell wall is `max(end) - min(start)` across workers — on a
    /// single shared core the *spawning* thread can be descheduled past
    /// whole worker lifetimes, so timing from the spawner inflates
    /// throughput by orders of magnitude), per-key acked counts,
    /// per-round latencies, and its read-check verdict.
    type WorkerResult = (Instant, Instant, Vec<u64>, Vec<f64>, bool);

    /// Collapses worker results into (wall seconds, acked, lat, ok).
    fn merge(results: Vec<WorkerResult>) -> (f64, Vec<Vec<u64>>, Vec<f64>, bool) {
        let t0 = results.iter().map(|r| r.0).min().expect("at least one worker");
        let t1 = results.iter().map(|r| r.1).max().expect("at least one worker");
        let mut acked = Vec::with_capacity(results.len());
        let mut lat = Vec::new();
        let mut ok = true;
        for (_, _, a, l, o) in results {
            acked.push(a);
            lat.extend(l);
            ok &= o;
        }
        (t1.duration_since(t0).as_secs_f64().max(1e-9), acked, lat, ok)
    }

    /// Keeps the higher-throughput repeat; the exactness gate must hold
    /// on every repeat.
    fn better(a: Measured, b: Measured) -> Measured {
        let ok = a.ok && b.ok;
        let mut m = if b.rps > a.rps { b } else { a };
        m.ok = ok;
        m
    }

    /// The min-of-k estimator: best throughput over `repeats` runs.
    fn best_of(repeats: u64, mut run: impl FnMut() -> Measured) -> Measured {
        let mut best: Option<Measured> = None;
        for _ in 0..repeats {
            let m = run();
            best = Some(match best {
                None => m,
                Some(b) => better(b, m),
            });
        }
        best.expect("repeats >= 1")
    }

    fn percentiles(lat: &mut [f64]) -> (f64, f64) {
        lat.sort_by(|a, b| a.total_cmp(b));
        let at = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
        (at(0.50), at(0.99))
    }

    /// Checks `k + 1 + Σ acked[k]` for every key through chunked probe
    /// reads; prints the first mismatch and returns false on divergence.
    fn check_sums(
        label: &str,
        read_chunk: &mut dyn FnMut(&[u64], &mut [u64]),
        acked: &[Vec<u64>],
        keys: u64,
    ) -> bool {
        const CHUNK: u64 = 2_048;
        let mut got = vec![0u64; CHUNK as usize];
        let mut ok = true;
        let mut start = 0u64;
        while start < keys {
            let end = (start + CHUNK).min(keys);
            let ks: Vec<u64> = (start..end).collect();
            read_chunk(&ks, &mut got[..ks.len()]);
            for (i, &k) in ks.iter().enumerate() {
                let expect = k + 1 + acked.iter().map(|a| a[k as usize]).sum::<u64>();
                if got[i] != expect && ok {
                    eprintln!(
                        "mwllsc-harness: E16 exactness FAILED ({label}, key {k}): \
                         {} != {expect}",
                        got[i]
                    );
                    ok = false;
                }
            }
            start = end;
        }
        ok
    }

    /// Store-mode cell: `callers` threads drive one `DynStoreHandle`
    /// each with `depth`-deep rounds split per `mix`; `churn`
    /// re-attaches the handle every round (the lease-storm option).
    #[allow(clippy::too_many_arguments)]
    fn run_store_cell(
        store: &dyn DynStore,
        mix: MixSpec,
        dist: KeyDist,
        callers: usize,
        depth: usize,
        ops: u64,
        churn: bool,
        seed: u64,
    ) -> Measured {
        let rounds = (ops / (callers as u64 * depth as u64)).max(1) as usize;
        let keys = store.key_capacity();
        {
            let mut h = store.attach_dyn();
            preload(&mut *h, keys);
        }
        let pure_read = mix.read_pct == 100;
        let barrier = std::sync::Barrier::new(callers + 1);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut h = store.attach_dyn();
                        let mut gen = KeyGen::new(dist, keys);
                        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 40));
                        let mut acked = vec![0u64; keys as usize];
                        let (mut reads, mut writes) =
                            (Vec::with_capacity(depth), Vec::with_capacity(depth));
                        let mut rbuf = vec![0u64; depth];
                        let mut lat = Vec::with_capacity(rounds);
                        let mut ok = true;
                        barrier.wait();
                        let t_start = Instant::now();
                        for _ in 0..rounds {
                            if churn {
                                h = store.attach_dyn();
                            }
                            mix.fill_round(&mut gen, &mut rng, depth, &mut reads, &mut writes);
                            let t0 = Instant::now();
                            if !writes.is_empty() {
                                if let Err(e) = h.update_many_dyn(&writes, &mut |_, v| {
                                    v[0] = v[0].wrapping_add(1);
                                }) {
                                    fail("store update", e);
                                }
                            }
                            if !reads.is_empty() {
                                if let Err(e) = h.read_many_into(&reads, &mut rbuf[..reads.len()]) {
                                    fail("store read", e);
                                }
                            }
                            lat.push(t0.elapsed().as_nanos() as f64 / depth as f64);
                            for &k in &writes {
                                acked[k as usize] += 1;
                            }
                            for (i, &k) in reads.iter().enumerate() {
                                let floor = k + 1;
                                if rbuf[i] < floor || (pure_read && rbuf[i] != floor) {
                                    ok = false;
                                }
                            }
                        }
                        (t_start, Instant::now(), acked, lat, ok)
                    })
                })
                .collect();
            barrier.wait();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });

        let (wall, acked, mut lat, mut ok) = merge(results);
        let mut probe = store.attach_dyn();
        ok &= check_sums(
            "store",
            &mut |ks, out| {
                if let Err(e) = probe.read_many_into(ks, out) {
                    fail("store probe", e);
                }
            },
            &acked,
            keys,
        );
        let (p50, p99) = percentiles(&mut lat);
        Measured { rps: (callers * depth * rounds) as f64 / wall, p50, p99, ok }
    }

    /// Server-mode cell: `conns` pipelined loopback clients, updates as
    /// ADD frames and reads as GET frames, measured at the client.
    fn run_server_cell(
        mix: MixSpec,
        dist: KeyDist,
        dispatch: Dispatch,
        conns: usize,
        depth: usize,
        ops: u64,
        seed: u64,
    ) -> (Measured, ServerStats) {
        let rounds = (ops / (conns as u64 * depth as u64)).max(1) as usize;
        let store = Store::new(StoreConfig::new(8, 4, 1, KEYS));
        {
            let mut h = store.attach();
            preload(&mut h, KEYS);
        }
        let server = Server::start(&store, ServerConfig::with_workers(1).dispatch(dispatch))
            .unwrap_or_else(|e| fail("cannot start server", e));
        let addr = server.local_addr();
        let pure_read = mix.read_pct == 100;
        let barrier = std::sync::Barrier::new(conns + 1);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut c = Client::connect(addr).unwrap_or_else(|e| fail("connect", e));
                        let mut gen = KeyGen::new(dist, KEYS);
                        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 40));
                        let mut acked = vec![0u64; KEYS as usize];
                        let (mut reads, mut writes) =
                            (Vec::with_capacity(depth), Vec::with_capacity(depth));
                        let mut lat = Vec::with_capacity(rounds);
                        let mut ok = true;
                        barrier.wait();
                        let t_start = Instant::now();
                        for _ in 0..rounds {
                            mix.fill_round(&mut gen, &mut rng, depth, &mut reads, &mut writes);
                            let t0 = Instant::now();
                            for &k in &writes {
                                c.send(&Request::Update { key: k, op: UpdateOp::Add(vec![1]) });
                            }
                            for &k in &reads {
                                c.send(&Request::Get { key: k });
                            }
                            if let Err(e) = c.flush() {
                                fail("flush", e);
                            }
                            for &k in &writes {
                                match c.recv() {
                                    Ok(Response::Value(_)) => acked[k as usize] += 1,
                                    other => fail("update reply", format!("{other:?}")),
                                }
                            }
                            for &k in &reads {
                                match c.recv() {
                                    Ok(Response::Value(v)) => {
                                        let floor = k + 1;
                                        if v[0] < floor || (pure_read && v[0] != floor) {
                                            ok = false;
                                        }
                                    }
                                    other => fail("get reply", format!("{other:?}")),
                                }
                            }
                            lat.push(t0.elapsed().as_nanos() as f64 / depth as f64);
                        }
                        (t_start, Instant::now(), acked, lat, ok)
                    })
                })
                .collect();
            barrier.wait();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });

        let (wall, acked, mut lat, mut ok) = merge(results);
        let mut probe = Client::connect(addr).unwrap_or_else(|e| fail("probe connect", e));
        ok &= check_sums(
            "server",
            &mut |ks, out| match probe.mget(ks.to_vec()) {
                Ok(Ok(vs)) => {
                    for (o, v) in out.iter_mut().zip(&vs) {
                        *o = v[0];
                    }
                }
                other => fail("probe mget", format!("{other:?}")),
            },
            &acked,
            KEYS,
        );
        drop(probe);
        let stats = server.shutdown();
        let (p50, p99) = percentiles(&mut lat);
        (Measured { rps: (conns * depth * rounds) as f64 / wall, p50, p99, ok }, stats)
    }

    /// Mesh-mode cell: callers forward their batches over SPSC rings to
    /// the shard-owning workers; same mix/dist split as store mode.
    fn run_mesh_cell(
        mix: MixSpec,
        dist: KeyDist,
        callers: usize,
        depth: usize,
        ops: u64,
        seed: u64,
    ) -> (Measured, MeshStats) {
        let rounds = (ops / (callers as u64 * depth as u64)).max(1) as usize;
        let store = Store::new(StoreConfig::new(8, 32, 1, KEYS));
        {
            let mut h = store.attach();
            preload(&mut h, KEYS);
        }
        let mesh = Mesh::try_new(Arc::clone(&store), MeshConfig::default().with_workers(2))
            .unwrap_or_else(|e| fail("cannot start mesh", e));
        let pure_read = mix.read_pct == 100;
        let barrier = std::sync::Barrier::new(callers + 1);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..callers)
                .map(|t| {
                    let (mesh, barrier) = (Arc::clone(&mesh), &barrier);
                    s.spawn(move || {
                        let mut h = mesh.attach();
                        let one = InlineVal::from_slice(&[1]).unwrap();
                        let mut gen = KeyGen::new(dist, KEYS);
                        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) << 40));
                        let mut acked = vec![0u64; KEYS as usize];
                        let (mut reads, mut writes) =
                            (Vec::with_capacity(depth), Vec::with_capacity(depth));
                        let mut rbuf = vec![0u64; depth];
                        let mut lat = Vec::with_capacity(rounds);
                        let mut ok = true;
                        barrier.wait();
                        let t_start = Instant::now();
                        for _ in 0..rounds {
                            mix.fill_round(&mut gen, &mut rng, depth, &mut reads, &mut writes);
                            let t0 = Instant::now();
                            if !writes.is_empty() {
                                if let Err(e) =
                                    h.update_batch(&writes, &mut |_| (UpdateKind::Add, one), None)
                                {
                                    fail("mesh update", e);
                                }
                            }
                            if !reads.is_empty() {
                                if let Err(e) = h.read_many_into(&reads, &mut rbuf[..reads.len()]) {
                                    fail("mesh read", e);
                                }
                            }
                            lat.push(t0.elapsed().as_nanos() as f64 / depth as f64);
                            for &k in &writes {
                                acked[k as usize] += 1;
                            }
                            for (i, &k) in reads.iter().enumerate() {
                                let floor = k + 1;
                                if rbuf[i] < floor || (pure_read && rbuf[i] != floor) {
                                    ok = false;
                                }
                            }
                        }
                        (t_start, Instant::now(), acked, lat, ok)
                    })
                })
                .collect();
            barrier.wait();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });

        let (wall, acked, mut lat, mut ok) = merge(results);
        let mut probe = mesh.attach();
        ok &= check_sums(
            "mesh",
            &mut |ks, out| {
                if let Err(e) = probe.read_many_into(ks, out) {
                    fail("mesh probe", e);
                }
            },
            &acked,
            KEYS,
        );
        let stats = mesh.stats();
        drop(probe);
        mesh.shutdown();
        if store.live_slot_leases() != 0 {
            fail("mesh shutdown", "leaked a shard-slot lease");
        }
        let (p50, p99) = percentiles(&mut lat);
        (Measured { rps: (callers * depth * rounds) as f64 / wall, p50, p99, ok }, stats)
    }

    fn cell_of(id: String, m: &Measured) -> Cell {
        Cell::new(id, m.ok, m.rps).latency(m.p50, m.p99)
    }

    let rev = bench_rev();
    let mut bench = BenchFile::new(
        "e16-ycsb",
        &rev,
        quick,
        repeats,
        "grid: backends jp-waitfree/seqlock/lock x mixes A(50/50 read-update)/B(95/5)/\
         C(read-only) on zipfian(0.99), plus uniform / 80-20 hot-set / handle-churn \
         variants, an update-only batch sweep (U, batch=4|32|256), the server loopback \
         path (coalesced + per-request) and the 2-worker mesh; KEYS=8192, W=1; rps is \
         best-of-repeats (min-of-k); p50/p99 are per-op amortized from pipelined rounds; \
         hist on server cells is write-batch sizes (1, 2-3, ..., 128+), on mesh cells \
         log2 ring occupancy; every key preloaded to k+1 and per-key acked sums checked \
         exactly after each cell",
    );
    let mut t = Table::new(["cell", "rps", "p50/op", "p99/op", "gate"]);
    let mut all_ok = true;
    let mut push_cell = |cell: Cell, m: &Measured| {
        t.row([
            cell.id.clone(),
            fmt_ops(m.rps),
            fmt_ns(m.p50),
            fmt_ns(m.p99),
            if m.ok { "ok".to_string() } else { "FAIL".to_string() },
        ]);
        all_ok &= m.ok;
        bench.push(cell);
    };

    // Backend x mix over the YCSB-default zipfian skew.
    for algo in [Algo::Jp, Algo::SeqLock, Algo::Lock] {
        for mix in [MIX_A, MIX_B, MIX_C] {
            let id = format!("e16/store/{}/{}/zipf", algo.name(), mix.name);
            let m = best_of(repeats, || {
                let store = try_build_store(algo, StoreConfig::new(8, 8, 1, KEYS))
                    .unwrap_or_else(|e| fail("build store", e));
                run_store_cell(&*store, mix, ZIPF, CALLERS, DEPTH, ops, false, seed)
            });
            push_cell(cell_of(id, &m), &m);
        }
    }

    // Distribution and churn variants on the paper backend, workload A.
    let variants: &[(&str, KeyDist, bool)] = &[
        ("uniform", KeyDist::Uniform, false),
        ("hot", KeyDist::HotSet { hot: 64, hot_pct: 80 }, false),
        ("zipf+churn", ZIPF, true),
    ];
    for &(tag, dist, churn) in variants {
        let id = format!("e16/store/jp-waitfree/A/{tag}");
        let m = best_of(repeats, || {
            let store = try_build_store(Algo::Jp, StoreConfig::new(8, 8, 1, KEYS))
                .unwrap_or_else(|e| fail("build store", e));
            run_store_cell(&*store, MIX_A, dist, CALLERS, DEPTH, ops, churn, seed)
        });
        push_cell(cell_of(id, &m), &m);
    }

    // Update-only batch-size sweep: the store's update_many economics.
    for batch in [4usize, 32, 256] {
        let id = format!("e16/store/jp-waitfree/U/zipf/batch={batch}");
        let m = best_of(repeats, || {
            let store = try_build_store(Algo::Jp, StoreConfig::new(8, 8, 1, KEYS))
                .unwrap_or_else(|e| fail("build store", e));
            run_store_cell(&*store, MIX_U, ZIPF, CALLERS, batch, ops, false, seed)
        });
        push_cell(cell_of(id, &m).counter("batch", batch as f64), &m);
    }

    // The server loopback path, both dispatch modes.
    let server_cells: &[(MixSpec, Dispatch, &str)] = &[
        (MIX_A, Dispatch::Coalesced, "coalesced"),
        (MIX_A, Dispatch::PerRequest, "per-request"),
        (MIX_B, Dispatch::Coalesced, "coalesced"),
    ];
    for &(mix, dispatch, tag) in server_cells {
        let id = format!("e16/server/{}/zipf/{tag}", mix.name);
        let mut last_stats: Option<ServerStats> = None;
        let m = best_of(repeats, || {
            let (m, stats) = run_server_cell(mix, ZIPF, dispatch, CONNS, SERVER_DEPTH, ops, seed);
            last_stats = Some(stats);
            m
        });
        let mut cell = cell_of(id, &m);
        if let (Some(stats), Dispatch::Coalesced) = (last_stats, dispatch) {
            cell = cell
                .counter("mean_write_batch", stats.mean_write_batch())
                .counter("waves", stats.waves as f64)
                .with_hist(stats.batch_hist.to_vec());
        }
        push_cell(cell, &m);
    }

    // The mesh path: shard ownership over rings, 2 workers.
    for mix in [MIX_A, MIX_B] {
        let id = format!("e16/mesh/{}/zipf", mix.name);
        let mut last_stats: Option<MeshStats> = None;
        let m = best_of(repeats, || {
            let (m, stats) = run_mesh_cell(mix, ZIPF, CALLERS, DEPTH, ops, seed);
            last_stats = Some(stats);
            m
        });
        let mut cell = cell_of(id, &m);
        if let Some(s) = last_stats {
            cell = cell
                .counter("entries", s.entries as f64)
                .counter("msgs", s.msgs as f64)
                .counter("waves", s.waves as f64)
                .with_hist(s.occ_hist.to_vec());
        }
        push_cell(cell, &m);
    }

    println!(
        "### {} cells, ~{ops} ops/cell, best of {repeats} repeats (min-of-k), \
         {CALLERS} callers / {CONNS} conns, KEYS = {KEYS}\n",
        bench.cells.len()
    );
    t.print();
    println!();
    println!("Shape check: C > B > A per backend (reads are wait-free snapshots, updates");
    println!("pay LL/SC commits); jp-waitfree tracks seqlock within a small factor and");
    println!("both beat the global lock under the update mixes; batch=256 amortizes");
    println!("per-batch overheads over batch=4; the churn column prices a fresh");
    println!("shard-slot lease per round. Single core — mesh and server cells pay their");
    println!("ring/socket round-trips with no parallelism to amortize them.\n");

    let path = format!("BENCH_{rev}.json");
    match std::fs::write(&path, bench.to_json()) {
        Ok(()) => println!(
            "Wrote {path} ({} cells, schema v{}).\n",
            bench.cells.len(),
            mwllsc_harness::bench_schema::SCHEMA_VERSION
        ),
        Err(e) => println!("NOTE: could not write {path}: {e}\n"),
    }
    if !all_ok {
        eprintln!("mwllsc-harness: E16 exactness gate failed (see FAIL rows above)");
        std::process::exit(2);
    }
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
    e10_store(quick);
    e11_backends(quick);
    e13_server(quick);
    e14_lint(quick);
    e15_mesh(quick);
    e16_ycsb(quick);
    #[cfg(mwllsc_model)]
    e12_model(quick);
}
