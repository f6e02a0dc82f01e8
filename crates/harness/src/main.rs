//! `mwllsc-harness` — regenerates every table of `EXPERIMENTS.md` and
//! checks each paper claim against a stated bound.
//!
//! ```text
//! mwllsc-harness <experiment> [--quick]
//!
//! experiments:
//!   e1-space             exact space usage vs N, W (ours vs baselines)
//!   e2-time-w            LL/SC latency vs W (linear, Theorem 1)
//!   e3-time-n            LL/SC latency vs N (flat, Theorem 1)
//!   e4-vl                VL latency grid (O(1), Theorem 1)
//!   e5-waitfree          simulator step bounds under adversarial schedules
//!   e6-linearizability   exhaustive + sampled linearizability checking
//!   e7-helping           helping-path statistics under real-thread storms
//!   e8-compare           throughput + space, all implementations
//!   e9-reclamation       epoch-substrate SC cost and node high-water
//!   e10-store            sharded store: throughput vs shards, key scaling
//!   ablations            substrate and LL-strategy design choices
//!   e12-model            model checking of the shipping code (needs
//!                        `RUSTFLAGS='--cfg mwllsc_model'`)
//!   e14-lint             static policy sweep (mwllsc-lint) over the
//!                        workspace: facade, orderings, SAFETY, no-alloc
//!   all                  everything above, in order
//! ```
//!
//! Timings are medians with their interquartile range over blocks of
//! iterations. Each experiment ends in bounded checks; a failed one prints
//! `CHECK FAILED: <experiment>: <what>`, and the process exits 1 after the
//! remaining experiments have run. `--quick` shrinks iteration counts ~10x
//! for smoke runs (CI runs `all --quick`). Throughput and latency of the
//! store, mesh and server are measured by the repository benchmark,
//! `perfbench/`.

mod experiments;
mod table;
mod timing;

fn usage() -> ! {
    eprintln!(
        "usage: mwllsc-harness <e1-space|e2-time-w|e3-time-n|e4-vl|e5-waitfree|\
         e6-linearizability|e7-helping|e8-compare|e9-reclamation|e10-store|\
         ablations|e12-model|e14-lint|all> [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cmd = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| usage());

    println!("# mwllsc experiment harness — {cmd}{}\n", if quick { " (quick)" } else { "" });
    println!(
        "host: {} {} · {} logical cores · built in {} mode\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    match cmd.as_str() {
        "e1-space" => experiments::e1_space(quick),
        "e2-time-w" => experiments::e2_time_w(quick),
        "e3-time-n" => experiments::e3_time_n(quick),
        "e4-vl" => experiments::e4_vl(quick),
        "e5-waitfree" => experiments::e5_waitfree(quick),
        "e6-linearizability" => experiments::e6_linearizability(quick),
        "e7-helping" => experiments::e7_helping(quick),
        "e8-compare" => experiments::e8_compare(quick),
        "e9-reclamation" => experiments::e9_reclamation(quick),
        "e10-store" => experiments::e10_store(quick),
        "ablations" => experiments::ablations(quick),
        "e12-model" => experiments::e12_model(quick),
        "e14-lint" => experiments::e14_lint(quick),
        "all" => experiments::all(quick),
        _ => usage(),
    }
    let failed = experiments::failed_checks();
    if failed > 0 {
        eprintln!("mwllsc-harness: {failed} bounded check(s) failed (see CHECK FAILED above)");
        std::process::exit(1);
    }
}
