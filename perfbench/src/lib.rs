//! The repository benchmark: seeded closed-loop workloads against the
//! public APIs of `mwllsc-store`, `mwllsc-mesh` and `mwllsc-server`,
//! with correctness gates, end-to-end metrics, and a traced run that
//! measures each layer on its own.
//!
//! `src/main.rs` is the command line; `BENCHMARK.json` at the repository
//! root lists the workloads and metrics.

#![warn(missing_docs, missing_debug_implementations)]

pub mod alloc;
mod hist;
mod ladder;
mod stream;
mod trace;
mod workload;

pub use workload::{run, Config, Front, Metric, Outcome, Spec, NAMES};

/// The last line of a run: one JSON object with `correct`, `attempted`,
/// `failed` and every metric by name with its unit.
#[must_use]
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
