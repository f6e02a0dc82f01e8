//! Library surface of `mwllsc-harness`: seeded YCSB-style workload
//! generation, the one piece of the experiment harness that is data, not
//! measurement.
//!
//! The binary (`src/main.rs`) layers the experiments and CLI on top.
//! Keeping the generator in a library lets the repository benchmark
//! (`perfbench/`) and the fixture suites in `tests/` draw the same
//! seeded key streams, and keeps their determinism unit-testable.

#![warn(missing_docs, missing_debug_implementations)]

pub mod workload;
