//! An outside-in benchmark of the ICB checker.
//!
//! It drives the public API only — the workload registry, the `Search`
//! API, `minimize_witness` and `ReplayScheduler` — and measures
//! end-to-end cost (untraced runs) and per-layer cost (a traced run
//! that wraps each program in the [`layers::Traced`] decorator). See
//! `README.md` beside this crate for the workloads, metrics and the
//! predictions linking the two.

pub mod bench;
pub mod hist;
pub mod layers;
pub mod sys;
pub mod workload;
