//! **icb** — a reproduction of *"Iterative Context Bounding for Systematic
//! Testing of Multithreaded Programs"* (Musuvathi & Qadeer, PLDI 2007).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the ICB algorithm and the baseline search strategies.
//! * [`runtime`] — the stateless controlled-concurrency runtime (the
//!   paper's CHESS analog): write ordinary Rust closures against mocked
//!   synchronization primitives and explore every schedule.
//! * [`statevm`] — the explicit-state concurrent VM (the ZING analog)
//!   with state-caching model checking.
//! * [`race`] — vector clocks, happens-before fingerprints and data-race
//!   detection.
//! * [`workloads`] — the six benchmark programs of the paper's
//!   evaluation, with their seeded bugs.
//! * [`telemetry`] — concrete [`SearchObserver`](core::SearchObserver)
//!   sinks: in-memory metrics, JSONL event streams, live progress.
//! * [`cache`] — the persistent state-fingerprint cache: in-run
//!   subtree pruning, disk-backed segments and a cross-run
//!   certification ledger (bind one with
//!   [`Search::cache`](core::search::Search::cache)).
//!
//! # Quickstart
//!
//! ```
//! use icb::{Search, SearchConfig};
//! use icb::runtime::{RuntimeProgram, sync::Mutex, thread};
//! use std::sync::Arc;
//!
//! // A racy program: both threads do read-modify-write without holding
//! // the lock for the whole update.
//! let program = RuntimeProgram::new(|| {
//!     let counter = Arc::new(Mutex::new(0i32));
//!     let handles: Vec<_> = (0..2).map(|_| {
//!         let counter = Arc::clone(&counter);
//!         thread::spawn(move || {
//!             let v = *counter.lock();   // read
//!             *counter.lock() = v + 1;   // write lost-update race
//!         })
//!     }).collect();
//!     for h in handles { h.join(); }
//!     assert_eq!(*counter.lock(), 2, "lost update");
//! });
//!
//! let report = Search::over(&program)
//!     .config(SearchConfig::bug_hunt())
//!     .run()
//!     .unwrap();
//! let bug = report.first_bug().expect("lost update found");
//! assert_eq!(bug.preemptions, 1); // minimal: one preemption suffices
//! ```
//!
//! Every exploration — ICB, DFS, random walk, parallel (`.jobs(n)`),
//! checkpointed, resumed — goes through the same [`Search`] builder;
//! see [`core::search::Search`] for the full surface.

pub mod guide;

pub use icb_cache as cache;
pub use icb_core as core;
pub use icb_race as race;
pub use icb_runtime as runtime;
pub use icb_statevm as statevm;
pub use icb_telemetry as telemetry;
pub use icb_workloads as workloads;

pub use icb_core::search::{Frontier, Search, SearchConfig, SearchError, SearchReport, Strategy};
