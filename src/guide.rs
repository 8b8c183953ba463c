//! A user guide, in three chapters: testing native programs, writing
//! explicit-state models, and interpreting search reports.
//!
//! The sub-modules contain no code — each is one chapter of
//! documentation, kept in rustdoc so it versions with the API it
//! describes.

/// # Chapter 1 — Testing a native Rust program
///
/// The stateless checker runs your real code under every interesting
/// interleaving. Three rules make a program testable:
///
/// 1. **Use the mocked primitives.** Everything in
///    [`icb_runtime::sync`](crate::runtime::sync) plus
///    [`thread::spawn`](crate::runtime::thread::spawn) and
///    [`DataVar`](crate::runtime::DataVar). Touching `std::sync` inside
///    the body escapes the scheduler: the checker can neither observe
///    nor control it.
/// 2. **Create state inside the closure.** Each explored schedule runs
///    the body again from scratch; primitives register themselves with
///    the current execution, so they must be constructed within it.
///    Share them across tasks with `Arc`.
/// 3. **Be deterministic and terminating.** Scheduling must be the only
///    source of nondeterminism (no wall-clock time, no I/O, no OS
///    randomness), and every schedule must terminate — blocking waits
///    instead of spin loops (a spinner is *enabled* forever, and the
///    preemption-free default policy will happily spin it into the step
///    limit).
///
/// Express correctness as ordinary `assert!`s inside the body; the
/// checker additionally reports deadlocks and data races on `DataVar`s
/// without any annotation. Then pick a search:
///
/// ```
/// use icb::{Search, SearchConfig};
/// use icb::runtime::{RuntimeProgram, sync::Mutex, thread};
/// use std::sync::Arc;
///
/// let program = RuntimeProgram::new(|| {
///     let total = Arc::new(Mutex::new(0));
///     let t = {
///         let total = Arc::clone(&total);
///         thread::spawn(move || *total.lock() += 1)
///     };
///     *total.lock() += 1;
///     t.join();
///     assert_eq!(*total.lock(), 2);
/// });
///
/// // Hunt: stop at the first bug, minimal preemptions guaranteed.
/// let hunt = Search::over(&program)
///     .config(SearchConfig::bug_hunt())
///     .run()
///     .unwrap();
/// assert!(hunt.bugs.is_empty());
///
/// // Certify: exhaust every execution with at most 2 preemptions.
/// let config = SearchConfig {
///     preemption_bound: Some(2),
///     ..SearchConfig::default()
/// };
/// let cert = Search::over(&program).config(config).run().unwrap();
/// assert!(cert.bugs.is_empty());
/// assert_eq!(cert.completed_bound, Some(2));
/// ```
pub mod testing_programs {}

/// # Chapter 2 — Writing an explicit-state model
///
/// When you need exact state counting, exhaustive reachability or
/// partial-order reduction — or when the system under test is a design
/// rather than code — write a [`Model`](crate::statevm::Model) with the
/// [`ModelBuilder`](crate::statevm::ModelBuilder) DSL.
///
/// A model is a fixed set of threads over global scalars, arrays and
/// locks. Each *shared* operation (`load`, `store`, `fetch_add`, `cas`,
/// `acquire`, `wait_*`, `yield_point`) is one step — one scheduling
/// point; local computation (`compute`, `jump*`, `assert`) is invisible
/// and free. Blocking is expressed with `acquire` and the `wait_*`
/// family: **never poll in a loop** — a spinning thread stays enabled
/// and defeats the search (use `wait_eq(done, n)` as the join idiom).
///
/// ```
/// use icb::statevm::{ModelBuilder, ExplicitIcb, ExplicitConfig, reachable_states};
///
/// let mut m = ModelBuilder::new();
/// let counter = m.global("counter", 0);
/// let lock = m.lock("m");
/// for _ in 0..2 {
///     m.thread("adder", |t| {
///         let v = t.local();
///         t.acquire(lock);
///         t.load(counter, v);
///         t.store(counter, v + 1);
///         t.release(lock);
///     });
/// }
/// let model = m.build();
///
/// // Exhaustive, with state caching (Algorithm 1 + table):
/// let report = ExplicitIcb::new(ExplicitConfig::default()).run(&model);
/// assert!(report.completed);
/// assert_eq!(report.distinct_states, reachable_states(&model, 1_000_000));
/// println!("{}", model.disasm()); // inspect what the builder emitted
/// ```
///
/// Models also implement
/// [`ControlledProgram`](crate::core::ControlledProgram), so every
/// stateless strategy (and the coverage figures machinery) runs on them
/// unchanged.
pub mod writing_models {}

/// # Chapter 3 — Reading a report
///
/// [`SearchReport`](crate::core::search::SearchReport) fields, in the
/// order you should look at them:
///
/// * **`bugs`** — each [`BugReport`](crate::core::search::BugReport)
///   carries the failing `schedule`: feed it to
///   [`ReplayScheduler`](crate::core::ReplayScheduler) to reproduce the
///   failure deterministically, as many times as you like, under a
///   debugger if needed. For [`Strategy::Icb`](crate::Strategy::Icb)
///   the *first* bug's `preemptions` is minimal over all failing
///   executions — the paper's "simplest explanation" property. Render the replayed trace with
///   [`render::lanes`](crate::core::render::lanes).
/// * **`completed` / `completed_bound`** — the coverage certificate.
///   `completed_bound == Some(c)` with no bugs means *no assertion
///   failure, deadlock or data race is reachable with ≤ c preemptions*.
///   The paper's evaluation (and two decades of practice since) says
///   c = 2 already catches most real concurrency bugs.
/// * **`bound_history`** — executions and cumulative states per bound;
///   watch it to decide whether another bound is worth the budget
///   (Figure 1's curve flattens fast).
/// * **`distinct_states` / `coverage_curve`** — the paper's coverage
///   metric, comparable across strategies on the same program.
/// * **`max_stats`** — the largest `K` (steps), `B` (blocking steps)
///   and `c` (preemptions) observed; with Theorem 1
///   ([`bounds`](crate::core::bounds)) they estimate how expensive the
///   next bound will be.
/// * **`truncated`** — the search dropped deferred work (queue cap):
///   treat coverage claims as lower bounds.
///
/// A bug's `outcome` tells you what *kind* of failure to look for:
/// `AssertionFailure` (your invariant), `Deadlock` (the blocked set is
/// listed), or `DataRace` (two accesses unordered by happens-before —
/// fix the synchronization, not the assert; the race makes every other
/// verdict unreliable).
pub mod reading_reports {}
