//! Batched small-matrix QDWH polar engine for the serving tier.
//!
//! The paper's task-based QDWH targets matrices large enough that one
//! factorization fills the machine. The serving workload is the opposite
//! shape: streams of *small* (`n ≲ 256`) independent polar decompositions
//! where per-solve overhead — allocation, pool dispatch, condition
//! estimation — dominates the flops. [`qdwh_batched`] amortizes that
//! overhead across a same-shape batch:
//!
//! * **Batch-major storage** ([`polar_matrix::BatchedDense`]): the whole
//!   batch of iterates lives in one contiguous allocation, entry stride
//!   `m * n`, so buffers are allocated once per *batch* and a round's
//!   GEMM-shaped work runs as batch-spanning packed sweeps.
//! * **One sequential round loop per pool lane**: the entries of a wave
//!   are independent, so the wave is cut into at most one contiguous chunk
//!   per lane and each chunk runs prologue, Halley rounds and epilogue on
//!   its own thread, start to finish — no task graph, no barrier between
//!   rounds, no shared mutable state (the crate is
//!   `#![forbid(unsafe_code)]`).
//! * **Shared condition estimation** ([`CondestCache`]): repeated
//!   `(n, scalar type, condition class)` streams skip the per-entry
//!   `geqrf` + condition-estimate prologue after the first sighting. The
//!   cache folds with `min`, so a shared bound is always a *lower* bound
//!   on what a fresh estimate would produce — an underestimated `l_0`
//!   costs at most extra iterations, never accuracy (the dynamically
//!   weighted map converges for any `l_0 ∈ (0, 1]`).
//!
//! A wave answers per entry ([`qdwh_batched_each`]): a failure, or a
//! cancel through the entry's own progress hook, ends that entry at a round
//! boundary and leaves the bits of every other entry what they would have
//! been without it; [`qdwh_batched`] folds the answers into all-or-first-error.
//!
//! Per entry the rounds play the steps [`polar_qdwh::qdwh_plan`] plans for
//! the scalar driver (factors equal to rounding), and an entry's
//! bits depend on neither the pool width nor the rest of the wave; the
//! batched-vs-sequential parity and determinism suites in `tests/` pin
//! both.

#![forbid(unsafe_code)]

mod cache;
mod engine;

pub use cache::{cond_class, CondestCache, CondestKey, UNHINTED_CLASS};
pub use engine::{
    qdwh_batched, qdwh_batched_each, BatchEntry, BatchError, BatchOptions, EntryResult,
};
