//! SummaGen — parallel matrix-matrix multiplication over non-rectangular
//! partitions, the paper's core contribution.
//!
//! Like SUMMA, the algorithm has three stages (Section IV):
//!
//! 1. **Horizontal communications of `A`** — every processor gathers, into
//!    its working matrix `WA`, all sub-partition rows of `A` in which it
//!    owns at least one sub-partition (broadcasts within per-row
//!    communicators; rows wholly owned by one processor are copied locally
//!    without communication).
//! 2. **Vertical communications of `B`** — symmetric, into `WB`, over
//!    per-column communicators.
//! 3. **Local computations** — one DGEMM per owned sub-partition
//!    (`height × n` by `n × width`), accumulating exactly the processor's
//!    own partition of `C`; computing per sub-partition avoids the
//!    redundant work a blanket `WA × WB` would do.
//!
//! One stage engine, the panel loop in [`panelled`], runs every SummaGen
//! entry point. It walks a schedule of k-panels with one of two payload
//! modes:
//!
//! * **real** payloads — matrices are materialized and multiplied with
//!   the kernels from `summagen-matrix` ([`ExecutionMode`] picks the
//!   kernel); the result is verified against a sequential reference in
//!   the tests;
//! * **phantom** payloads — size-only messages, and each local DGEMM
//!   advances the rank's virtual clock by the device-model time from
//!   `summagen-platform`. This is how the paper-scale experiments (N up
//!   to 38 416) run ([`simulate()`]).
//!
//! and one of two schedules:
//!
//! * **one-shot** — a single panel over the whole inner dimension: the
//!   paper's algorithm above ([`multiply`], [`multiply_with_recovery`],
//!   [`simulate()`] and its variants);
//! * **per-column** — one panel per grid column, which bounds each
//!   rank's working memory ([`multiply_panelled`], [`simulate_panelled`])
//!   and carries the checksummed, checkpointed executor
//!   ([`multiply_abft`]).
//!
//! The classic baselines (SUMMA, Cannon, 2.5D, block-cyclic SUMMA, CAPS)
//! live in their own modules.

pub mod abft;
pub mod caps;
pub mod commopt;
pub mod cyclic;
pub mod executor;
pub mod panelled;
pub mod rankdata;
pub mod simulate;
pub mod summa;

pub use abft::{
    multiply_abft, multiply_abft_prefix, multiply_abft_traced, panel_boundaries, AbftOptions,
    AbftReport, AbftRunResult, PanelCheckpoint,
};
pub use caps::{caps_multiply, caps_multiply_with_cost, CapsResult};
pub use commopt::{
    cannon_multiply, cannon_multiply_with_cost, summa25d_multiply, summa25d_multiply_with_cost,
    GridRunResult,
};
pub use cyclic::{summa_cyclic_multiply, summa_cyclic_multiply_with_cost, BlockCyclic};
pub use executor::{
    multiply, multiply_traced, multiply_with_cost, multiply_with_recovery, ExecutionMode,
    RecoveryError, RecoveryOptions, RecoveryReport, RunResult,
};
pub use panelled::{
    multiply_panelled, multiply_panelled_with_cost, peak_workspace_elems, simulate_panelled,
};
pub use rankdata::{assemble, distribute, RankMatrices};
pub use simulate::{
    metered_energy_from_timelines, simulate, simulate_instrumented, simulate_observed,
    simulate_observed_on, simulate_traced, simulate_with_energy, SimReport,
};
pub use summa::{summa_multiply, summa_multiply_with_cost, summa_simulate, SummaResult};
