//! Trace analysis and SLO monitoring for the SummaGen runtime: turn
//! recorded observability into *answers*.
//!
//! The tracing stack records where time went; this crate answers the
//! two questions operators actually ask of it:
//!
//! * **What should we optimize?** — [`whatif`] replays a recorded trace
//!   under virtual interventions (communication free, a device 2×
//!   faster, one link free) through the happens-before DAG and ranks
//!   the makespan reductions ([`rank_opportunities`]), with
//!   [`sensitivity`] curves showing how each win decays for partial
//!   speedups. Built on [`summagen_trace::replay()`].
//! * **Is a tenant's SLO burning?** — [`slo`] evaluates declarative
//!   per-tenant objectives ([`SloSpec`]: p95 latency, deadline
//!   hit-rate, availability) with multi-window burn-rate alerting
//!   ([`SloEngine`]): an alert fires only when both a fast and a slow
//!   sliding window exceed the burn threshold, and latches until the
//!   fast window recovers.
//!
//! Both halves are pure over their inputs — a [`RecordedTrace`] or a
//! stream of job outcomes — so the same code runs inside the service
//! loop and offline over exported traces, deterministically.
//!
//! [`RecordedTrace`]: summagen_trace::RecordedTrace

pub mod slo;
pub mod whatif;

pub use slo::{BurnConfig, SloAlert, SloEngine, SloKind, SloPolicy, SloSpec};
pub use whatif::{
    candidate_interventions, opportunity_table, rank_opportunities, sensitivity, Opportunity,
    SensitivityCurve, SensitivityPoint,
};
