//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (see `EXPERIMENTS.md` at the workspace root for the
//! paper-vs-measured record).
//!
//! The heavy lifting lives in [`experiments`]; the `reproduce` binary and
//! the criterion benches are thin wrappers over it.

pub mod benchcmd;
pub mod crashcmd;
pub mod degradecmd;
pub mod experiments;
pub mod harness;
pub mod insightcmd;
pub mod json;
pub mod resilience;
pub mod servecmd;
pub mod soak;
pub mod tracecmd;

pub use experiments::*;
