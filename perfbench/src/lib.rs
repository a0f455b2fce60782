//! End-to-end and per-layer host-time benchmark of the R2D2 reproduction.
//!
//! R2D2's claims are simulated reductions; what this reproduction costs its
//! users is host time. The benchmark measures that cost on two workloads
//! ([`sets::Workload`]), in-process, through the crates' public functions:
//!
//! - the untraced run ([`sweep::run`], [`serve::run`]) reports the
//!   end-to-end metrics a user sees;
//! - the traced run ([`sweep::run_traced`], [`serve::run_traced`]) times
//!   every call the benchmark makes into a crate as a [`spans::Span`] and
//!   derives the per-layer metrics from the spans' self times
//!   ([`decompose`]).
//!
//! Every simulated result is checked against a digest recorded from
//! `r2d2_harness::execute` ([`digest`]); a mismatch or an error counts as a
//! failed operation in the [`report::Report`].
//!
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each per-layer metric should move.

pub mod decompose;
pub mod digest;
pub mod heap;
pub mod report;
pub mod serve;
pub mod sets;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod workdir;
