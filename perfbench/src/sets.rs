//! The benchmark's workloads and the job specs each one runs.
//!
//! Every input is pinned here rather than taken from the environment: the
//! size, one simulator thread per job, no profiling. The seed only reorders
//! the specs ([`shuffle`]); the program sees nothing but the specs.
//!
//! One simulator thread is pinned by clearing `R2D2_THREADS`
//! ([`pin_environment`]) and leaving `JobSpec::threads` at 0, which the
//! harness resolves to 1, rather than by setting `threads = 1`: the result
//! cache compares the embedded spec with `==`, which includes `threads`,
//! while the cache file does not store it, so a spec with an explicit
//! thread count never hits the cache.

use std::collections::HashSet;

use r2d2_harness::{sets, JobSpec, ModelSpec};
use r2d2_sym::Rng;
use r2d2_workloads::Size;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 12/13/16 comparison set at small size: 43 zoo workloads under
    /// the five machine models, run as one sequential sweep.
    Fig13Small,
    /// The distinct specs of `sec54` ∪ `ablation` at small size, submitted
    /// to an in-process `r2d2-serve` instance by a closed loop of clients.
    ServeDse,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Fig13Small, Workload::ServeDse];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig13Small => "fig13_small",
            Workload::ServeDse => "serve_dse",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one pass (sweeps) or round (service) takes on a 2-core
    /// x86-64 host; a run of `--seconds s` makes `s / pass_s` of them, at
    /// least one, so the measured work is fixed by the arguments alone.
    pub fn pass_s(self) -> f64 {
        match self {
            Workload::Fig13Small => 8.0,
            Workload::ServeDse => 6.5,
        }
    }

    /// Passes (or rounds) for a run of `seconds`.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.pass_s()).round() as usize).max(1)
    }

    /// The workload's specs in their set order, pinned to one thread.
    pub fn specs(self) -> Vec<JobSpec> {
        let specs = match self {
            Workload::Fig13Small => sets::comparison(Size::Small),
            Workload::ServeDse => {
                let mut all = sets::sec54(Size::Small);
                all.extend(sets::ablation(Size::Small));
                dedup(all)
            }
        };
        specs.into_iter().map(pin).collect()
    }
}

/// Environment variables the harness and the service would consult.
const IGNORED_ENV: [&str; 4] = ["R2D2_THREADS", "R2D2_SIZE", "R2D2_NO_CACHE", "R2D2_RESULTS"];

/// Clear the environment variables the harness and the service would
/// consult, so every input is the one the benchmark sets.
/// Call before any thread starts.
pub fn pin_environment() {
    for var in IGNORED_ENV {
        std::env::remove_var(var);
    }
}

/// Pin the execution knobs of a spec: the thread count the harness resolves
/// with `R2D2_THREADS` cleared (one) and no profiling.
pub fn pin(mut spec: JobSpec) -> JobSpec {
    spec.threads = 0;
    spec.profile = false;
    spec
}

/// Drop specs whose content hash appeared earlier, keeping first-seen order.
pub fn dedup(specs: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut seen = HashSet::new();
    specs
        .into_iter()
        .filter(|s| seen.insert(s.content_hash()))
        .collect()
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// The metric-name key of a machine model; the ablation arm is R2D2.
pub fn model_key(model: ModelSpec) -> &'static str {
    match model {
        ModelSpec::Baseline => "baseline",
        ModelSpec::Dac => "dac",
        ModelSpec::Darsie => "darsie",
        ModelSpec::DarsieScalar => "darsie_scalar",
        ModelSpec::R2d2 | ModelSpec::R2d2With(_) => "r2d2",
        ModelSpec::Ideals => "ideals",
    }
}

/// The timed machine models, baseline first, by [`model_key`].
pub const MODEL_KEYS: [&str; 5] = ["baseline", "dac", "darsie", "darsie_scalar", "r2d2"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes() {
        assert_eq!(Workload::Fig13Small.specs().len(), 215);
        assert_eq!(Workload::ServeDse.specs().len(), 144);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.specs().iter().all(|s| s.threads == 0 && !s.profile));
        }
    }

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng::new(7));
        shuffle(&mut b, &mut Rng::new(7));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
