//! Shared set-up: the `synth/credit` scenario and its seeded applicants,
//! the serving configuration, cohort splits and the run's output
//! directory.

use jit_core::{AdminConfig, CandidateParams, JustInTime, UserRequest};
use jit_data::scenario::ScenarioSpec;
use jit_data::SyntheticGenerator;
use jit_ml::RandomForestParams;
use jit_service::CohortMember;
use jit_temporal::future::FutureModelsParams;
use std::path::PathBuf;

/// Shards behind every serving tier (one per core of the reference
/// machine).
pub const SHARDS: usize = 2;

/// SplitMix64: the benchmark's own seeded generator for schedules and
/// samples, independent of the program's RNGs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices below `n`, in increasing order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k.min(n));
        idx.sort_unstable();
        idx
    }
}

/// The seed of `synth/credit` in the scenario registry. Its history
/// trains the system every run serves, so runs on different `--seed`s
/// measure the same models and differ only in who applies and when.
pub const SYSTEM_SEED: u64 = 0x0dd5_eed5;

/// The scenario of one run: the registered system's history, and the
/// applicants drawn from `ScenarioSpec::credit(seed)`.
pub struct Scenario {
    pub spec: ScenarioSpec,
    pub gen: SyntheticGenerator,
    applicants: SyntheticGenerator,
}

impl Scenario {
    /// `synth/credit` with a cohort of `users` applicants drawn from `seed`.
    pub fn credit(seed: u64, users: usize) -> Scenario {
        let spec = ScenarioSpec::credit(SYSTEM_SEED);
        let gen = SyntheticGenerator::new(&spec, 0);
        let applicants = SyntheticGenerator::new(
            &ScenarioSpec::credit(seed).with_cohort_size(users),
            0,
        );
        Scenario { spec, gen, applicants }
    }

    /// Trains the step-0 system with a forest of `trees` trees.
    pub fn train(&self, trees: usize) -> JustInTime {
        JustInTime::train(
            config(&self.spec, trees),
            self.gen.schema(),
            &self.gen.history(0),
        )
        .unwrap_or_else(|e| fail(&format!("training failed: {e}")))
    }

    /// The cohort split into a warm-up part of `warm` users and a timed
    /// part holding the rest; which user lands where is a seeded shuffle,
    /// so both parts have the scenario's cohort mix.
    pub fn split_cohort(
        &self,
        warm: usize,
        seed: u64,
    ) -> (Vec<CohortMember>, Vec<CohortMember>) {
        let mut members: Vec<CohortMember> = self
            .applicants
            .cohort()
            .into_iter()
            .map(|u| CohortMember::new(u.user_id, UserRequest::new(u.profile)))
            .collect();
        let mut rng = Rng::new(seed, 0xc0_4027);
        let mut keyed: Vec<(u64, CohortMember)> =
            members.drain(..).map(|m| (rng.next_u64(), m)).collect();
        keyed.sort_by_key(|(k, _)| *k);
        let mut all: Vec<CohortMember> = keyed.into_iter().map(|(_, m)| m).collect();
        let timed = all.split_off(warm.min(all.len()));
        (all, timed)
    }
}

/// Serving configuration: the scenario's horizon, a forest of `trees`
/// trees, and the repository's bench-scale search settings.
fn config(spec: &ScenarioSpec, trees: usize) -> AdminConfig {
    AdminConfig {
        horizon: spec.horizon,
        start_year: spec.start_year,
        period_years: 1,
        future: FutureModelsParams {
            n_landmarks: 40,
            pool_slices: 3,
            forest: RandomForestParams { n_trees: trees, ..Default::default() },
            ..Default::default()
        },
        candidates: CandidateParams {
            beam_width: 6,
            max_iters: 4,
            top_k: 6,
            ..Default::default()
        },
        parallel_generators: true,
        threads: 0,
        ..Default::default()
    }
}

/// The run's output directory inside the checkout (WAL files, span
/// dumps). Created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

/// Aborts the run: a benchmark that cannot set up prints no result.
pub fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}
