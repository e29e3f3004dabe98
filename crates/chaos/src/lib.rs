//! # gtpin-chaos
//!
//! End-to-end chaos harness for the GT-Pin suite, surfaced as
//! `gtpin chaos --seeds N`.
//!
//! Each scenario is derived **purely from one seed**
//! ([`Scenario::derive`]): a multi-site fault plan (a random subset
//! of the registered `gtpin_faults` sites at random rates), a
//! kill/resume schedule across the profile → explore → sim → serve
//! pipeline, and a worker-thread count in `1..=8`. The trial driver
//! ([`run_trial`]) executes the scenario and judges it against the
//! invariant oracle:
//!
//! - **conservation** — every trace record appended is stored,
//!   dropped, or quarantined (the executor's own identity check,
//!   surfaced through fault accounting);
//! - **resume identity** — a run killed at the scheduled point and
//!   resumed from its journal is byte-identical to an uninterrupted
//!   run, including the supervisor's policy trajectory;
//! - **replay identity** — two identically-seeded runs agree on
//!   digests, accounting, and trajectory;
//! - **bounded convergence** — the sweep's injected crash/resume
//!   loop converges within the restart budget.
//!
//! A failing scenario is shrunk ([`shrink_scenario`]) to a minimal
//! `(seed, site-set, kill-point)` triple before it is reported.
//!
//! Beside the generator sits a fixed [`corpus`]: one hand-built
//! scenario per recovery path, each with an [`Expect`] contract,
//! judged by [`self_test`] (`gtpin chaos --self-test`).
//!
//! The chaos run itself honors the same standards it enforces: with
//! `--journal` each completed scenario's summary is durable, and a
//! killed run resumed with `--resume` skips finished scenarios and
//! produces the identical final digest. Nothing volatile is folded
//! into the digest, and every stage receives the scenario's thread
//! count explicitly, so the digest is also independent of the
//! ambient `GTPIN_THREADS`.

pub mod corpus;
pub mod scenario;
pub mod shrink;
pub mod trial;

pub use corpus::{Expect, Fired};
pub use scenario::{OracleKind, Scenario, POOL_LOSSY, POOL_RESUME_SAFE, RATE_LADDER};
pub use shrink::shrink_scenario;
pub use trial::{run_trial, TrialReport, DEFAULT_MAX_RESTARTS};

use std::path::PathBuf;

use gtpin_durable::Journal;
use gtpin_obs::frame::{fnv_fold, FNV_BASIS};
use serde::{Deserialize, Serialize};

/// Env knob: base seed for `gtpin chaos` (strict-parsed by
/// `validate_env`; the `--seed-base` flag overrides).
pub const CHAOS_SEED_ENV: &str = "GTPIN_CHAOS_SEED";

/// Env knob: restart budget for the sweep crash/resume loop
/// (strict-parsed by `validate_env`; `0` means "no restarts
/// allowed", which fails any scenario that arms `journal.crash`).
pub const CHAOS_MAX_RESTARTS_ENV: &str = "GTPIN_CHAOS_MAX_RESTARTS";

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of scenarios (seeds `seed_base .. seed_base + seeds`).
    pub seeds: u64,
    /// First seed (`--seed-base`, default [`CHAOS_SEED_ENV`] or 0).
    pub seed_base: u64,
    /// Journal directory for the chaos run's own durability; `None`
    /// runs without it.
    pub journal_dir: Option<PathBuf>,
    /// Recover `journal_dir` and skip completed scenarios.
    pub resume: bool,
    /// Sweep restart budget per scenario.
    pub max_restarts: u64,
    /// Scratch directory for per-trial journals.
    pub scratch: PathBuf,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seeds: 5,
            seed_base: std::env::var(CHAOS_SEED_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
            journal_dir: None,
            resume: false,
            max_restarts: std::env::var(CHAOS_MAX_RESTARTS_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_MAX_RESTARTS),
            scratch: trial::default_scratch(),
        }
    }
}

/// One journaled scenario outcome — everything needed to skip the
/// scenario on resume and still fold the identical digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// The scenario's seed.
    pub seed: u64,
    /// The deterministic summary line.
    pub line: String,
    /// The trial digest.
    pub digest: u64,
    /// Oracle violations (empty = passed).
    pub violations: Vec<String>,
    /// Shrunk minimal description, present only for failures.
    pub shrunk: Option<String>,
}

/// The chaos run's final report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario outcomes in seed order.
    pub scenarios: Vec<ScenarioRecord>,
    /// Scenarios replayed from the journal instead of re-run.
    pub replayed: usize,
    /// Deterministic digest over every scenario line + digest.
    pub digest: u64,
}

impl ChaosReport {
    /// Count of failed scenarios.
    pub fn failures(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| !s.violations.is_empty())
            .count()
    }

    /// Deterministic human rendering — what `gtpin chaos` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for record in &self.scenarios {
            out.push_str(&record.line);
            out.push('\n');
            for violation in &record.violations {
                out.push_str(&format!("  violation: {violation}\n"));
            }
            if let Some(shrunk) = &record.shrunk {
                out.push_str(&format!("  shrunk to: {shrunk}\n"));
            }
        }
        out.push_str(&format!(
            "chaos: {} scenario(s), {} failure(s), digest {:#018x}\n",
            self.scenarios.len(),
            self.failures(),
            self.digest
        ));
        out
    }
}

/// Errors of the chaos harness itself (journal trouble, bad config).
/// Scenario failures are *results*, not errors.
#[derive(Debug)]
pub enum ChaosError {
    /// The chaos journal could not be created, recovered, or
    /// appended to.
    Journal(gtpin_durable::JournalError),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Journal(e) => write!(f, "chaos journal: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Journal(e) => Some(e),
        }
    }
}

impl From<gtpin_durable::JournalError> for ChaosError {
    fn from(e: gtpin_durable::JournalError) -> ChaosError {
        ChaosError::Journal(e)
    }
}

/// Run the chaos harness under `config`.
///
/// # Errors
///
/// Returns [`ChaosError`] only for harness-level trouble (its own
/// journal); scenario failures land in the report.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ChaosError> {
    let mut span = gtpin_obs::span("chaos.run");
    if span.active() {
        span.arg_u64("seeds", config.seeds);
        span.arg_u64("seed_base", config.seed_base);
    }

    // Recover (or create) the chaos run's own journal: completed
    // scenarios replay from their durable summaries, so a killed
    // `gtpin chaos` resumed mid-run folds the identical digest.
    let mut completed: std::collections::BTreeMap<u64, ScenarioRecord> =
        std::collections::BTreeMap::new();
    let mut journal = match &config.journal_dir {
        None => None,
        Some(dir) if config.resume => {
            let (journal, recovery) = Journal::recover(dir)?;
            for payload in &recovery.records {
                if let Ok(record) =
                    serde_json::from_str::<ScenarioRecord>(&String::from_utf8_lossy(payload))
                {
                    completed.insert(record.seed, record);
                }
            }
            Some(journal)
        }
        Some(dir) => Some(Journal::create(dir)?),
    };

    let mut scenarios: Vec<ScenarioRecord> = Vec::with_capacity(config.seeds as usize);
    let mut replayed = 0usize;
    for seed in config.seed_base..config.seed_base.saturating_add(config.seeds) {
        if let Some(record) = completed.get(&seed) {
            gtpin_obs::counter_add("chaos.scenario_replayed", 1);
            scenarios.push(record.clone());
            replayed += 1;
            continue;
        }
        let record = run_one(seed, config);
        if let Some(journal) = &mut journal {
            let json = serde_json::to_string(&record).unwrap_or_default();
            journal.append(json.as_bytes())?;
        }
        scenarios.push(record);
    }

    let mut digest = FNV_BASIS;
    for record in &scenarios {
        digest = fnv_fold(digest, record.line.as_bytes());
        digest = fnv_fold(digest, &record.digest.to_le_bytes());
    }
    let _ = std::fs::remove_dir_all(&config.scratch);
    Ok(ChaosReport {
        scenarios,
        replayed,
        digest,
    })
}

/// Derive, run, and (on failure) shrink one scenario.
fn run_one(seed: u64, config: &ChaosConfig) -> ScenarioRecord {
    let mut span = gtpin_obs::span("chaos.scenario");
    let sc = Scenario::derive(seed);
    if span.active() {
        span.arg_u64("seed", seed);
        span.arg_str("oracle", sc.oracle.label().to_string());
        span.arg_u64("sites", sc.sites.len() as u64);
        span.arg_u64("threads", sc.threads as u64);
    }
    gtpin_obs::counter_add("chaos.scenarios", 1);
    // Derived scenarios are judged by the generic oracles alone.
    let generic = Expect::default();
    let report = run_trial(&sc, &generic, config.max_restarts, &config.scratch);
    let shrunk = if report.passed() {
        None
    } else {
        gtpin_obs::counter_add("chaos.failures", 1);
        // Minimize before reporting: re-run the trial on each
        // candidate and keep edits that still violate an oracle.
        let minimal = shrink_scenario(&sc, |candidate| {
            !run_trial(candidate, &generic, config.max_restarts, &config.scratch).passed()
        });
        Some(minimal.describe())
    };
    ScenarioRecord {
        seed,
        line: report.line,
        digest: report.digest,
        violations: report.violations,
        shrunk,
    }
}

/// Run the built-in self-test, what `gtpin chaos --self-test`
/// prints: the shrinker self-test followed by every entry of the
/// fault corpus ([`corpus`]) judged against its contract, ending with a
/// `corpus: N entries, M violations` line. Returns the rendering and
/// whether everything held.
pub fn self_test() -> (String, bool) {
    let (line, shrunk) = shrink_self_test();
    let scratch = trial::default_scratch();
    let (rendered, violations) = corpus::run_corpus(DEFAULT_MAX_RESTARTS, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    (format!("{line}\n{rendered}"), shrunk && violations == 0)
}

/// The shrinker self-test: derive a scenario, force a synthetic
/// single-site failure predicate, and check the shrinker reduces it
/// to exactly that site. Returns the deterministic summary line and
/// whether the contract held.
fn shrink_self_test() -> (String, bool) {
    // Find a derived scenario arming at least two sites so shrinking
    // has work to do; seed the predicate on its first armed site.
    let sc = (0..512u64)
        .map(Scenario::derive)
        .find(|sc| sc.sites.len() >= 2)
        .expect("some seed arms two or more sites");
    let guilty = sc.sites[0].0;
    let shrunk = shrink_scenario(&sc, |candidate| candidate.arms(guilty));
    let ok = shrunk.sites.len() == 1 && shrunk.arms(guilty) && shrunk.kill_point <= sc.kill_point;
    let line = format!(
        "self-test: {} shrunk to sites [{}@{:.1}] kill {} -> {}",
        sc.describe(),
        shrunk.sites[0].0,
        shrunk.sites[0].1,
        shrunk.kill_point,
        if ok { "ok" } else { "FAIL" }
    );
    (line, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shrinker self-test: demonstrates on a synthetic predicate
    /// that the shrinker reduces a seeded multi-site failure to a
    /// single-site minimal form — the first line `gtpin chaos
    /// --self-test` prints.
    #[test]
    fn self_test_shrinks_synthetic_failure_to_single_site() {
        let (line, ok) = shrink_self_test();
        assert!(ok, "self-test failed: {line}");
        assert!(
            line.contains("sites [") && line.contains("shrunk"),
            "{line}"
        );
    }

    #[test]
    fn default_config_reads_knobs_leniently() {
        let config = ChaosConfig::default();
        assert!(config.max_restarts > 0);
        assert_eq!(config.seeds, 5);
    }
}
