//! The fixed chaos corpus: hand-built scenarios, one per recovery
//! path, each carrying the contract that path must honor.
//!
//! Derived scenarios ([`Scenario::derive`]) roam the fault space and
//! are judged by the generic oracles alone. A corpus entry arms named
//! sites at seed 42 under the replay-identity oracle (so it runs
//! twice) and adds an [`Expect`]: outputs identical to a fault-free
//! pass, armed sites fired, named recovery counters moved.
//! `gtpin chaos --self-test` judges the whole corpus.

use std::path::Path;

use gtpin_faults::site::*;

use crate::scenario::{OracleKind, Scenario};
use crate::trial::run_trial;

/// Seed of every corpus entry's fault plan.
pub(crate) const CORPUS_SEED: u64 = 42;

/// Which injections a trial must observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fired {
    /// No requirement.
    #[default]
    Unchecked,
    /// Nothing injected at all (armed-but-quiescent).
    Nothing,
    /// Every armed site injected; an armed `journal.crash` must also
    /// have restarted the sweep.
    EverySite,
    /// At least one injection across all armed sites.
    AnySite,
}

/// The contract a corpus entry adds to the generic oracles. The
/// default adds nothing — how derived scenarios are judged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// Every stage output (profile, resumed sweep report, serve
    /// responses) equals a pass of the same shape with injection
    /// disabled.
    pub fault_free: bool,
    /// Which injections must be observed.
    pub fired: Fired,
    /// Accounting keys that must count at least one event.
    pub recovered: &'static [&'static str],
}

/// Lossless recovery: fault-free identical, every armed site fired,
/// and each of `recovered` counted.
const fn lossless(recovered: &'static [&'static str]) -> Expect {
    Expect {
        fault_free: true,
        fired: Fired::EverySite,
        recovered,
    }
}

/// Degraded but accounted (typed errors, isolated sessions): every
/// armed site fired and each of `recovered` counted.
const fn degraded(recovered: &'static [&'static str]) -> Expect {
    Expect {
        fault_free: false,
        fired: Fired::EverySite,
        recovered,
    }
}

/// What corrupting every sealed-cache read must heal: the serve
/// profile memo and the selection interval tables.
const CACHE_HEALS: &[&str] = &[
    "recovered.cache_heal",
    "healed.serve.profile",
    "healed.selection.interval_table",
];

/// One named corpus scenario and its contract.
#[derive(Debug, Clone)]
pub(crate) struct CorpusEntry {
    /// Stable name, printed on the entry's summary line.
    pub(crate) name: &'static str,
    /// The hand-built scenario.
    pub(crate) scenario: Scenario,
    /// What the trial must observe beyond the generic oracles.
    pub(crate) expect: Expect,
}

fn entry(
    name: &'static str,
    sites: &[(&'static str, f64)],
    threads: usize,
    expect: Expect,
) -> CorpusEntry {
    CorpusEntry {
        name,
        scenario: Scenario {
            seed: CORPUS_SEED,
            sites: sites.to_vec(),
            threads,
            kill_point: 1,
            oracle: OracleKind::ReplayIdentity,
            explore: false,
        },
        expect,
    }
}

/// The corpus, in a fixed order.
pub(crate) fn corpus() -> Vec<CorpusEntry> {
    let quiescent = Expect {
        fault_free: true,
        fired: Fired::Nothing,
        recovered: &[],
    };
    let any_fired = Expect {
        fired: Fired::AnySite,
        ..Expect::default()
    };
    let all: Vec<(&'static str, f64)> = ALL.iter().map(|s| (*s, 0.2)).collect();
    // `explore` routes the serve stage through every sealed cache:
    // Profile seals the memo, Explore re-reads it and seals the
    // per-configuration interval tables.
    let mut cache_corrupt = entry(
        "cache-corrupt",
        &[(CACHE_CORRUPT, 1.0)],
        2,
        lossless(CACHE_HEALS),
    );
    cache_corrupt.scenario.explore = true;
    vec![
        entry("zero-rate", &[], 4, quiescent),
        entry("shard-overflow", &[(SHARD_OVERFLOW, 1.0)], 4, lossless(&[])),
        // Quarantine-when-injected is the trial's conservation check.
        // The trial profiles without memory tracing, so few or no
        // records exist to corrupt; `gpu-device`'s
        // `corrupt_records_are_quarantined_not_stored` proves the
        // quarantine where the site does fire.
        entry(
            "record-corrupt",
            &[(RECORD_CORRUPT, 0.05)],
            4,
            Expect::default(),
        ),
        entry("jit-fail", &[(JIT_FAIL, 0.4)], 4, degraded(&[])),
        entry("launch-hang", &[(LAUNCH_HANG, 0.3)], 4, degraded(&[])),
        entry("worker-panic", &[(WORKER_PANIC, 0.5)], 4, lossless(&[])),
        entry("all", &all, 4, any_fired),
        entry("journal-crash", &[(JOURNAL_CRASH, 0.3)], 2, lossless(&[])),
        entry(
            "journal-crash-heavy",
            &[(JOURNAL_CRASH, 0.7)],
            2,
            lossless(&[]),
        ),
        entry(
            "sim-shard",
            &[(SIM_SHARD, 1.0)],
            4,
            lossless(&["recovered.sim_serial_fallback"]),
        ),
        entry(
            "serve-session-crash",
            &[(SERVE_SESSION_CRASH, 0.5)],
            2,
            degraded(&["recovered.serve_session_crash"]),
        ),
        entry(
            "serve-conn-drop",
            &[(SERVE_CONN_DROP, 0.5)],
            2,
            lossless(&["recovered.serve_conn_drop"]),
        ),
        cache_corrupt,
    ]
}

/// Judge every corpus entry. Returns the deterministic rendering —
/// one line per entry with its violations indented below, then a
/// `corpus: N entries, M violations` summary — and the violation
/// count.
pub(crate) fn run_corpus(max_restarts: u64, scratch: &Path) -> (String, usize) {
    let entries = corpus();
    let mut out = String::new();
    let mut violations = 0usize;
    for entry in &entries {
        let report = run_trial(&entry.scenario, &entry.expect, max_restarts, scratch);
        out.push_str(&format!("corpus {}: {}\n", entry.name, report.line));
        for violation in &report.violations {
            out.push_str(&format!("  violation: {violation}\n"));
        }
        violations += report.violations.len();
    }
    let summary = format!(
        "corpus: {} entries, {violations} violations\n",
        entries.len()
    );
    (out + &summary, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_arms_every_site_alone_under_unique_names() {
        let entries = corpus();
        let names: std::collections::BTreeSet<&str> = entries.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), entries.len(), "duplicate corpus entry name");
        // Every site has an entry of its own, not only `all`.
        for s in ALL {
            let alone = |e: &CorpusEntry| e.scenario.sites.len() == 1 && e.scenario.arms(s);
            assert!(entries.iter().any(alone), "no corpus entry arms {s} alone");
        }
    }

    /// The expectation checks can fail: a deliberately wrong contract
    /// under `jit.build_fail` (which turns builds into typed errors)
    /// is reported on every clause.
    #[test]
    fn a_wrong_expectation_is_reported_as_violations() {
        let wrong = Expect {
            fault_free: true,
            fired: Fired::Nothing,
            recovered: &["recovered.sim_serial_fallback"],
        };
        let sc = entry("wrong", &[(JIT_FAIL, 0.4)], 2, wrong).scenario;
        let scratch = crate::trial::default_scratch().join("wrong-expectation");
        let report = run_trial(&sc, &wrong, 200, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        for clause in ["fault-free divergence", "fired: ", "recovered: "] {
            assert!(
                report.violations.iter().any(|v| v.starts_with(clause)),
                "{clause} not reported: {:?}",
                report.violations
            );
        }
        assert!(report.line.ends_with("FAIL"), "{}", report.line);
    }
}
