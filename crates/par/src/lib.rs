//! Deterministic parallel execution primitives.
//!
//! Everything in this workspace that fans out across threads goes
//! through this crate, and everything here preserves one contract:
//! **the result is bitwise identical to the serial execution at any
//! thread count**. That holds because
//!
//! - tasks are pure with respect to each other (no shared mutable
//!   state inside a fan-out; each task owns its RNG and scratch), and
//! - results are collected **by task index**, never by completion
//!   order, so every reduction downstream sees the serial order.
//!
//! The thread count comes from the `GTPIN_THREADS` environment
//! variable (or an explicit argument); `threads <= 1` falls back to a
//! plain serial loop with no thread machinery at all. Above that, a
//! fan-out runs on one persistent, process-wide pool (see `pool.rs`):
//! the caller works as worker 0 and at most `threads - 1` parked
//! helpers join, so no threads are spawned per call and the fan-out
//! stays cheap enough for per-kernel-launch use. A fan-out nested in
//! another, or issued while another caller holds the pool, runs inline
//! on its caller instead of oversubscribing the cores.
//!
//! [`parallel_indexed`], [`parallel_map`] and [`parallel_fill`] own
//! the claiming and collection. [`fan_out`] hands the pool's worker
//! indices to callers that partition their own work, such as the
//! detailed simulator's epoch loop, which claims EUs and reconciles
//! their logs in index order itself.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

mod pool;
pub mod supervisor;

pub use supervisor::{Admission, Outcome, Supervisor, SupervisorConfig, SupervisorReport};

/// The environment variable controlling workspace-wide parallelism.
pub const THREADS_ENV: &str = "GTPIN_THREADS";

/// The environment variable overriding the worker count of the
/// detailed cycle-level simulator specifically. Unset, the simulator
/// inherits [`THREADS_ENV`].
pub const SIM_THREADS_ENV: &str = "GTPIN_SIM_THREADS";

/// The thread count to use: `GTPIN_THREADS` when set (values that
/// fail to parse, or `0`, fall back to `1` — the serial path);
/// otherwise the machine's available parallelism.
///
/// The lenient fallback keeps library embedders running; the CLI
/// rejects malformed values up front via [`validate_env`] so
/// users are never silently clamped.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The detailed simulator's worker count: `GTPIN_SIM_THREADS` when
/// set (same lenient fallback as [`configured_threads`]), otherwise
/// whatever [`configured_threads`] says.
pub fn configured_sim_threads() -> usize {
    match std::env::var(SIM_THREADS_ENV) {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => configured_threads(),
    }
}

/// How strict parsing should treat a `GTPIN_*` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKnobKind {
    /// A worker count: a positive integer (`0` is malformed — use
    /// `1` for the serial path).
    ThreadCount,
    /// A budget/limit: any unsigned integer (`0` conventionally
    /// means "disabled" and is accepted).
    Limit,
    /// An on/off switch: `1`/`true`/`yes`/`on` enable,
    /// `0`/`false`/`no`/`off`/empty disable; anything else (e.g. the
    /// typo `ture`) is malformed instead of silently off.
    Flag,
    /// A `GTPIN_FAULTS` plan spec, validated by
    /// [`gtpin_faults::FaultPlan::parse`].
    FaultPlan,
}

/// Every numeric `GTPIN_*` environment knob the suite reads, with
/// the strictness class its value must satisfy. The serve/chaos knob
/// names are string literals here (not re-exported consts) because
/// this crate sits below those layers — each owning crate defines a
/// matching const and a test pins the spelling.
pub const NUMERIC_ENV_KNOBS: [(&str, EnvKnobKind); 11] = [
    (THREADS_ENV, EnvKnobKind::ThreadCount),
    (SIM_THREADS_ENV, EnvKnobKind::ThreadCount),
    (supervisor::DEADLINE_ENV, EnvKnobKind::Limit),
    (supervisor::BREAKER_ENV, EnvKnobKind::Limit),
    (supervisor::MAX_TASKS_ENV, EnvKnobKind::Limit),
    (supervisor::MAX_VIRTUAL_ENV, EnvKnobKind::Limit),
    // gtpin-serve: session lease length (virtual ms, 0 disables) and
    // the client retry policy (attempt cap, base backoff ms).
    ("GTPIN_LEASE_MS", EnvKnobKind::Limit),
    ("GTPIN_RETRY_MAX", EnvKnobKind::Limit),
    ("GTPIN_RETRY_BASE_MS", EnvKnobKind::Limit),
    // gtpin-chaos: restart bound per scenario and the base seed.
    ("GTPIN_CHAOS_MAX_RESTARTS", EnvKnobKind::Limit),
    ("GTPIN_CHAOS_SEED", EnvKnobKind::Limit),
];

/// The non-numeric `GTPIN_*` knobs: on/off switches plus the fault
/// plan. `GTPIN_OBS=ture` used to silently disable telemetry; the
/// strict parser makes that an `error[cli]` instead.
pub const FLAG_ENV_KNOBS: [(&str, EnvKnobKind); 4] = [
    ("GTPIN_OBS", EnvKnobKind::Flag),
    ("GTPIN_VERIFY", EnvKnobKind::Flag),
    ("GTPIN_PRESCREEN", EnvKnobKind::Flag),
    (gtpin_faults::FAULTS_ENV, EnvKnobKind::FaultPlan),
];

/// Strict validation of every `GTPIN_*` knob ([`NUMERIC_ENV_KNOBS`]
/// and [`FLAG_ENV_KNOBS`]), for front ends that should fail loudly
/// instead of clamping: `Err` describes the first malformed value
/// and names the variable, ready for an `error[cli]` report. One
/// table, one parser — the library getters stay lenient so embedders
/// keep running.
pub fn validate_env() -> Result<(), String> {
    for (var, kind) in NUMERIC_ENV_KNOBS.into_iter().chain(FLAG_ENV_KNOBS) {
        if let Ok(raw) = std::env::var(var) {
            validate_env_value(var, &raw, kind)?;
        }
    }
    Ok(())
}

/// The strict check behind [`validate_env`], separated so it is
/// testable without touching process environment.
fn validate_env_value(var: &str, raw: &str, kind: EnvKnobKind) -> Result<(), String> {
    match kind {
        EnvKnobKind::Flag => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "1" | "true" | "yes" | "on" | "0" | "false" | "no" | "off" => Ok(()),
            _ => Err(format!(
                "{var}={raw:?} is not a valid on/off flag \
                 (expected 1/true/yes/on or 0/false/no/off)"
            )),
        },
        EnvKnobKind::FaultPlan => gtpin_faults::FaultPlan::parse(raw)
            .map(|_| ())
            .map_err(|e| format!("{var}={raw:?} is not a valid fault plan: {e}")),
        EnvKnobKind::ThreadCount | EnvKnobKind::Limit => match (raw.trim().parse::<u64>(), kind) {
            (Ok(n), EnvKnobKind::ThreadCount) if n >= 1 => Ok(()),
            (Ok(_), EnvKnobKind::ThreadCount) => Err(format!(
                "{var}={raw:?} is not a valid thread count (must be >= 1)"
            )),
            (Ok(_), _) => Ok(()),
            (Err(_), EnvKnobKind::ThreadCount) => Err(format!(
                "{var}={raw:?} is not a valid thread count (expected a positive integer)"
            )),
            (Err(_), _) => Err(format!(
                "{var}={raw:?} is not a valid limit (expected an unsigned integer)"
            )),
        },
    }
}

/// Run `f(0..n)` across up to `threads` workers and return results in
/// index order.
///
/// Tasks are claimed through a shared counter (work stealing), so
/// uneven task costs balance; results are scattered back by index, so
/// the output is independent of claiming order. With `threads <= 1`
/// or `n <= 1` this is exactly `(0..n).map(f).collect()`.
pub fn parallel_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        if !gtpin_faults::enabled() {
            return (0..n).map(f).collect();
        }
        // Faults armed: the worker-panic seam is keyed per
        // `(task, attempt)`, never per worker, so the serial path
        // must offer the identical injection points and recovery
        // ladder as the fan-out below — otherwise whether the seam
        // even exists would depend on the worker count, and any
        // digest folding the injected accounting would move with
        // the ambient `GTPIN_THREADS`.
        return (0..n)
            .map(|i| {
                run_guarded(&f, i, 0).unwrap_or_else(|| {
                    gtpin_faults::note("recovered.worker_retry", 1);
                    run_guarded(&f, i, 1).unwrap_or_else(|| {
                        gtpin_faults::note("recovered.serial_fallback", 1);
                        gtpin_obs::warn!("par: task {i} panicked twice, running serial unguarded");
                        f(i)
                    })
                })
            })
            .collect();
    }
    let workers = threads.min(n);
    // Telemetry is observational only: timings and counts are
    // recorded, but nothing about claiming or collection changes, so
    // the determinism contract holds with GTPIN_OBS on or off.
    let obs = gtpin_obs::enabled();
    // With faults armed, workers run tasks under `catch_unwind` so an
    // injected (or genuine) panic loses one task, not the fan-out.
    // Failed tasks are retried once, then fall back to an unguarded
    // serial run with no injection — a pure task always completes,
    // and because recovery happens by task index the output stays
    // serial-identical at any panic rate. One branch when unarmed.
    let faults_on = gtpin_faults::enabled();
    let mut fanout = gtpin_obs::span("par.fanout");
    fanout.arg_u64("tasks", n as u64);
    fanout.arg_u64("workers", workers as u64);
    let start_ns = gtpin_obs::now_ns();
    let busy_ns_total = AtomicU64::new(0);
    let counter = AtomicUsize::new(0);
    // One slot per worker, each written once by the worker that ran:
    // its `(index, result)` pairs and the indices it lost to panics.
    type Part<R> = Option<(Vec<(usize, R)>, Vec<usize>)>;
    let parts: Vec<Mutex<Part<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();

    let inline = pool::run(workers, &|w| {
        let mut local: Vec<(usize, R)> = Vec::new();
        let mut lost: Vec<usize> = Vec::new();
        let mut busy_ns = 0u64;
        let mut first_claim = true;
        loop {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let t0 = gtpin_obs::now_ns();
            if obs && first_claim {
                first_claim = false;
                gtpin_obs::hist_ns("par.queue_wait_ns", t0.saturating_sub(start_ns));
            }
            if faults_on {
                match run_guarded(&f, i, 0) {
                    Some(r) => local.push((i, r)),
                    None => lost.push(i),
                }
            } else {
                local.push((i, f(i)));
            }
            if obs {
                let dt = gtpin_obs::now_ns().saturating_sub(t0);
                busy_ns += dt;
                gtpin_obs::hist_ns("par.task_ns", dt);
            }
        }
        if obs {
            busy_ns_total.fetch_add(busy_ns, Ordering::Relaxed);
            gtpin_obs::counter_add("par.tasks", local.len() as u64);
            // Per-worker provenance: which pool worker did how
            // much of this fan-out (wall-clock context; the
            // deterministic outputs never depend on it).
            gtpin_obs::global().instant(
                "par.worker",
                vec![
                    ("worker", gtpin_obs::ArgVal::U64(w as u64)),
                    ("tasks", gtpin_obs::ArgVal::U64(local.len() as u64)),
                    ("busy_ns", gtpin_obs::ArgVal::U64(busy_ns)),
                ],
            );
        }
        *lock_part(&parts[w]) = Some((local, lost));
    });
    note_inline(Some(&mut fanout), inline);

    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut failed: Vec<usize> = Vec::new();
    for part in parts {
        let Some((local, lost)) = part.into_inner().unwrap_or_else(|e| e.into_inner()) else {
            continue;
        };
        for (i, r) in local {
            out[i] = Some(r);
        }
        failed.extend(lost);
    }

    if !failed.is_empty() {
        // Degradation ladder, in task-index order so accounting and
        // results replay identically: retry once (still guarded, a
        // fresh injection decision), then unguarded serial with no
        // injection.
        failed.sort_unstable();
        for i in failed {
            gtpin_faults::note("recovered.worker_retry", 1);
            match run_guarded(&f, i, 1) {
                Some(r) => out[i] = Some(r),
                None => {
                    gtpin_faults::note("recovered.serial_fallback", 1);
                    gtpin_obs::warn!("par: task {i} panicked twice, running serial unguarded");
                    out[i] = Some(f(i));
                }
            }
        }
    }

    if obs {
        gtpin_obs::counter_add("par.fanouts", 1);
        let elapsed = gtpin_obs::now_ns().saturating_sub(start_ns);
        if elapsed > 0 {
            // Pool occupancy: busy worker-time over available
            // worker-time for this fan-out (1.0 = perfectly packed).
            let occupancy =
                busy_ns_total.load(Ordering::Relaxed) as f64 / (elapsed as f64 * workers as f64);
            gtpin_obs::gauge_set("par.occupancy", occupancy);
            gtpin_obs::hist_ns("par.occupancy_pct", (occupancy * 100.0) as u64);
        }
    }

    out.into_iter()
        .map(|r| r.expect("every index produced exactly once"))
        .collect()
}

/// Run `body(w)` on the pool for callers that partition their own
/// work: worker 0 on the caller, workers `1..workers` on whichever
/// parked helpers join. Any of `1..workers` may never run (the pool
/// runs a nested or concurrent fan-out inline, bumping
/// `par.inline_fanouts`), so `body` must claim its work from shared
/// state. Returns once every worker that ran has left `body`; a panic
/// in any of them is re-raised here. With `workers <= 1` this is just
/// `body(0)`. No fault site is consulted.
pub fn fan_out<F>(workers: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        body(0);
    } else {
        note_inline(None, pool::run(workers, &body));
    }
}

/// Lock a per-worker result slot or a claimed fill chunk. Each is
/// locked by one worker only; if a task panics while a chunk is held,
/// the panic reaches the caller, which then reads nothing, so a
/// poisoned lock never hides a half-written value.
fn lock_part<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Record that the pool declined a fan-out: count it in
/// `par.inline_fanouts` and, when the fan-out has a span, say why on
/// it. Both are no-ops with telemetry off.
fn note_inline(span: Option<&mut gtpin_obs::SpanGuard<'_>>, inline: Option<pool::Inline>) {
    if let Some(why) = inline {
        if let Some(span) = span {
            span.arg_str("inline", why.as_str());
        }
        gtpin_obs::counter_add("par.inline_fanouts", 1);
    }
}

/// Run task `i` under `catch_unwind`, with the `par.worker_panic`
/// fault able to fire per `(task, attempt)`. `None` means the task
/// panicked (injected or genuine) and the caller should walk the
/// recovery ladder.
fn run_guarded<R, F>(f: &F, i: usize, attempt: u64) -> Option<R>
where
    F: Fn(usize) -> R + Sync,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if gtpin_faults::should_inject(
            gtpin_faults::site::WORKER_PANIC,
            ((i as u64) << 8) | attempt,
        ) {
            std::panic::panic_any(gtpin_faults::INJECTED_PANIC_MARKER);
        }
        f(i)
    }))
    .ok()
}

/// Map a slice in parallel, preserving order: `parallel_map(items,
/// t, f)[i] == f(i, &items[i])` for every `i` and every `t`.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_indexed(items.len(), threads, |i| f(i, &items[i]))
}

/// Fill `out[i] = f(i)` with contiguous chunks fanned across
/// `threads` workers — the cheap shape for very large `out` (one
/// chunk per worker, no per-item claiming). Below `min_len` items the
/// serial loop runs instead; either way the result is identical.
pub fn parallel_fill<R, F>(out: &mut [R], threads: usize, min_len: usize, f: F)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let n = out.len();
    if threads <= 1 || n < min_len.max(2) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut span = gtpin_obs::span("par.fill");
    span.arg_u64("items", n as u64);
    span.arg_u64("workers", workers as u64);
    // Chunks are claimed like tasks, so an inline run (worker 0 alone)
    // still fills every chunk.
    let chunks: Vec<Mutex<&mut [R]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let inline = pool::run(workers, &|_| loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        let Some(piece) = chunks.get(c) else { break };
        let base = c * chunk;
        for (j, slot) in lock_part(piece).iter_mut().enumerate() {
            *slot = f(base + j);
        }
    });
    note_inline(Some(&mut span), inline);
}

/// The faults registry is process-global and one test in this crate
/// arms it at rate 1.0; any sibling test running `parallel_*`
/// concurrently (including the supervisor's) would both hit injected
/// panics and pollute the recovery accounting. Every test in this
/// crate takes this lock.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_guard as guard;

    #[test]
    fn parallel_map_matches_serial_at_every_thread_count() {
        let _guard = guard();
        let items: Vec<u64> = (0..97).collect();
        let serial = parallel_map(&items, 1, |i, &x| x * x + i as u64);
        for threads in 2..=8 {
            let par = parallel_map(&items, threads, |i, &x| x * x + i as u64);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_fill_matches_serial() {
        let _guard = guard();
        let mut serial = vec![0u64; 10_000];
        parallel_fill(&mut serial, 1, 0, |i| (i as u64).wrapping_mul(0x9E37));
        for threads in 2..=8 {
            let mut par = vec![0u64; 10_000];
            parallel_fill(&mut par, threads, 0, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_still_collects_in_order() {
        let _guard = guard();
        // Make early tasks slow so late tasks finish first.
        let out = parallel_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = guard();
        let empty: Vec<usize> = parallel_indexed(0, 8, |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_indexed(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        let _guard = guard();
        assert!(configured_threads() >= 1);
        assert!(configured_sim_threads() >= 1);
    }

    #[test]
    fn strict_validation_rejects_what_the_lenient_getters_clamp() {
        let _guard = guard();
        for good in ["1", "4", " 8 ", "128"] {
            assert!(
                validate_env_value(THREADS_ENV, good, EnvKnobKind::ThreadCount).is_ok(),
                "{good}"
            );
        }
        for bad in ["0", "-1", "four", "4.5", "", "  "] {
            let err = validate_env_value(SIM_THREADS_ENV, bad, EnvKnobKind::ThreadCount)
                .expect_err("malformed counts must be rejected");
            assert!(
                err.contains(SIM_THREADS_ENV),
                "error names the variable: {err}"
            );
        }
    }

    #[test]
    fn limit_knobs_accept_zero_but_reject_garbage() {
        let _guard = guard();
        // Budget knobs: 0 means "disabled", so it parses.
        for good in ["0", "1", "250", " 1000 "] {
            assert!(
                validate_env_value(supervisor::DEADLINE_ENV, good, EnvKnobKind::Limit).is_ok(),
                "{good}"
            );
        }
        for bad in ["-1", "fast", "2.5", "", "1e9"] {
            let err = validate_env_value(supervisor::MAX_TASKS_ENV, bad, EnvKnobKind::Limit)
                .expect_err("malformed limits must be rejected");
            assert!(
                err.contains(supervisor::MAX_TASKS_ENV),
                "error names the variable: {err}"
            );
        }
        // The knob table names every supervised env variable exactly
        // once, so a new knob cannot dodge front-end validation.
        let names: Vec<&str> = NUMERIC_ENV_KNOBS.iter().map(|(n, _)| *n).collect();
        for var in [
            THREADS_ENV,
            SIM_THREADS_ENV,
            supervisor::DEADLINE_ENV,
            supervisor::BREAKER_ENV,
            supervisor::MAX_TASKS_ENV,
            supervisor::MAX_VIRTUAL_ENV,
            "GTPIN_LEASE_MS",
            "GTPIN_RETRY_MAX",
            "GTPIN_RETRY_BASE_MS",
            "GTPIN_CHAOS_MAX_RESTARTS",
            "GTPIN_CHAOS_SEED",
        ] {
            assert_eq!(names.iter().filter(|n| **n == var).count(), 1, "{var}");
        }
    }

    #[test]
    fn serve_and_chaos_knobs_strict_parse_as_limits() {
        let _guard = guard();
        for var in [
            "GTPIN_LEASE_MS",
            "GTPIN_RETRY_MAX",
            "GTPIN_RETRY_BASE_MS",
            "GTPIN_CHAOS_MAX_RESTARTS",
            "GTPIN_CHAOS_SEED",
        ] {
            assert!(validate_env_value(var, "0", EnvKnobKind::Limit).is_ok());
            assert!(validate_env_value(var, " 25 ", EnvKnobKind::Limit).is_ok());
            let err = validate_env_value(var, "soon", EnvKnobKind::Limit)
                .expect_err("garbage must be rejected");
            assert!(err.contains(var), "error names the variable: {err}");
        }
    }

    #[test]
    fn flag_knobs_accept_both_polarities_and_reject_typos() {
        let _guard = guard();
        for good in [
            "1", "true", "yes", "on", "0", "false", "no", "off", "", " ON ", "True",
        ] {
            assert!(
                validate_env_value("GTPIN_OBS", good, EnvKnobKind::Flag).is_ok(),
                "{good:?}"
            );
        }
        // `GTPIN_OBS=ture` used to silently disable telemetry; the
        // strict parser now names the variable and rejects it.
        for bad in ["ture", "2", "enable", "y", "1.0"] {
            let err = validate_env_value("GTPIN_OBS", bad, EnvKnobKind::Flag)
                .expect_err("typos must be rejected");
            assert!(err.contains("GTPIN_OBS"), "error names the variable: {err}");
        }
        let err = validate_env_value("GTPIN_PRESCREEN", "ture", EnvKnobKind::Flag)
            .expect_err("prescreen typo rejected");
        assert!(err.contains("GTPIN_PRESCREEN"));
    }

    #[test]
    fn fault_plan_knob_delegates_to_the_faults_parser() {
        let _guard = guard();
        let rated = format!("{}=1.0,seed=7", gtpin_faults::site::WORKER_PANIC);
        for good in ["", "0", "1", "on", "all=0.5", rated.as_str()] {
            assert!(
                validate_env_value(gtpin_faults::FAULTS_ENV, good, EnvKnobKind::FaultPlan).is_ok(),
                "{good:?}"
            );
        }
        for bad in ["journal.crash", "rate=fast", "=0.5"] {
            let err = validate_env_value(gtpin_faults::FAULTS_ENV, bad, EnvKnobKind::FaultPlan)
                .expect_err("malformed fault specs must be rejected");
            assert!(
                err.contains(gtpin_faults::FAULTS_ENV),
                "error names the variable: {err}"
            );
        }
    }

    #[test]
    fn injected_worker_panics_recover_to_serial_results() {
        let _guard = guard();
        // Even at rate 1.0 (every guarded attempt panics) the ladder
        // bottoms out in the unguarded serial fallback, so pure tasks
        // always complete with serial-identical results. The faults
        // registry is process-global; this is the only test in this
        // crate that installs a plan.
        gtpin_faults::install(gtpin_faults::FaultPlan::single(
            gtpin_faults::site::WORKER_PANIC,
            1.0,
            42,
        ));
        let serial: Vec<u64> = (0..40u64).map(|i| i * i + 1).collect();
        for threads in 2..=6 {
            let par = parallel_indexed(40, threads, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
        let acc: std::collections::BTreeMap<String, u64> =
            gtpin_faults::take_accounting().into_iter().collect();
        assert_eq!(acc["recovered.worker_retry"], 40 * 5);
        assert_eq!(acc["recovered.serial_fallback"], 40 * 5);
        gtpin_faults::disable();
    }
}
