//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-suite --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload. Every workload runs the same three
//! stages, each over its own inputs:
//!
//! * **explore** — `subset_select::run_sweep` without a journal (what
//!   `gtpin explore` does): capture, instrumented replay, the 30
//!   interval/feature evaluations and SimPoint, per app;
//! * **sim** — `DetailedSimulator::simulate_launch` over every launch
//!   a functional run captured during set-up (what `gtpin sim` does);
//! * **serve** — an in-process `gtpin_serve::serve` daemon driven over
//!   its Unix socket by `nproc` closed-loop clients: each client calls
//!   `request_once` and sends its next request only after the reply.
//!
//! A workload makes one stage dominant (60% of `--seconds`) and runs
//! the other two for 20% each over small Test-scale inputs, so every
//! end-to-end metric exists on every workload while each workload
//! stresses different layers. The serve stage always draws from the
//! six-app serve pool; explore and sim use the workload's own apps.
//!
//! | workload | dominant stage | why |
//! |---|---|---|
//! | `explore-suite` | explore over `cb-physics-part-sim-32k`, `cb-vision-tv-l1-of`, `sandra-crypt-aes128` at Default scale | What `gtpin explore` does. About 75% of its host time is functional execution under capture and instrumented replay, at two launch grains: ~4,400 small launches fanned out as 15–20 µs tasks and ~1,800 launches of ~800 µs. About 25% is SimPoint over interval populations of up to ~2,200. The detailed simulator is idle in this stage. |
//! | `sim-full` | sim over every launch of `cb-throughput-juliaset` and `sandra-crypt-aes256` at Default scale | Detailed simulation is the cost subset selection exists to cut. The two apps sit on opposite sides of the launch-shape and working-set choices a simulator change would make: 100 wide compute-bound launches at 0.5 B/instr against 900 memory-streaming launches at 15 B/instr. Executor fan-out, selection and SimPoint stay outside the timed region. |
//! | `serve-mix` | serve over six Test-scale apps (`cb-gaussian-image`, `cb-histogram-buffer`, `cb-throughput-ao`, `sandra-proc-gpu`, `cb-vision-facedetect-m`, `cb-physics-ocean-surf`) | The only stage where `gtpin-serve`, `gtpin-durable` and `gtpin-analyze` run. It uses the selection and executor layers at another size and mixes writes (computed sessions journal Start/Finish with fsync) with reads (response-cache and sealed-memo hits, which pay the 5 ms accept poll and an fnv64 re-hash of the serialized `AppData` per memo read). |
//!
//! The seed sets the capture order for sim, the request sequence for
//! serve ([`requests::sequence`]: profile, explore at 1/3/5%, analyze,
//! lint and a 16-launch sim, most requests repeating an earlier key)
//! and the order explore sweeps its apps in. Explore's `capture_seed`
//! is pinned ([`stages::EXPLORE_CAPTURE_SEED`] says why).
//!
//! ## Cache starting state
//!
//! Each explore app profiles on a fresh device (cold device cache).
//! Each sim pass starts a fresh simulator (cold LLC). Every run starts
//! a fresh daemon with empty response, profile, exploration and
//! analysis caches and a fresh session journal; caches then warm
//! within the run, as they do for a daemon's users.
//!
//! ## Settings
//!
//! Every thread count is pinned to the host's cores (`nproc`), as a
//! user gets by default: `SweepOptions.threads`,
//! `GpuConfig.exec.threads`, `with_workers` and `ServeConfig.threads`,
//! plus `GTPIN_THREADS` and `GTPIN_SIM_THREADS` in this process, which
//! `simpoint::select` and `ExecConfig::default` read themselves. The
//! benchmark refuses to start when a fault plan, pre-screening,
//! rewrite verification, telemetry or any supervisor budget knob is
//! set in the environment. Telemetry stays off in timed runs.
//!
//! ## Correctness
//!
//! Before anything is timed, the run computes a reference with every
//! thread count at 1: the explore report digest, the sim stats digest
//! (fnv over the `DetailedResult`s, folded as `gtpin sim` folds it)
//! and every serve reply by key. Every timed output must equal it.
//! For the default seed the references must also equal the digests in
//! [`pinned`]. A mismatch fails the run and counts as a failed
//! operation.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Host time unless noted. Timings are medians over the stage's
//! repetitions.
//!
//! | metric | meaning |
//! |---|---|
//! | `setup_s` | program generation, the sim stage's functional run (JIT included) and daemon start; median of five set-ups |
//! | `explore_s` | wall time of one `run_sweep` |
//! | `select_error_pct` | mean co-opt Eq. 1 error against the repository's analytic native model (deterministic) |
//! | `select_speedup_x` | mean simulated-instruction reduction of the selections (deterministic) |
//! | `sim_minstr_per_s` | detailed-simulated GEN instructions per host second; the simulator has no hardware reference, so it is unvalidated |
//! | `serve_rps` | completed requests per second |
//! | `serve_p50_ms`, `serve_p95_ms` | client-observed latency over the socket; the sample count is printed, and a stage completes at least 3,000 requests, so far more than ten fall beyond p95 |
//! | `peak_rss_mb` | peak resident memory while the workload's dominant stage runs (the kernel's high-water mark, reset as the stage starts); the small stages are left out, so a Test-scale serve stage does not set `sim-full`'s figure |
//!
//! Failed operations over attempted ones (degraded apps, launch
//! errors, `error[*]` replies including sheds, and digest mismatches)
//! are the result line's `failed` and `attempted`.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The traced run rebuilds `profile_app` and `Exploration::run` from
//! their public parts and times each layer's calls from here. For
//! each metric, the end-to-end metric it should move:
//!
//! | layer metric | timed call | should move |
//! |---|---|---|
//! | `workloads.build_s` | `build_program` | `setup_s` (all) |
//! | `runtime.capture_s`, `device.exec_minstr_per_s`, `device.launches` | `Recording::capture` on a native `OclRuntime<Gpu>` | `explore_s` (explore-suite); `serve_p95_ms`; `setup_s` only on sim-full |
//! | `core.replay_s`, `core.replay_over_capture_x`, `core.dynamic_overhead_x` | `Recording::replay` with `GtPin::attach` | `explore_s`; the overhead factor is a count and must not move |
//! | `par.capture_speedup_x` | capture at `exec.threads=1` ÷ at `nproc` | `explore_s`; below 1 means fan-out loses |
//! | `selection.merge_s`, `selection.tables_s`, `selection.features_s` | `AppData::merge`, `SchemeTable::build`×3, `feature_vectors_weighted`×30 | `explore_s` |
//! | `simpoint.select_s`, `simpoint.intervals`, `par.select_speedup_x` | `simpoint::select_with_threads`×30, at 1 thread and at `nproc` | `explore_s`; no change on sim-full |
//! | `device.sim_s`, `device.sim_launch_ms_p50`, `device.sim_host_ns_per_cycle`, `device.sim_cycles`, `device.sim_occupancy`, `par.sim_speedup_x` | `simulate_launch`, with `workers` = 1 and `nproc` | `sim_minstr_per_s` (sim-full); no change on explore-suite |
//! | `serve.handle_hit_ms_p50`, `serve.handle_compute_ms_p95`, `serve.response_hit_frac`, `serve.shed_frac` | `SessionEngine::handle` on the same sequence; a key is a hit if `cached()` returned it | `serve_p50_ms`/`serve_rps` (hits) and `serve_p95_ms` (computes) |
//! | `serve.wire_ms_p50` | socket latency minus `handle` latency on hits | `serve_p50_ms`, `serve_rps` |
//! | `durable.journal_ms_per_compute` | `handle` with a journal minus without, per computed session (median over session keys computed in both passes) | `serve_p95_ms` |
//! | `analyze.kernel_ms`, `analyze.lint_kernel_ms` | `analyze_kernel`, and `lint_kernel` + `verify_rewrite`, over the serve pool's kernels | `serve_p95_ms` |
//!
//! The traced run also runs every stage once with `GTPIN_OBS=1` in a
//! child process and reports the existing span totals `obs.*_s`
//! (`executor.launch`, `par.fanout`, `simpoint.select`, `sim.launch`,
//! `serve.session`) and `obs.overhead_x`, that pass's wall time over
//! the same pass untraced.
//!
//! ## Baseline
//!
//! Medians of ten untraced runs (seeds 1–10, `--seconds 25`) on a
//! 2-core virtual machine (`host_cores` = 2), recorded when the
//! benchmark was added:
//!
//! | metric | explore-suite | sim-full | serve-mix |
//! |---|---|---|---|
//! | `setup_s` | 0.211 | 0.869 | 0.251 |
//! | `explore_s` | 5.08 | 0.531 | 0.584 |
//! | `select_error_pct` | 0.929 | 1.325 | 0.792 |
//! | `select_speedup_x` | 64.67 | 3.682 | 4.319 |
//! | `sim_minstr_per_s` | 10.4 | 11.1 | 11.1 |
//! | `serve_rps` | 329 | 295 | 344 |
//! | `serve_p50_ms` | 5.15 | 5.20 | 5.15 |
//! | `serve_p95_ms` | 9.22 | 11.6 | 9.20 |
//! | `peak_rss_mb` | 53.2 | 16.6 | 104.7 |
//!
//! Later sets of the same runs agreed with these medians within a
//! quarter on every metric (the widest gaps: sim-full read up to
//! 13.9 Minstr/s and 0.438 s `explore_s`). Within a set, spreads
//! (quartile distance over median) reached 0.2 on this shared host, and
//! one burst of outside load tripled a run's `explore_s`: host time is
//! only as steady as the machine.
//!
//! Traced runs (seed 1) on the same host: explore-suite captures 4,900
//! launches in 1.84 s (14.9 M GEN instr/s), instrumented replay takes
//! 1.39× the capture at a 1.27× dynamic-instruction overhead, and 30×3
//! SimPoint selections over 65,250 intervals take 0.68 s. At 2 threads
//! capture fan-out gains 1.01×, SimPoint 1.49× and the detailed
//! simulator 1.54× on sim-full's Default launches but 0.87× on
//! explore-suite's small Test launches. sim-full's simulator costs
//! 1.08 µs of host time per simulated cycle at 0.93 occupancy. On
//! serve-mix a response-cache hit costs under 1 µs in `handle`, so
//! its 5.1 ms socket latency is the daemon's 5 ms accept poll; a
//! computed session's p95 is 384 ms, and journaling it costs less than
//! the noise between two computes of one key: the paired difference
//! read between −1.8 and +12 ms across traced runs. Telemetry
//! (`GTPIN_OBS=1`) added between 0 and 17% to a pass.

mod pinned;
mod requests;
mod stages;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stages::{
    explore_pass, peak_rss_mb, references, serve_pass, set_thread_env, setup, sim_pass,
    tally_explore, tally_serve, tally_sim, workload, Ctx, Refs, Tally, Workload, SEQUENCE_LEN,
};
use stats::{median, percentile, quartiles};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Environment knobs that change what the program does or how much
/// it does; a run refuses to start under any of them.
const REFUSED_ENV: [&str; 10] = [
    "GTPIN_FAULTS",
    "GTPIN_FAULTS_SEED",
    "GTPIN_PRESCREEN",
    "GTPIN_VERIFY",
    "GTPIN_OBS",
    "GTPIN_DEADLINE_MS",
    "GTPIN_BREAKER",
    "GTPIN_MAX_TASKS",
    "GTPIN_MAX_VIRTUAL_MS",
    "GTPIN_LEASE_MS",
];

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: the telemetry pass a traced run starts as a child.
    obs_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: pinned::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        obs_pass: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--obs-pass" {
            args.obs_pass = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if workload(&args.workload).is_none() {
        let names: Vec<&str> = stages::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How it was measured (sample count, quartiles), for the log.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// The median of `samples`, noting the count and quartiles.
    pub fn median_of(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
        let mut note = format!("median of {}", samples.len());
        if let Some((q1, q3)) = quartiles(samples) {
            note.push_str(&format!(", quartiles {q1:.6}..{q3:.6}"));
        }
        Metric {
            name,
            value: median(samples).unwrap_or(0.0),
            unit,
            note,
        }
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Attempted and failed operations.
    pub tally: Tally,
}

/// Compare the references with the pinned digests when the run uses
/// the default seed; a mismatch counts as one failed operation.
fn check_pinned(w: &Workload, ctx: &Ctx, refs: &Refs, tally: &mut Tally) {
    if ctx.seed != pinned::DEFAULT_SEED {
        return;
    }
    let pin = pinned::pinned(w.name).expect("every workload has pinned digests");
    let got = [refs.explore, refs.sim, stages::replies_digest(&refs.serve)];
    let want = [pin.explore, pin.sim, pin.serve];
    for (stage, (got, want)) in ["explore", "sim", "serve"].iter().zip(got.iter().zip(want)) {
        if *got != want {
            eprintln!("pinned: {stage} digest {got:016x} != pinned {want:016x}");
        }
        tally.op(*got == want);
    }
}

/// The untraced run: references, set-up, then each stage's timed loop.
fn run(w: &Workload, ctx: &Ctx, seconds: f64) -> Outcome {
    let refs = references(w, ctx);
    let mut tally = Tally::default();
    check_pinned(w, ctx, &refs, &mut tally);

    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = prepared.take() {
            let old: stages::Prepared = old;
            old.daemon.stop();
        }
        let (secs, fresh) = setup(w, ctx);
        setup_secs.push(secs);
        prepared = Some(fresh);
    }
    let prepared = prepared.expect("at least one set-up");
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    let dominant = w.dominant();
    let mut peak_mb = 0.0;
    let (explore_secs, report) = watch_peak(dominant == "explore", &mut peak_mb, || {
        let mut secs = Vec::new();
        let mut report = None;
        let start = Instant::now();
        loop {
            let pass = explore_pass(&prepared.explore_programs, ctx.threads);
            tally_explore(&pass, refs.explore, w.explore.apps.len(), &mut tally);
            secs.push(pass.secs);
            report = pass.report.or(report);
            if start.elapsed() >= budget(w.explore.share) {
                return (secs, report);
            }
        }
    });
    let sim_rates = watch_peak(dominant == "sim", &mut peak_mb, || {
        let mut rates = Vec::new();
        let start = Instant::now();
        loop {
            let pass = sim_pass(&prepared.sim_devices, ctx.threads);
            tally_sim(&pass, refs.sim, &mut tally);
            rates.push(pass.instructions as f64 / pass.secs / 1e6);
            if start.elapsed() >= budget(w.sim.share) {
                return rates;
            }
        }
    });
    let serve = watch_peak(dominant == "serve", &mut peak_mb, || {
        serve_pass(
            prepared.daemon.socket(),
            &refs.sequence,
            ctx.threads,
            budget(w.serve.share),
            stages::MIN_REQUESTS,
            SEQUENCE_LEN,
        )
    });
    prepared.daemon.stop();
    tally_serve(&serve, &refs.serve, &mut tally);
    let latencies: Vec<f64> = serve.samples.iter().map(|s| s.secs * 1e3).collect();
    let n = latencies.len();
    let p95 = percentile(&latencies, 95.0)
        .expect("a serve stage completes enough requests for ten beyond p95");

    let (error, speedup) = report
        .as_ref()
        .map_or((0.0, 0.0), |r| (r.mean_error_pct, r.mean_speedup));
    Outcome {
        metrics: vec![
            Metric::median_of("setup_s", &setup_secs, "s"),
            Metric::median_of("explore_s", &explore_secs, "s"),
            Metric::new("select_error_pct", error, "%"),
            Metric::new("select_speedup_x", speedup, "x"),
            Metric::median_of("sim_minstr_per_s", &sim_rates, "Minstr/s")
                .with_note(format!("median of {} passes; unvalidated", sim_rates.len())),
            Metric::new("serve_rps", n as f64 / serve.secs, "1/s")
                .with_note(format!("{n} requests in {:.3} s", serve.secs)),
            Metric::median_of("serve_p50_ms", &latencies, "ms"),
            Metric::new("serve_p95_ms", p95, "ms").with_note(format!(
                "{n} samples, {} beyond p95; highest percentile with ten beyond: p{}",
                stats::samples_beyond(n, 95.0),
                stats::tail_percentile(n).unwrap_or(0.0)
            )),
            Metric::new("peak_rss_mb", peak_mb, "MB")
                .with_note(format!("while the {dominant} stage ran")),
        ],
        tally,
    }
}

/// Run `f`; when `on`, store the process's peak resident memory over
/// `f` alone in `peak_mb`.
fn watch_peak<T>(on: bool, peak_mb: &mut f64, f: impl FnOnce() -> T) -> T {
    if on {
        stages::reset_peak_rss();
    }
    let out = f();
    if on {
        *peak_mb = peak_rss_mb();
    }
    out
}

fn guard_env(obs_pass: bool) -> Result<(), String> {
    for var in REFUSED_ENV {
        if obs_pass && var == "GTPIN_OBS" {
            continue;
        }
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it so the measured program runs as users run it"
            ));
        }
    }
    Ok(())
}

/// A JSON number; non-finite values have none, so they print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_env(args.obs_pass) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    set_thread_env(threads);
    let root = PathBuf::from(".perfbench-work");
    let ctx = Ctx {
        seed: args.seed,
        threads,
        work_dir: root.join(std::process::id().to_string()),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: creating {}: {e}", ctx.work_dir.display());
        return ExitCode::from(2);
    }
    let w = workload(&args.workload).expect("validated by parse_args");

    let outcome = if args.obs_pass {
        trace::obs_child(&w, &ctx);
        None
    } else if args.trace {
        Some(trace::run(&w, &ctx))
    } else {
        Some(run(&w, &ctx, args.seconds))
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let _ = std::fs::remove_dir(&root);
    let Some(outcome) = outcome else {
        return ExitCode::SUCCESS;
    };

    println!(
        "context workload={} seed={} trace={} host_cores={threads} sweep_threads={threads} \
         exec_threads={threads} sim_workers={threads} serve_threads={threads} clients={threads}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut correct = outcome.tally.failed == 0;
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        correct &= m.value.is_finite();
        println!("{:<32} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.note);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "failed {} of {} attempted operations",
        outcome.tally.failed, outcome.tally.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
