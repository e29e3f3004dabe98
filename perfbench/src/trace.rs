//! The traced run (`--trace 1`): one untraced pass of every stage,
//! the layer pass that times each layer's public calls from here, and
//! a child process that repeats the untraced pass with `GTPIN_OBS=1`
//! for the span cross-check and the tracing overhead.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gpu_device::jit::compile_kernel;
use gpu_device::{Gpu, GpuGeneration};
use gtpin_analyze::{analyze_kernel, lint_kernel, verify_rewrite, LintConfig};
use gtpin_core::rewriter::rewrite_binary;
use gtpin_core::{GtPin, RewriteConfig};
use gtpin_serve::wire::Request;
use gtpin_serve::{ServeConfig, SessionEngine, SessionResult};
use ocl_runtime::cofluent::Recording;
use ocl_runtime::runtime::OclRuntime;
use simpoint::{select_filtered_with_threads, select_with_threads, Selection, SimpointConfig};
use subset_select::{
    all_configs, default_approx_target, evaluate_config_with_table, feature_vectors_weighted,
    AppData, Exploration, FeatureWeighting, SchemeTable, SweepReport,
};
use workloads::Scale;

use crate::stages::{
    build_programs, capture_devices, closed_loop, explore_pass, explore_programs, gpu_config,
    references, reply_json, reply_ok, serve_pass, setup, sim_pass, tally_explore, tally_serve,
    tally_sim, Call, Ctx, ExplorePass, Prepared, Refs, ServePass, SimPass, Tally, Workload,
    EXPLORE_CAPTURE_SEED,
};
use crate::stats::{fnv_fold, median, nearest_rank, FNV_BASIS};
use crate::{Metric, Outcome};

/// Requests in the untraced and telemetry passes' serve stage and in
/// the layer pass's `handle` loop: enough for ten beyond p95.
pub const PASS_REQUESTS: usize = 200;

/// Spans whose totals the telemetry pass reports.
const OBS_SPANS: [(&str, &str); 5] = [
    ("executor.launch", "obs.executor_launch_s"),
    ("par.fanout", "obs.par_fanout_s"),
    ("simpoint.select", "obs.simpoint_select_s"),
    ("sim.launch", "obs.sim_launch_s"),
    ("serve.session", "obs.serve_session_s"),
];

/// Named host-time accumulators. The layer pass runs them one after
/// another, never nested, so their sum cannot exceed its wall time.
#[derive(Debug, Default)]
pub struct Timers(Vec<(&'static str, f64)>);

impl Timers {
    /// Run `f`, adding its host time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += secs,
            None => self.0.push((name, secs)),
        }
        out
    }

    /// Seconds accumulated under `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Seconds accumulated under every name.
    pub fn total(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

/// One untraced pass of every stage.
struct Pass {
    wall: f64,
    explore: ExplorePass,
    sim: SimPass,
    serve: ServePass,
}

/// Each stage once, with a fixed request count, then stop the daemon.
fn one_pass(prepared: Prepared, sequence: &[Request], ctx: &Ctx) -> Pass {
    let explore = explore_pass(&prepared.explore_programs, ctx.threads);
    let sim = sim_pass(&prepared.sim_devices, ctx.threads);
    let serve = serve_pass(
        prepared.daemon.socket(),
        sequence,
        ctx.threads,
        Duration::ZERO,
        PASS_REQUESTS,
        PASS_REQUESTS,
    );
    prepared.daemon.stop();
    Pass {
        wall: explore.secs + sim.secs + serve.secs,
        explore,
        sim,
        serve,
    }
}

/// The telemetry pass, run as a child with `GTPIN_OBS=1`: one pass of
/// every stage, then its wall time, span totals and outputs on stdout
/// for the parent to check.
pub fn obs_child(w: &Workload, ctx: &Ctx) {
    let sequence = crate::requests::sequence(ctx.seed, w.serve.apps, PASS_REQUESTS);
    let (_, prepared) = setup(w, ctx);
    let pass = one_pass(prepared, &sequence, ctx);
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for event in gtpin_obs::global().snapshot().events {
        if let gtpin_obs::EventKind::Span { dur_ns } = event.kind {
            *totals.entry(event.name).or_default() += dur_ns;
        }
    }
    println!("obs wall {}", pass.wall);
    for (span, _) in OBS_SPANS {
        let ns = totals.get(span).copied().unwrap_or(0);
        println!("obs span {span} {}", ns as f64 / 1e9);
    }
    println!("obs explore {:016x}", pass.explore.digest);
    println!("obs sim {:016x}", pass.sim.digest);
    for sample in &pass.serve.samples {
        match &sample.result {
            Ok(reply) => println!(
                "obs serve {} {:016x}",
                sample.key,
                fnv_fold(FNV_BASIS, reply_json(reply).as_bytes())
            ),
            Err(_) => println!("obs serve {} error", sample.key),
        }
    }
}

/// Start the telemetry pass and check its outputs against `refs`.
/// Returns its wall time and span totals by metric name.
fn telemetry_pass(
    w: &Workload,
    ctx: &Ctx,
    refs: &Refs,
    tally: &mut Tally,
) -> (f64, BTreeMap<String, f64>) {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let output = Command::new(exe)
        .args(["--obs-pass", "--workload", w.name, "--seed"])
        .arg(ctx.seed.to_string())
        .env("GTPIN_OBS", "1")
        .env("GTPIN_OBS_DIR", ctx.work_dir.join("obs"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the telemetry pass starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut wall = 0.0;
    let mut spans = BTreeMap::new();
    let mut seen = 0usize;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["obs", "wall", secs] => wall = secs.parse().unwrap_or(0.0),
            ["obs", "span", name, secs] => {
                if let Some((_, metric)) = OBS_SPANS.iter().find(|(s, _)| s == name) {
                    spans.insert(metric.to_string(), secs.parse().unwrap_or(0.0));
                }
            }
            ["obs", "explore", digest] => tally.op(*digest == format!("{:016x}", refs.explore)),
            ["obs", "sim", digest] => tally.op(*digest == format!("{:016x}", refs.sim)),
            ["obs", "serve", key, digest] => {
                seen += 1;
                let want = refs
                    .serve
                    .get(*key)
                    .map(|r| format!("{:016x}", fnv_fold(FNV_BASIS, reply_json(r).as_bytes())));
                tally.op(want.as_deref() == Some(*digest));
            }
            _ => {}
        }
    }
    let complete = output.status.success() && wall > 0.0 && seen == PASS_REQUESTS;
    if !complete {
        eprintln!(
            "trace: telemetry pass incomplete ({}, {seen} replies)",
            output.status
        );
    }
    tally.op(complete);
    (wall, spans)
}

/// One `SessionEngine::handle` call.
type Handled = Call<SessionResult>;

/// `threads` closed-loop callers of `handle` over `sequence` on a
/// fresh engine, journaled under `journal` when given. A call is a hit
/// when `cached()` held its key.
fn handle_pass(sequence: &[Request], threads: usize, journal: Option<&Path>) -> Vec<Handled> {
    if let Some(dir) = journal {
        let _ = std::fs::remove_dir_all(dir);
    }
    let config = ServeConfig {
        threads,
        journal_dir: journal.map(Path::to_path_buf),
        ..ServeConfig::default()
    };
    let (engine, _) = SessionEngine::new(config).expect("a fresh engine builds");
    closed_loop(
        sequence,
        threads,
        |_| true,
        |key| engine.cached(key).is_some(),
        |request| engine.handle(request),
    )
}

/// Median over session keys computed in both passes of the extra host
/// milliseconds the journaled pass took. Pairing by key keeps the
/// spread between request kinds (a lint against an explore) out of a
/// difference of a few fsyncs.
fn journal_ms_per_compute(journaled: &[Handled], unjournaled: &[Handled]) -> f64 {
    let computed = |pass: &[Handled]| -> BTreeMap<String, f64> {
        pass.iter()
            .filter(|h| !h.hit)
            .map(|h| (h.key.clone(), h.secs))
            .collect()
    };
    let without = computed(unjournaled);
    let extra: Vec<f64> = computed(journaled)
        .iter()
        .filter_map(|(key, with)| without.get(key).map(|w| (with - w) * 1e3))
        .collect();
    median(&extra).unwrap_or(0.0)
}

/// What the layer pass measured.
pub struct LayerPass {
    /// Host time per timed call group.
    pub timers: Timers,
    /// Host seconds of the whole layer pass.
    pub wall: f64,
    /// The per-layer metrics, except those needing the socket or the
    /// telemetry pass.
    pub metrics: Vec<Metric>,
    /// Median `handle` milliseconds of response-cache hits.
    pub handle_hit_ms_p50: f64,
}

/// Counts the layer pass adds up over the explore apps.
struct ProfileSums {
    native_instr: u64,
    instrumented_instr: u64,
    launches: u64,
    intervals: u64,
}

/// Profile one app from public parts — capture, instrumented replay,
/// merge, tables, features, SimPoint — timing each layer, and check
/// the rebuilt co-optimized selection against the sweep's report.
fn profile_from_parts(
    program: &ocl_runtime::host::HostProgram,
    ctx: &Ctx,
    timers: &mut Timers,
    sums: &mut ProfileSums,
    report: Option<&SweepReport>,
    tally: &mut Tally,
) {
    let spcfg = SimpointConfig::default();
    let mut native = OclRuntime::new(Gpu::new(gpu_config(ctx.threads)));
    let captured = timers.time("runtime.capture", || {
        Recording::capture(&mut native, program, EXPLORE_CAPTURE_SEED)
    });
    let mut serial = OclRuntime::new(Gpu::new(gpu_config(1)));
    let serial_ok = timers
        .time("runtime.capture_serial", || {
            Recording::capture(&mut serial, program, EXPLORE_CAPTURE_SEED)
        })
        .is_ok();
    let Ok((recording, native_report)) = captured else {
        tally.op(false);
        return;
    };
    let native_gpu = native.into_device();
    sums.native_instr += native_gpu.total_stats().instructions;
    sums.launches += native_gpu.launches().len() as u64;

    let gtpin = GtPin::new(RewriteConfig::default());
    let mut gpu = Gpu::new(gpu_config(ctx.threads));
    gtpin.attach(&mut gpu);
    let mut instrumented = OclRuntime::new(gpu);
    let replayed = timers.time("core.replay", || recording.replay(&mut instrumented));
    sums.instrumented_instr += instrumented.device().total_stats().instructions;
    let profile = gtpin.profile(&program.name);

    let merged = timers.time("selection.merge", || {
        AppData::merge(&profile, &native_report.cofluent)
    });
    let (Ok(_), Ok(data)) = (replayed, merged) else {
        tally.op(false);
        return;
    };
    let configs = all_configs(default_approx_target(&data));
    let tables: Vec<SchemeTable> = timers.time("selection.tables", || {
        let mut tables: Vec<SchemeTable> = Vec::new();
        for cfg in &configs {
            if !tables.iter().any(|t| t.scheme == cfg.interval) {
                tables.push(SchemeTable::build(&data, cfg.interval));
            }
        }
        tables
    });
    let table_of = |i: usize| {
        tables
            .iter()
            .find(|t| t.scheme == configs[i].interval)
            .expect("a table per scheme")
    };
    let vectors: Vec<_> = timers.time("selection.features", || {
        (0..configs.len())
            .map(|i| {
                feature_vectors_weighted(
                    &data,
                    &table_of(i).intervals,
                    configs[i].features,
                    FeatureWeighting::InstructionWeighted,
                )
            })
            .collect()
    });
    let select_all = |threads: usize| -> Vec<Option<Selection>> {
        (0..configs.len())
            .map(|i| {
                let t = table_of(i);
                let selected = if t.has_quarantined() {
                    select_filtered_with_threads(
                        &vectors[i],
                        t.weights(),
                        t.quarantine_mask(),
                        &spcfg,
                        threads,
                    )
                } else {
                    select_with_threads(&vectors[i], t.weights(), &spcfg, threads)
                };
                selected.ok()
            })
            .collect()
    };
    let parallel = timers.time("simpoint.select", || select_all(ctx.threads));
    let serial = timers.time("simpoint.select_serial", || select_all(1));
    sums.intervals += (0..configs.len())
        .map(|i| table_of(i).intervals.len() as u64)
        .sum::<u64>();

    // Untimed: the library's own evaluation of the same inputs must
    // pick what the timed calls picked, and co-optimize to the row the
    // sweep reported.
    let evaluations: Vec<_> = (0..configs.len())
        .filter_map(|i| {
            evaluate_config_with_table(
                &data,
                configs[i],
                table_of(i),
                &spcfg,
                FeatureWeighting::InstructionWeighted,
            )
            .ok()
        })
        .collect();
    let same_picks = evaluations.len() == configs.len()
        && evaluations
            .iter()
            .zip(&parallel)
            .all(|(e, p)| p.as_ref() == Some(&e.selection));
    let exploration = Exploration {
        app: program.name.clone(),
        evaluations,
    };
    let co_opt = exploration.co_optimize(3.0);
    let same_row = report.is_none_or(|r| {
        r.apps.iter().any(|a| {
            a.app == program.name
                && a.co_opt
                    .as_ref()
                    .map(|row| (row.config.clone(), row.error_pct))
                    == co_opt.map(|e| (e.config.to_string(), e.error_pct))
        })
    });
    let ok = serial_ok && parallel == serial && same_picks && same_row;
    if !ok {
        eprintln!("trace: rebuilt profile of {} disagrees", program.name);
    }
    tally.op(ok);
}

/// Time every layer's public calls over the workload's inputs.
pub fn layer_pass(
    w: &Workload,
    ctx: &Ctx,
    refs: &Refs,
    report: Option<&SweepReport>,
    tally: &mut Tally,
) -> LayerPass {
    let start = Instant::now();
    let mut timers = Timers::default();
    let (explore_programs, sim_programs) = timers.time("workloads.build", || {
        (
            explore_programs(&w.explore, ctx.seed),
            build_programs(w.sim.apps, w.sim.scale),
        )
    });

    let mut sums = ProfileSums {
        native_instr: 0,
        instrumented_instr: 0,
        launches: 0,
        intervals: 0,
    };
    for program in &explore_programs {
        profile_from_parts(program, ctx, &mut timers, &mut sums, report, tally);
    }

    let devices = timers.time("sim.capture", || {
        capture_devices(&sim_programs, ctx.seed, ctx.threads)
    });
    let sim = timers.time("device.sim", || sim_pass(&devices, ctx.threads));
    let sim_serial = timers.time("device.sim_serial", || sim_pass(&devices, 1));
    tally_sim(&sim, refs.sim, tally);
    tally_sim(&sim_serial, refs.sim, tally);

    let sequence = &refs.sequence[..PASS_REQUESTS];
    let journal = ctx.work_dir.join("layer-journal");
    let journaled = timers.time("serve.handle", || {
        handle_pass(sequence, ctx.threads, Some(&journal))
    });
    let unjournaled = timers.time("serve.handle_unjournaled", || {
        handle_pass(sequence, ctx.threads, None)
    });
    for h in journaled.iter().chain(&unjournaled) {
        let reply = h.result.responses();
        tally.op(refs.serve.get(&h.key) == Some(&reply) && reply_ok(&reply));
    }
    let hit_ms: Vec<f64> = journaled
        .iter()
        .filter(|h| h.hit)
        .map(|h| h.secs * 1e3)
        .collect();
    let compute_ms: Vec<f64> = journaled
        .iter()
        .filter(|h| !h.hit)
        .map(|h| h.secs * 1e3)
        .collect();
    let shed = journaled
        .iter()
        .filter(|h| {
            matches!(&h.result, SessionResult::Failed { kind, .. } if kind == "busy" || kind == "budget")
        })
        .count();

    let bins: Vec<_> = timers.time("analyze.jit", || {
        build_programs(w.serve.apps, Scale::Test)
            .iter()
            .flat_map(|p| p.source.kernels.iter().map(compile_kernel))
            .collect::<Result<Vec<_>, _>>()
            .expect("benchmark kernels compile")
    });
    let params = GpuGeneration::IvyBridgeHd4000.topology().cost_params();
    let analyzed = timers.time("analyze.kernel", || {
        bins.iter()
            .filter(|bin| analyze_kernel(bin, &params).is_ok())
            .count()
    });
    let verify_config = RewriteConfig {
        count_basic_blocks: true,
        time_kernels: true,
        trace_memory: true,
        naive_per_instruction_counters: false,
    };
    let linted = timers.time("analyze.lint", || {
        bins.iter()
            .filter(|bin| {
                let bytes = bin.encode();
                lint_kernel(bin, &LintConfig::for_metadata(&bin.metadata)).is_ok()
                    && rewrite_binary(&bytes, &verify_config, 0, 0)
                        .is_ok_and(|rw| verify_rewrite(&bytes, &rw.bytes).is_ok())
            })
            .count()
    });
    tally.op(analyzed == bins.len() && linted == bins.len());

    let kernels = bins.len().max(1) as f64;
    let capture_s = timers.get("runtime.capture");
    let handle_hit_ms_p50 = median(&hit_ms).unwrap_or(0.0);
    let n = journaled.len().max(1) as f64;
    let metrics = vec![
        Metric::new("workloads.build_s", timers.get("workloads.build"), "s"),
        Metric::new("runtime.capture_s", capture_s, "s"),
        Metric::new(
            "device.exec_minstr_per_s",
            sums.native_instr as f64 / capture_s / 1e6,
            "Minstr/s",
        ),
        Metric::new("device.launches", sums.launches as f64, "count"),
        Metric::new("core.replay_s", timers.get("core.replay"), "s"),
        Metric::new(
            "core.replay_over_capture_x",
            timers.get("core.replay") / capture_s,
            "x",
        ),
        Metric::new(
            "core.dynamic_overhead_x",
            sums.instrumented_instr as f64 / sums.native_instr.max(1) as f64,
            "x",
        ),
        Metric::new(
            "par.capture_speedup_x",
            timers.get("runtime.capture_serial") / capture_s,
            "x",
        ),
        Metric::new("selection.merge_s", timers.get("selection.merge"), "s"),
        Metric::new("selection.tables_s", timers.get("selection.tables"), "s"),
        Metric::new(
            "selection.features_s",
            timers.get("selection.features"),
            "s",
        ),
        Metric::new("simpoint.select_s", timers.get("simpoint.select"), "s"),
        Metric::new("simpoint.intervals", sums.intervals as f64, "count"),
        Metric::new(
            "par.select_speedup_x",
            timers.get("simpoint.select_serial") / timers.get("simpoint.select"),
            "x",
        ),
        Metric::new("device.sim_s", timers.get("device.sim"), "s"),
        Metric::new(
            "device.sim_launch_ms_p50",
            median(&sim.launch_secs).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric::new(
            "device.sim_host_ns_per_cycle",
            timers.get("device.sim") * 1e9 / sim.cycles.max(1) as f64,
            "ns/cycle",
        ),
        Metric::new("device.sim_cycles", sim.cycles as f64, "count"),
        Metric::new(
            "device.sim_occupancy",
            sim.busy_cycles as f64 / sim.eu_cycles.max(1) as f64,
            "fraction",
        ),
        Metric::new(
            "par.sim_speedup_x",
            timers.get("device.sim_serial") / timers.get("device.sim"),
            "x",
        ),
        Metric::new("serve.handle_hit_ms_p50", handle_hit_ms_p50, "ms")
            .with_note(format!("{} hits", hit_ms.len())),
        Metric::new(
            "serve.handle_compute_ms_p95",
            nearest_rank(&compute_ms, 95.0).unwrap_or(0.0),
            "ms",
        )
        .with_note(format!("{} computed sessions", compute_ms.len())),
        Metric::new(
            "serve.response_hit_frac",
            hit_ms.len() as f64 / n,
            "fraction",
        ),
        Metric::new("serve.shed_frac", shed as f64 / n, "fraction"),
        Metric::new(
            "durable.journal_ms_per_compute",
            journal_ms_per_compute(&journaled, &unjournaled),
            "ms",
        ),
        Metric::new(
            "analyze.kernel_ms",
            timers.get("analyze.kernel") * 1e3 / kernels,
            "ms",
        )
        .with_note(format!("{} kernels", bins.len())),
        Metric::new(
            "analyze.lint_kernel_ms",
            timers.get("analyze.lint") * 1e3 / kernels,
            "ms",
        ),
    ];
    LayerPass {
        timers,
        wall: start.elapsed().as_secs_f64(),
        metrics,
        handle_hit_ms_p50,
    }
}

/// The traced run.
pub fn run(w: &Workload, ctx: &Ctx) -> Outcome {
    let refs = references(w, ctx);
    let mut tally = Tally::default();
    let (_, prepared) = setup(w, ctx);
    let pass = one_pass(prepared, &refs.sequence[..PASS_REQUESTS], ctx);
    tally_explore(
        &pass.explore,
        refs.explore,
        w.explore.apps.len(),
        &mut tally,
    );
    tally_sim(&pass.sim, refs.sim, &mut tally);
    tally_serve(&pass.serve, &refs.serve, &mut tally);

    let layers = layer_pass(w, ctx, &refs, pass.explore.report.as_ref(), &mut tally);
    let socket_hit_ms: Vec<f64> = pass
        .serve
        .samples
        .iter()
        .filter(|s| s.hit)
        .map(|s| s.secs * 1e3)
        .collect();
    let (obs_wall, spans) = telemetry_pass(w, ctx, &refs, &mut tally);

    let mut metrics = layers.metrics;
    metrics.push(
        Metric::new(
            "serve.wire_ms_p50",
            median(&socket_hit_ms).unwrap_or(0.0) - layers.handle_hit_ms_p50,
            "ms",
        )
        .with_note(format!("{} socket hits", socket_hit_ms.len())),
    );
    for (_, name) in OBS_SPANS {
        metrics.push(Metric::new(
            name,
            spans.get(name).copied().unwrap_or(0.0),
            "s",
        ));
    }
    metrics.push(
        Metric::new("obs.overhead_x", obs_wall / pass.wall, "x").with_note(format!(
            "{obs_wall:.3} s with GTPIN_OBS=1 over {:.3} s without",
            pass.wall
        )),
    );
    eprintln!(
        "trace: layer timers {:.3} s of a {:.3} s layer pass",
        layers.timers.total(),
        layers.wall
    );
    Outcome { metrics, tally }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::Stage;

    const APPS: [&str; 1] = ["cb-gaussian-image"];
    const TINY: Stage = Stage {
        apps: &APPS,
        scale: Scale::Test,
        share: 1.0,
    };

    #[test]
    fn layer_times_sum_to_no_more_than_the_wall_time() {
        let w = Workload {
            name: "tiny",
            explore: TINY,
            sim: TINY,
            serve: TINY,
        };
        let ctx = Ctx {
            seed: 1,
            threads: 2,
            work_dir: std::path::PathBuf::from(".perfbench-work")
                .join(format!("test-{}", std::process::id())),
        };
        std::fs::create_dir_all(&ctx.work_dir).unwrap();
        let refs = references(&w, &ctx);
        let mut tally = Tally::default();
        let layers = layer_pass(&w, &ctx, &refs, None, &mut tally);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        let _ = std::fs::remove_dir(".perfbench-work");
        assert_eq!(tally.failed, 0, "{tally:?}");
        assert!(layers.timers.total() > 0.0);
        assert!(
            layers.timers.total() <= layers.wall,
            "{:?} over {} s",
            layers.timers,
            layers.wall
        );
        let reported: f64 = layers
            .metrics
            .iter()
            .filter(|m| m.unit == "s")
            .map(|m| m.value)
            .sum();
        assert!(reported <= layers.wall, "{reported} > {}", layers.wall);
    }
}
