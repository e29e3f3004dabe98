//! The three stages every workload runs — explore, detailed sim and
//! serve — with their set-up, their 1-thread references and their
//! timed loops. A workload only chooses each stage's inputs and its
//! share of the run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::{Gpu, GpuConfig, GpuGeneration};
use gtpin_serve::wire::{Request, Response};
use gtpin_serve::{ServeConfig, ServeError, SessionEngine};
use ocl_runtime::cofluent::Recording;
use ocl_runtime::host::HostProgram;
use ocl_runtime::runtime::OclRuntime;
use subset_select::{run_sweep, SweepOptions, SweepReport};
use workloads::{build_program, spec_by_name, Scale};

use crate::stats::{fnv_fold, FNV_BASIS};

/// One stage's inputs and its share of `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Applications the stage runs over.
    pub apps: &'static [&'static str],
    /// Scale of the explore and sim inputs (serve requests are always
    /// Test scale).
    pub scale: Scale,
    /// Fraction of `--seconds` the stage's timed loop runs for.
    pub share: f64,
}

/// A workload: the inputs of each stage. Each workload makes one
/// stage dominant; the other two run small Test-scale inputs so every
/// end-to-end metric is measured on every workload. The serve stage
/// always draws from the six-app serve pool: with fewer apps a single
/// key's reply (a large `analyze` report streams one frame per line)
/// is over 5% of requests and decides the 95th percentile alone.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// `run_sweep` inputs.
    pub explore: Stage,
    /// Detailed-simulation inputs.
    pub sim: Stage,
    /// Serve-daemon request pool.
    pub serve: Stage,
}

const EXPLORE_APPS: [&str; 3] = [
    "cb-physics-part-sim-32k",
    "cb-vision-tv-l1-of",
    "sandra-crypt-aes128",
];
const SIM_APPS: [&str; 2] = ["cb-throughput-juliaset", "sandra-crypt-aes256"];
const SERVE_APPS: [&str; 6] = [
    "cb-gaussian-image",
    "cb-histogram-buffer",
    "cb-throughput-ao",
    "sandra-proc-gpu",
    "cb-vision-facedetect-m",
    "cb-physics-ocean-surf",
];

/// The benchmark's workloads (see the crate docs for why each).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "explore-suite",
        explore: Stage {
            apps: &EXPLORE_APPS,
            scale: Scale::Default,
            share: 0.6,
        },
        sim: Stage {
            apps: &EXPLORE_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
        serve: Stage {
            apps: &SERVE_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
    },
    Workload {
        name: "sim-full",
        explore: Stage {
            apps: &SIM_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
        sim: Stage {
            apps: &SIM_APPS,
            scale: Scale::Default,
            share: 0.6,
        },
        serve: Stage {
            apps: &SERVE_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
    },
    Workload {
        name: "serve-mix",
        explore: Stage {
            apps: &SERVE_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
        sim: Stage {
            apps: &SERVE_APPS,
            scale: Scale::Test,
            share: 0.2,
        },
        serve: Stage {
            apps: &SERVE_APPS,
            scale: Scale::Test,
            share: 0.6,
        },
    },
];

impl Workload {
    /// The stage with the largest share: the one the workload is for.
    pub fn dominant(&self) -> &'static str {
        let shares = [
            ("explore", self.explore.share),
            ("sim", self.sim.share),
            ("serve", self.serve.share),
        ];
        shares
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| name)
            .expect("three stages")
    }
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Requests generated per run; far more than any run completes.
pub const SEQUENCE_LEN: usize = 50_000;

/// Fewest requests a timed serve stage completes. Each of the pool's
/// 42 keys computes once per run, so 3,000 keeps computed sessions,
/// and the hits they slow down, well under 5% of requests: the 95th
/// percentile sits among cache hits instead of on the edge between
/// the two. It also leaves far more than ten samples beyond p95.
pub const MIN_REQUESTS: usize = 3_000;

/// Run-wide settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Thread count pinned into every config (the host's cores).
    pub threads: usize,
    /// Per-run directory, under the working directory, for the socket,
    /// journals and telemetry files.
    pub work_dir: PathBuf,
}

/// Failure and attempt accounting of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted: explored apps, simulated launches and
    /// served requests.
    pub attempted: u64,
    /// Degraded apps, launch errors, `error[*]` replies (sheds
    /// included) and output mismatches.
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Build the programs of `apps` at `scale`.
pub fn build_programs(apps: &[&str], scale: Scale) -> Vec<HostProgram> {
    apps.iter()
        .map(|app| {
            let spec = spec_by_name(app).expect("benchmark apps exist in the suite");
            build_program(&spec, scale)
        })
        .collect()
}

/// An HD 4000 configuration with executor fan-out pinned to `threads`.
pub fn gpu_config(threads: usize) -> GpuConfig {
    let mut gpu = GpuConfig::hd4000();
    gpu.exec.threads = threads;
    gpu
}

// ---------------------------------------------------------------- explore

/// The explore stage's `capture_seed`. It is pinned rather than taken
/// from `--seed` because the capture order decides the selection
/// problem itself: across seeds 1–5 the mean co-opt error of the
/// serve pool moved between 0.79% and 1.79%, and the sweep's work with
/// it, wider than any bound the benchmark may set. The seed permutes
/// the order the apps are swept in instead ([`explore_programs`]).
pub const EXPLORE_CAPTURE_SEED: u64 = 1;

/// The explore stage's programs, in an order `seed` permutes.
pub fn explore_programs(stage: &Stage, seed: u64) -> Vec<HostProgram> {
    let mut programs = build_programs(stage.apps, stage.scale);
    let mut rng = crate::requests::SplitMix::new(seed);
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.below(i + 1));
    }
    programs
}

/// Sweep options with every knob pinned: no journal, no pre-screen,
/// default supervision.
pub fn sweep_options(threads: usize) -> SweepOptions {
    SweepOptions {
        capture_seed: EXPLORE_CAPTURE_SEED,
        gpu: gpu_config(threads),
        threads,
        journal_dir: None,
        resume: false,
        prescreen: false,
        ..SweepOptions::default()
    }
}

/// One sweep's outputs.
#[derive(Debug, Clone)]
pub struct ExplorePass {
    /// Host seconds of `run_sweep`.
    pub secs: f64,
    /// fnv64 of the report's JSON.
    pub digest: u64,
    /// The report.
    pub report: Option<SweepReport>,
}

/// Run one sweep over `programs`.
pub fn explore_pass(programs: &[HostProgram], threads: usize) -> ExplorePass {
    let opts = sweep_options(threads);
    let t = Instant::now();
    let outcome = run_sweep(programs, &opts);
    let secs = t.elapsed().as_secs_f64();
    match outcome {
        Ok(outcome) => {
            let json = serde_json::to_string(&outcome.report).expect("reports serialize");
            ExplorePass {
                secs,
                digest: fnv_fold(FNV_BASIS, json.as_bytes()),
                report: Some(outcome.report),
            }
        }
        Err(e) => {
            eprintln!("explore: sweep failed: {e}");
            ExplorePass {
                secs,
                digest: 0,
                report: None,
            }
        }
    }
}

/// Account one sweep against the reference digest.
pub fn tally_explore(pass: &ExplorePass, reference: u64, apps: usize, tally: &mut Tally) {
    let matches = pass.digest == reference;
    if !matches {
        eprintln!(
            "explore: report digest {:016x} != reference {reference:016x}",
            pass.digest
        );
    }
    let degraded = pass.report.as_ref().map_or(apps, |r| r.degraded_apps.len());
    for i in 0..apps {
        tally.op(matches && i >= degraded);
    }
}

// -------------------------------------------------------------------- sim

/// Run every program natively once (capture order from `seed`) and
/// keep the devices, whose launch logs and JIT-built kernels the
/// detailed simulator replays.
pub fn capture_devices(programs: &[HostProgram], seed: u64, threads: usize) -> Vec<Gpu> {
    programs
        .iter()
        .map(|program| {
            let mut rt = OclRuntime::new(Gpu::new(gpu_config(threads)));
            Recording::capture(&mut rt, program, seed).expect("benchmark apps run natively");
            rt.into_device()
        })
        .collect()
}

/// One detailed-simulation pass over every captured launch.
#[derive(Debug, Clone, Default)]
pub struct SimPass {
    /// Host seconds inside `simulate_launch`, summed over launches.
    pub secs: f64,
    /// Host seconds of each `simulate_launch`.
    pub launch_secs: Vec<f64>,
    /// Stats digest, folded as `gtpin sim` folds it, across all apps.
    pub digest: u64,
    /// Simulated GEN instructions.
    pub instructions: u64,
    /// Simulated cycles, summed over launches.
    pub cycles: u64,
    /// Issue cycles summed across EUs.
    pub busy_cycles: u64,
    /// EU cycles summed across EUs with work.
    pub eu_cycles: u64,
    /// Launches simulated.
    pub launches: u64,
    /// Launches that returned an error.
    pub errors: u64,
}

/// Simulate every launch of `devices` on a fresh simulator (cold LLC)
/// with `workers` shard workers.
pub fn sim_pass(devices: &[Gpu], workers: usize) -> SimPass {
    let topo = GpuGeneration::IvyBridgeHd4000.topology();
    let mut sim =
        DetailedSimulator::new(topo, 1.15e9, DetailedConfig::default()).with_workers(workers);
    let mut pass = SimPass {
        digest: FNV_BASIS,
        ..SimPass::default()
    };
    for gpu in devices {
        for launch in gpu.launches() {
            pass.launches += 1;
            let Some(kernel) = gpu.driver().kernel(launch.kernel.index()) else {
                pass.errors += 1;
                continue;
            };
            let t = Instant::now();
            let result = sim.simulate_launch(kernel, &launch.args, launch.global_work_size);
            pass.launch_secs.push(t.elapsed().as_secs_f64());
            let Ok(r) = result else {
                pass.errors += 1;
                continue;
            };
            pass.instructions += r.stats.instructions;
            pass.cycles += r.cycles;
            pass.busy_cycles += r.busy_cycles;
            pass.eu_cycles += r.eu_cycles;
            pass.digest = fnv_fold(pass.digest, &r.cycles.to_le_bytes());
            pass.digest = fnv_fold(pass.digest, &r.busy_cycles.to_le_bytes());
            pass.digest = fnv_fold(pass.digest, &r.eu_cycles.to_le_bytes());
            let stats = serde_json::to_string(&r.stats).expect("stats serialize");
            pass.digest = fnv_fold(pass.digest, stats.as_bytes());
        }
    }
    pass.secs = pass.launch_secs.iter().sum();
    pass
}

/// Account one sim pass against the reference digest.
pub fn tally_sim(pass: &SimPass, reference: u64, tally: &mut Tally) {
    let matches = pass.digest == reference;
    if !matches {
        eprintln!(
            "sim: stats digest {:016x} != reference {reference:016x}",
            pass.digest
        );
    }
    for i in 0..pass.launches {
        tally.op(matches && i >= pass.errors);
    }
}

// ------------------------------------------------------------------ serve

/// Reference replies by session key.
pub type Replies = BTreeMap<String, Vec<Response>>;

/// Serve every distinct request of `sequence` from an in-memory
/// engine pinned to one thread, in first-occurrence order.
pub fn reference_replies(sequence: &[Request]) -> Replies {
    let config = ServeConfig {
        threads: 1,
        journal_dir: None,
        ..ServeConfig::default()
    };
    let (engine, _) = SessionEngine::new(config).expect("an unjournaled engine always builds");
    let mut replies = Replies::new();
    for request in sequence {
        let key = request.session_key();
        replies
            .entry(key)
            .or_insert_with(|| engine.handle(request).responses());
    }
    replies
}

/// fnv64 over every reply, in key order.
pub fn replies_digest(replies: &Replies) -> u64 {
    let mut h = FNV_BASIS;
    for (key, reply) in replies {
        h = fnv_fold(h, key.as_bytes());
        h = fnv_fold(h, reply_json(reply).as_bytes());
    }
    h
}

/// A reply as JSON (what the digests hash).
pub fn reply_json(reply: &[Response]) -> String {
    serde_json::to_string(&reply.to_vec()).expect("responses serialize")
}

/// An in-process daemon on a socket in the work directory.
pub struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<Result<(), ServeError>>,
}

impl Daemon {
    /// Start a daemon with a fresh session journal and wait until it
    /// has accepted a connection.
    pub fn start(dir: &Path, threads: usize) -> Daemon {
        let socket = dir.join("serve.sock");
        let journal = dir.join("journal");
        let _ = std::fs::remove_dir_all(&journal);
        let config = ServeConfig {
            socket: socket.clone(),
            journal_dir: Some(journal),
            resume: false,
            threads,
            ..ServeConfig::default()
        };
        let thread = std::thread::spawn(move || gtpin_serve::serve(config));
        // A probe that the daemon has accepted (and closed) proves its
        // accept loop is running, so a later drain request cannot be
        // overwritten by the loop's start-up.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut probe) = std::os::unix::net::UnixStream::connect(&socket) {
                use std::io::Read;
                let _ = probe.shutdown(std::net::Shutdown::Write);
                let mut sink = Vec::new();
                if probe.read_to_end(&mut sink).is_ok() {
                    break;
                }
            }
            assert!(
                !thread.is_finished() && Instant::now() < deadline,
                "serve daemon did not come up on {}",
                socket.display()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        Daemon { socket, thread }
    }

    /// The daemon's socket.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Drain the daemon and wait for its thread.
    pub fn stop(self) {
        gtpin_serve::request_drain();
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("serve: daemon ended with error[{}]: {e}", e.kind()),
            Err(_) => eprintln!("serve: daemon thread panicked"),
        }
    }
}

/// One closed-loop call.
#[derive(Debug, Clone)]
pub struct Call<R> {
    /// Session key.
    pub key: String,
    /// Host seconds of the call.
    pub secs: f64,
    /// Whether the key had already been served when the call started.
    pub hit: bool,
    /// What the call returned.
    pub result: R,
}

/// Drive `clients` closed-loop callers over `sequence`: each takes the
/// next request only after its previous call returned, and stops at
/// the end of the sequence or when `more(index)` says so. `hit` is
/// asked, before each call, whether the key was served already.
pub fn closed_loop<R: Send>(
    sequence: &[Request],
    clients: usize,
    more: impl Fn(usize) -> bool + Sync,
    hit: impl Fn(&str) -> bool + Sync,
    call: impl Fn(&Request) -> R + Sync,
) -> Vec<Call<R>> {
    let next = AtomicUsize::new(0);
    let calls = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(request) = sequence.get(i).filter(|_| more(i)) else {
                    break;
                };
                let key = request.session_key();
                let hit = hit(&key);
                let t = Instant::now();
                let result = call(request);
                let secs = t.elapsed().as_secs_f64();
                calls.lock().expect("no caller panics").push(Call {
                    key,
                    secs,
                    hit,
                    result,
                });
            });
        }
    });
    calls.into_inner().expect("no caller panics")
}

/// One client-observed request: the replies, or the transport error.
pub type Sample = Call<Result<Vec<Response>, String>>;

/// One closed-loop serve stage.
#[derive(Debug, Clone)]
pub struct ServePass {
    /// Host seconds from the first send to the last reply.
    pub secs: f64,
    /// Every completed request.
    pub samples: Vec<Sample>,
}

/// Drive `clients` closed-loop clients over `sequence` through the
/// daemon's socket. Clients stop after `budget` once at least `min`
/// requests were taken, or at `max`. A request is a hit when an
/// earlier request for its key had completed before it was sent, so
/// the daemon's response cache held it.
pub fn serve_pass(
    socket: &Path,
    sequence: &[Request],
    clients: usize,
    budget: Duration,
    min: usize,
    max: usize,
) -> ServePass {
    let done_keys: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let start = Instant::now();
    let samples = closed_loop(
        sequence,
        clients,
        |i| i < max && (i < min || start.elapsed() < budget),
        |key| done_keys.lock().expect("no client panics").contains(key),
        |request| {
            let reply = gtpin_serve::request_once(socket, request).map_err(|e| e.to_string());
            done_keys
                .lock()
                .expect("no client panics")
                .insert(request.session_key());
            reply
        },
    );
    ServePass {
        secs: start.elapsed().as_secs_f64(),
        samples,
    }
}

/// Whether a reply is a completed session (not an `error[*]`).
pub fn reply_ok(reply: &[Response]) -> bool {
    matches!(reply.last(), Some(Response::Done))
}

/// Account every served request against its reference reply.
pub fn tally_serve(pass: &ServePass, reference: &Replies, tally: &mut Tally) {
    let mut logged = 0;
    for sample in &pass.samples {
        let problem = match &sample.result {
            Ok(reply) if reference.get(&sample.key) == Some(reply) => {
                (!reply_ok(reply)).then(|| format!("{} replied {:?}", sample.key, reply.last()))
            }
            Ok(_) => Some(format!("{} differs from the reference", sample.key)),
            Err(e) => Some(format!("{} failed: {e}", sample.key)),
        };
        if let Some(problem) = &problem {
            if logged < 5 {
                eprintln!("serve: {problem}");
                logged += 1;
            }
        }
        tally.op(problem.is_none());
    }
}

/// Reset the kernel's peak-resident-set mark to the current resident
/// set, so [`peak_rss_mb`] covers what runs next. Best effort: on a
/// kernel without `clear_refs` the mark covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------ references, set-up

/// The 1-thread reference outputs of a run, computed outside every
/// timed region.
#[derive(Debug, Clone)]
pub struct Refs {
    /// The serve stage's request sequence.
    pub sequence: Vec<Request>,
    /// Explore report digest.
    pub explore: u64,
    /// Sim stats digest.
    pub sim: u64,
    /// Serve replies by key.
    pub serve: Replies,
}

/// Compute the references with every thread count at 1, including
/// the `GTPIN_THREADS` that `simpoint::select` reads by itself. Must
/// run while this process has no other threads.
pub fn references(w: &Workload, ctx: &Ctx) -> Refs {
    set_thread_env(1);
    let explore = explore_pass(&explore_programs(&w.explore, ctx.seed), 1);
    let devices = capture_devices(&build_programs(w.sim.apps, w.sim.scale), ctx.seed, 1);
    let sim = sim_pass(&devices, 1);
    let sequence = crate::requests::sequence(ctx.seed, w.serve.apps, SEQUENCE_LEN);
    let serve = reference_replies(&sequence);
    set_thread_env(ctx.threads);
    Refs {
        sequence,
        explore: explore.digest,
        sim: sim.digest,
        serve,
    }
}

/// Pin `GTPIN_THREADS` and `GTPIN_SIM_THREADS`, which library
/// defaults read behind the benchmark's back. Only called while this
/// process runs a single thread.
pub fn set_thread_env(threads: usize) {
    std::env::set_var(gtpin_par::THREADS_ENV, threads.to_string());
    std::env::set_var(gtpin_par::SIM_THREADS_ENV, threads.to_string());
}

/// Everything the timed stages start from.
pub struct Prepared {
    /// Explore-stage programs.
    pub explore_programs: Vec<HostProgram>,
    /// Sim-stage devices after their functional run.
    pub sim_devices: Vec<Gpu>,
    /// A fresh daemon with empty caches.
    pub daemon: Daemon,
}

/// Set-up: program generation, the sim stage's functional run (which
/// JIT-compiles every kernel) and the daemon's start. Returns the
/// host seconds it took.
pub fn setup(w: &Workload, ctx: &Ctx) -> (f64, Prepared) {
    let t = Instant::now();
    let explore_programs = explore_programs(&w.explore, ctx.seed);
    let sim_devices = capture_devices(
        &build_programs(w.sim.apps, w.sim.scale),
        ctx.seed,
        ctx.threads,
    );
    let daemon = Daemon::start(&ctx.work_dir, ctx.threads);
    let secs = t.elapsed().as_secs_f64();
    (
        secs,
        Prepared {
            explore_programs,
            sim_devices,
            daemon,
        },
    )
}
