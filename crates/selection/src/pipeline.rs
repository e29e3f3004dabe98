//! The end-to-end workflow of the paper, as one call:
//!
//! 1. run the application once with **GT-Pin attached**, under
//!    CoFluent's natural schedule: the run yields the **recording**
//!    (API order), GT-Pin's instruction/block/memory profile, and
//!    each launch's device counters. Stripping the injected probes'
//!    fixed contribution from those counters
//!    ([`RewriteConfig::native_stats`]) and pricing what remains on
//!    the same timing model gives the *native* timings — the
//!    "measured" side — without a second execution,
//! 2. join profile and timings by launch order into [`AppData`],
//!    ready for interval division, feature construction, and
//!    SimPoint.
//!
//! Validation replays (other trials, frequencies, generations) rerun
//! the recording natively on a differently-configured device and
//! swap the timings into the existing dataset.

use gpu_device::{Gpu, GpuConfig};
use gtpin_core::{GtPin, ProgramProfile, RewriteConfig};
use ocl_runtime::cofluent::{CofluentReport, Recording};
use ocl_runtime::host::HostProgram;
use ocl_runtime::runtime::{OclRuntime, RunError};

use crate::data::{AppData, MergeError};

/// Errors from the profiling pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// A run failed.
    Run(RunError),
    /// Profile and timing data did not line up.
    Merge(MergeError),
    /// A launch's instrumented counters did not invert to native
    /// ones (the device and the rewriter disagree on what the probes
    /// cost).
    NativeStats {
        /// The launch whose counters failed to invert.
        launch: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Run(e) => write!(f, "run failed: {e}"),
            PipelineError::Merge(e) => write!(f, "merge failed: {e}"),
            PipelineError::NativeStats { launch } => write!(
                f,
                "launch {launch}: instrumented counters do not invert to native ones"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> PipelineError {
        PipelineError::Run(e)
    }
}

impl From<MergeError> for PipelineError {
    fn from(e: MergeError) -> PipelineError {
        PipelineError::Merge(e)
    }
}

/// Everything the one-time profiling pass produces.
#[derive(Debug)]
pub struct ProfiledApp {
    /// The CoFluent recording (replayable on any device config).
    pub recording: Recording,
    /// Joined profile + timing dataset for selection.
    pub data: AppData,
    /// The raw GT-Pin profile (characterization uses this).
    pub profile: ProgramProfile,
    /// The CoFluent report of the profiling pass, with each
    /// invocation's `seconds` the *native* timing: the launch's
    /// counters less the injected probes, priced by the device's
    /// timing model — bit-identical to a separate uninstrumented run.
    pub cofluent: CofluentReport,
}

/// Profile an application with one instrumented execution: capture
/// the recording and GT-Pin's profile together, derive native
/// timings from the device counters, and join.
///
/// `capture_seed` is the natural API ordering of the first trial;
/// the GPU config's `trial_seed` drives timing noise.
///
/// # Errors
///
/// Returns [`PipelineError`] when the run fails or the data cannot
/// be joined.
pub fn profile_app(
    program: &HostProgram,
    gpu_config: GpuConfig,
    capture_seed: u64,
) -> Result<ProfiledApp, PipelineError> {
    let mut span = gtpin_obs::span("selection.profile_app");
    if span.active() {
        span.arg_str("app", program.name.clone());
    }

    let rewrite = RewriteConfig::default();
    let mut gpu = Gpu::new(gpu_config);
    let gtpin = GtPin::new(rewrite);
    gtpin.attach(&mut gpu);
    let mut runtime = OclRuntime::new(gpu);
    let (recording, report) = Recording::capture(&mut runtime, program, capture_seed)?;
    let profile = gtpin.profile(&program.name);

    // The run timed itself with the probes' cost included; re-price
    // each launch on its native counters.
    let gpu = runtime.device();
    let mut cofluent = report.cofluent;
    for (inv, launch) in cofluent.invocations.iter_mut().zip(gpu.launches()) {
        let native = rewrite
            .native_stats(&launch.stats)
            .ok_or(PipelineError::NativeStats {
                launch: launch.launch_index,
            })?;
        inv.seconds = gpu.timing().launch_seconds(&native, launch.launch_index);
    }

    let data = AppData::merge(&profile, &cofluent)?;
    if span.active() {
        span.arg_u64("invocations", data.invocations.len() as u64);
    }
    Ok(ProfiledApp {
        recording,
        data,
        profile,
        cofluent,
    })
}

/// Replay a recording natively on a (possibly different) device
/// configuration, returning its timing report — the validation side
/// of Figure 8.
///
/// # Errors
///
/// Returns [`PipelineError::Run`] when the replay fails.
pub fn replay_timings(
    recording: &Recording,
    gpu_config: GpuConfig,
) -> Result<CofluentReport, PipelineError> {
    let mut rt = OclRuntime::new(Gpu::new(gpu_config));
    let report = recording.replay(&mut rt)?;
    Ok(report.cofluent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::ExecSize;
    use ocl_runtime::api::{ArgValue, KernelId, SyncCall};
    use ocl_runtime::host::{HostScriptBuilder, ProgramSource};
    use ocl_runtime::ir::{IrOp, KernelIr, TripCount};

    fn program() -> HostProgram {
        let mut k = KernelIr::new("w", 1);
        k.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Arg(0),
            },
            IrOp::Compute {
                ops: 10,
                width: ExecSize::S16,
            },
            IrOp::LoopEnd,
        ];
        let mut b = HostScriptBuilder::new("pipe-app", ProgramSource { kernels: vec![k] });
        for e in 0..4u64 {
            for i in 0..3u64 {
                b.set_arg(KernelId(0), 0, ArgValue::Scalar(5 + 3 * ((e + i) % 3)));
                b.launch(KernelId(0), 128);
            }
            b.sync(SyncCall::Finish);
        }
        b.finish().unwrap()
    }

    #[test]
    fn profile_app_produces_consistent_data() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        assert_eq!(p.data.invocations.len(), 12);
        assert!(p.data.total_instructions() > 0);
        assert!(p.data.total_seconds() > 0.0);
        // Profile counts joined with native timings, same order.
        for (inv, prof) in p.data.invocations.iter().zip(&p.profile.invocations) {
            assert_eq!(inv.instructions, prof.instructions);
        }
        assert_eq!(p.data.invocations.last().unwrap().sync_epoch, 3);
    }

    #[test]
    fn replay_timings_matches_original_trial_when_config_identical() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        let replay = replay_timings(&p.recording, GpuConfig::hd4000()).unwrap();
        for (a, b) in p.cofluent.invocations.iter().zip(&replay.invocations) {
            assert_eq!(
                a.seconds, b.seconds,
                "same machine, same trial seed, same time"
            );
        }
    }

    #[test]
    fn different_trial_seed_changes_timings_only() {
        let p = profile_app(&program(), GpuConfig::hd4000(), 7).unwrap();
        let replay = replay_timings(&p.recording, GpuConfig::hd4000().with_trial_seed(99)).unwrap();
        let new_data = p.data.with_timings(&replay).unwrap();
        assert_eq!(
            new_data.total_instructions(),
            p.data.total_instructions(),
            "replays are architecturally deterministic"
        );
        assert_ne!(new_data.total_seconds(), p.data.total_seconds());
    }
}
