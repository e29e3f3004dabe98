//! A model of Intel CoFluent CPR: API-call tracing, per-kernel
//! timing reports, and deterministic record/replay.
//!
//! In the paper CoFluent plays three roles: it classifies OpenCL API
//! calls for Figure 3a, supplies per-kernel-invocation timings for
//! the SPI error metric (Equation 1), and — through its record and
//! replay feature — pins down API-call order so that selections made
//! on one trial stay findable in later trials and on other
//! architectures (Section V-E).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::api::{ApiCallKind, ArgValue, KernelId};
use crate::device::Device;
use crate::host::HostProgram;
use crate::runtime::{OclRuntime, RunError, RunReport, Schedule};

/// Timing and identity of one kernel invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationTiming {
    /// Position in launch order (0-based).
    pub index: u32,
    /// Which kernel ran.
    pub kernel: KernelId,
    /// The kernel's name.
    pub kernel_name: String,
    /// Global work size of the launch.
    pub global_work_size: u64,
    /// Argument values bound at launch.
    pub args: Vec<ArgValue>,
    /// Device-reported wall-clock seconds.
    pub seconds: f64,
    /// The synchronization epoch this invocation belongs to (epochs
    /// are delimited by the seven sync calls).
    pub sync_epoch: u32,
}

impl InvocationTiming {
    /// A stable digest of the bound argument values, used by
    /// KN-ARGS feature vectors.
    pub fn args_digest(&self) -> u64 {
        self.args.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, a| {
            (h ^ a.digest()).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

/// The CoFluent-style report for one program execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CofluentReport {
    /// Application name.
    pub app: String,
    /// Device the run executed on.
    pub device: String,
    /// Total OpenCL API calls observed.
    pub total_api_calls: u64,
    /// Counts per [`ApiCallKind`], indexed per [`ApiCallKind::ALL`]
    /// (kernel, synchronization, other).
    pub kind_counts: [u64; 3],
    /// Counts per API-call name.
    pub per_call_counts: BTreeMap<String, u64>,
    /// One record per kernel invocation, in execution order.
    pub invocations: Vec<InvocationTiming>,
    /// Number of synchronization epochs that contained device work.
    pub num_sync_epochs: u32,
}

impl CofluentReport {
    /// Fraction of all API calls of the given kind (Figure 3a).
    pub fn kind_fraction(&self, kind: ApiCallKind) -> f64 {
        if self.total_api_calls == 0 {
            return 0.0;
        }
        let i = ApiCallKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind");
        self.kind_counts[i] as f64 / self.total_api_calls as f64
    }

    /// Total seconds spent in kernel invocations.
    pub fn total_kernel_seconds(&self) -> f64 {
        self.invocations.iter().map(|i| i.seconds).sum()
    }

    /// Number of kernel invocations.
    pub fn num_invocations(&self) -> usize {
        self.invocations.len()
    }
}

/// A CoFluent recording: the captured API-call order (with argument
/// values and kernel sources) of one native run. Replaying it
/// executes "just as a normal executable on native hardware would,
/// with the only difference being a consistent and repeatable
/// ordering of API calls".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recording {
    program: HostProgram,
}

impl Recording {
    /// Capture a recording by running `program` natively (with the
    /// trial-dependent `seed` ordering) and keeping the resolved
    /// call order.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the capture run.
    pub fn capture<D: Device>(
        runtime: &mut OclRuntime<D>,
        program: &HostProgram,
        seed: u64,
    ) -> Result<(Recording, RunReport), RunError> {
        let mut span = gtpin_obs::span("cofluent.capture");
        let report = runtime.run(program, Schedule::Natural { seed })?;
        if span.active() {
            span.arg_str("app", program.name.clone());
            span.arg_u64("api_calls", report.cofluent.total_api_calls);
            span.arg_u64("invocations", report.cofluent.num_invocations() as u64);
        }
        if report.cofluent.invocations.is_empty() {
            gtpin_obs::warn!(
                "cofluent: recording of `{}` captured no kernel invocations; replays will do no device work",
                program.name
            );
        }
        let recording = Recording {
            program: HostProgram {
                name: program.name.clone(),
                source: program.source.clone(),
                calls: report.resolved_calls.clone(),
            },
        };
        Ok((recording, report))
    }

    /// Replay the recording on a (possibly different) device.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the replay run.
    pub fn replay<D: Device>(&self, runtime: &mut OclRuntime<D>) -> Result<RunReport, RunError> {
        let mut span = gtpin_obs::span("cofluent.replay");
        if span.active() {
            span.arg_str("app", self.program.name.clone());
        }
        runtime.run(&self.program, Schedule::Replay)
    }

    /// The recorded program (captured call order).
    pub fn program(&self) -> &HostProgram {
        &self.program
    }
}

/// A standalone API tracer for host programs that are inspected
/// without executing on a device (used by a few reports and tests).
#[derive(Debug, Default, Clone)]
pub struct ApiTracer {
    kind_counts: [u64; 3],
    per_call_counts: BTreeMap<String, u64>,
    total: u64,
}

impl ApiTracer {
    /// An empty tracer.
    pub fn new() -> ApiTracer {
        ApiTracer::default()
    }

    /// Record one call.
    pub fn observe(&mut self, call: &crate::api::ApiCall) {
        let i = ApiCallKind::ALL
            .iter()
            .position(|&k| k == call.kind())
            .expect("kind in ALL");
        self.kind_counts[i] += 1;
        *self
            .per_call_counts
            .entry(call.name().to_string())
            .or_insert(0) += 1;
        self.total += 1;
    }

    /// Trace an entire script.
    pub fn observe_all<'a>(&mut self, calls: impl IntoIterator<Item = &'a crate::api::ApiCall>) {
        for c in calls {
            self.observe(c);
        }
    }

    /// Counts per kind, in [`ApiCallKind::ALL`] order.
    pub fn kind_counts(&self) -> [u64; 3] {
        self.kind_counts
    }

    /// Total calls observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Counts per API-call name.
    pub fn per_call_counts(&self) -> &BTreeMap<String, u64> {
        &self.per_call_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ApiCall, SyncCall};
    use crate::device::test_support::FakeDevice;
    use crate::host::{HostScriptBuilder, ProgramSource};
    use crate::ir::KernelIr;

    fn program() -> HostProgram {
        let source = ProgramSource {
            kernels: vec![KernelIr::new("a", 1), KernelIr::new("b", 1)],
        };
        let mut b = HostScriptBuilder::new("app", source);
        for e in 0..3 {
            for i in 0..4u32 {
                let k = KernelId(i % 2);
                b.set_arg(k, 0, ArgValue::Scalar((e * 4 + i) as u64));
                b.launch(k, 128);
            }
            b.sync(SyncCall::Finish);
        }
        b.finish().unwrap()
    }

    #[test]
    fn recording_replay_is_deterministic() {
        let p = program();
        let mut rt = OclRuntime::new(FakeDevice::default());
        let (rec, capture_report) = Recording::capture(&mut rt, &p, 11).unwrap();

        let mut rt2 = OclRuntime::new(FakeDevice::default());
        let replay1 = rec.replay(&mut rt2).unwrap();
        let mut rt3 = OclRuntime::new(FakeDevice::default());
        let replay2 = rec.replay(&mut rt3).unwrap();

        let order = |r: &RunReport| {
            r.cofluent
                .invocations
                .iter()
                .map(|i| (i.kernel, i.args.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            order(&replay1),
            order(&replay2),
            "replays agree with each other"
        );
        assert_eq!(
            order(&replay1),
            order(&capture_report),
            "replays reproduce the captured order"
        );
    }

    #[test]
    fn kind_fractions_sum_to_one() {
        let p = program();
        let mut rt = OclRuntime::new(FakeDevice::default());
        let r = rt.run(&p, Schedule::Replay).unwrap().cofluent;
        let total: f64 = ApiCallKind::ALL.iter().map(|&k| r.kind_fraction(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn args_digest_distinguishes_bindings() {
        let a = InvocationTiming {
            index: 0,
            kernel: KernelId(0),
            kernel_name: "k".into(),
            global_work_size: 64,
            args: vec![ArgValue::Scalar(1)],
            seconds: 0.0,
            sync_epoch: 0,
        };
        let mut b = a.clone();
        b.args = vec![ArgValue::Scalar(2)];
        assert_ne!(a.args_digest(), b.args_digest());
    }

    #[test]
    fn tracer_counts_match_runtime_counts() {
        let p = program();
        let mut tracer = ApiTracer::new();
        tracer.observe_all(&p.calls);
        let mut rt = OclRuntime::new(FakeDevice::default());
        let r = rt.run(&p, Schedule::Replay).unwrap().cofluent;
        assert_eq!(tracer.kind_counts(), r.kind_counts);
        assert_eq!(tracer.total(), r.total_api_calls);
        assert_eq!(
            tracer.per_call_counts().get("clEnqueueNDRangeKernel"),
            Some(&12)
        );
    }

    #[test]
    fn sync_only_scripts_have_zero_kernel_fraction() {
        let mut tracer = ApiTracer::new();
        tracer.observe(&ApiCall::Sync(SyncCall::Flush));
        assert_eq!(tracer.kind_counts(), [0, 1, 0]);
    }
}
