//! Oracle for the fused profiling pass.
//!
//! `profile_app` executes an application once, with GT-Pin attached,
//! and derives each launch's native timing from the device counters
//! less the injected probes. The workflow it replaced ran the
//! application twice: natively under a CoFluent capture for timings,
//! then instrumented, replaying the recording, for counts. That
//! two-pass workflow lives on here only as the reference, and the
//! fused result must equal it field for field — recording, dataset,
//! timing report (seconds compared with `==`) and profile — while
//! every launch's inverted counters equal an uninstrumented device's.

use gen_isa::ExecSize;
use gpu_device::{ExecConfig, ExecutionStats, Gpu, GpuConfig};
use gtpin_core::{GtPin, RewriteConfig};
use ocl_runtime::api::{ArgValue, KernelId, SyncCall};
use ocl_runtime::cofluent::Recording;
use ocl_runtime::host::{HostProgram, HostScriptBuilder, ProgramSource};
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};
use ocl_runtime::runtime::OclRuntime;
use proptest::prelude::*;
use subset_select::{profile_app, AppData, PipelineError, ProfiledApp};
use workloads::{all_specs, build_program, Scale};

/// The two-pass reference: a native capture, then an instrumented
/// replay of its recording, joined by launch order. Also returns, per
/// launch, the native device's counters and the instrumented one's.
fn two_pass(
    program: &HostProgram,
    gpu_config: GpuConfig,
    capture_seed: u64,
) -> Result<(ProfiledApp, Vec<(ExecutionStats, ExecutionStats)>), PipelineError> {
    let mut native = OclRuntime::new(Gpu::new(gpu_config));
    let (recording, native_report) = Recording::capture(&mut native, program, capture_seed)?;

    let mut gpu = Gpu::new(gpu_config);
    let gtpin = GtPin::new(RewriteConfig::default());
    gtpin.attach(&mut gpu);
    let mut instrumented = OclRuntime::new(gpu);
    recording.replay(&mut instrumented)?;
    let profile = gtpin.profile(&program.name);

    let data = AppData::merge(&profile, &native_report.cofluent)?;
    let launches = native
        .device()
        .launches()
        .iter()
        .zip(instrumented.device().launches())
        .map(|(n, i)| (n.stats, i.stats))
        .collect();
    let reference = ProfiledApp {
        recording,
        data,
        profile,
        cofluent: native_report.cofluent,
    };
    Ok((reference, launches))
}

/// Run both paths and require identical results; returns a failure
/// description instead of panicking so the property test can report
/// its case.
fn check(program: &HostProgram, gpu_config: GpuConfig, capture_seed: u64) -> Result<(), String> {
    let (reference, launches) = two_pass(program, gpu_config, capture_seed)
        .map_err(|e| format!("{}: reference failed: {e}", program.name))?;
    let fused = profile_app(program, gpu_config, capture_seed)
        .map_err(|e| format!("{}: fused failed: {e}", program.name))?;
    let ctx = |what: &str| format!("{} (seed {capture_seed}): {what} differs", program.name);
    if fused.recording != reference.recording {
        return Err(ctx("recording"));
    }
    if fused.cofluent != reference.cofluent {
        return Err(ctx("CoFluent report"));
    }
    if fused.data != reference.data {
        return Err(ctx("AppData"));
    }
    if fused.profile != reference.profile {
        return Err(ctx("GT-Pin profile"));
    }
    if launches.len() != fused.cofluent.invocations.len() {
        return Err(ctx("launch count"));
    }
    for (i, (native, instrumented)) in launches.iter().enumerate() {
        let inverted = RewriteConfig::default().native_stats(instrumented);
        if inverted.as_ref() != Some(native) {
            return Err(ctx(&format!(
                "launch {i} native stats: inverted {inverted:?}, uninstrumented {native:?}"
            )));
        }
    }
    Ok(())
}

fn with_threads(config: GpuConfig, threads: usize) -> GpuConfig {
    GpuConfig {
        exec: ExecConfig {
            threads,
            ..config.exec
        },
        ..config
    }
}

/// Every builtin app at test scale, at capture seeds 1 and 5, on the
/// main system, the Haswell system and a scaled clock, with the
/// executor serial and fanned out to four workers.
#[test]
fn fused_profile_equals_two_pass_on_every_builtin_app() {
    let devices = [
        GpuConfig::hd4000(),
        GpuConfig::hd4600(),
        GpuConfig::hd4000().with_frequency_hz(0.35e9),
    ];
    let specs = all_specs();
    assert_eq!(specs.len(), 25);
    let seeds = [1u64, 5];
    // Cases fan out across the pool; each is independent.
    let failures: Vec<String> = gtpin_par::parallel_indexed(
        specs.len() * seeds.len(),
        gtpin_par::configured_threads(),
        |k| {
            // Rotate device and thread count so each of the six
            // combinations meets many apps and both seeds.
            let program = build_program(&specs[k / seeds.len()], Scale::Test);
            let config = with_threads(devices[k % devices.len()], [1, 4][k / 3 % 2]);
            check(&program, config, seeds[k % seeds.len()]).err()
        },
    )
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

fn arb_width() -> impl Strategy<Value = ExecSize> {
    prop::sample::select(vec![
        ExecSize::S1,
        ExecSize::S4,
        ExecSize::S8,
        ExecSize::S16,
    ])
}

fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    prop::sample::select(vec![
        AccessPattern::Linear,
        AccessPattern::Gather,
        AccessPattern::Strided(256),
    ])
}

/// One straight-line op the generator can place in a loop body.
fn arb_op() -> impl Strategy<Value = IrOp> {
    prop_oneof![
        (1u16..24, arb_width()).prop_map(|(ops, width)| IrOp::Compute { ops, width }),
        (1u16..6, arb_width()).prop_map(|(ops, width)| IrOp::MathCompute { ops, width }),
        (1u16..8, arb_width()).prop_map(|(ops, width)| IrOp::Logic { ops, width }),
        (1u16..8, arb_width()).prop_map(|(ops, width)| IrOp::Move { ops, width }),
        (
            prop::sample::select(vec![16u32, 64, 256]),
            arb_width(),
            arb_pattern()
        )
            .prop_map(|(bytes, width, pattern)| IrOp::Load {
                arg: 1,
                bytes,
                width,
                pattern,
            }),
        (
            prop::sample::select(vec![16u32, 64]),
            arb_width(),
            arb_pattern()
        )
            .prop_map(|(bytes, width, pattern)| IrOp::Store {
                arg: 1,
                bytes,
                width,
                pattern,
            }),
    ]
}

prop_compose! {
    /// A kernel: a loop over argument 0's trip count holding a random
    /// body, part of it behind a branch on that same argument.
    fn arb_kernel()(
        body in prop::collection::vec(arb_op(), 1..5),
        guarded in prop::collection::vec(arb_op(), 0..3),
        threshold in 1u32..10,
    ) -> KernelIr {
        let mut k = KernelIr::new("prop-k", 2);
        k.body = vec![IrOp::LoopBegin { trip: TripCount::Arg(0) }];
        k.body.extend(body);
        if !guarded.is_empty() {
            k.body.push(IrOp::IfArgLt { arg: 0, value: threshold });
            k.body.extend(guarded);
            k.body.push(IrOp::EndIf);
        }
        k.body.push(IrOp::LoopEnd);
        k
    }
}

prop_compose! {
    /// A host program of 1–3 kernels launched over 1–4 sync epochs
    /// with per-launch trip counts and work sizes, so the natural
    /// schedule has launch groups to reorder.
    fn arb_program()(
        kernels in prop::collection::vec(arb_kernel(), 1..4),
        launches in prop::collection::vec(
            (0usize..3, 1u64..12, prop::sample::select(vec![16u64, 64, 200, 512])),
            1..10,
        ),
        epoch_every in 1usize..4,
    ) -> HostProgram {
        let kernels: Vec<KernelIr> = kernels
            .into_iter()
            .enumerate()
            .map(|(i, mut k)| {
                k.name = format!("prop-k{i}");
                k
            })
            .collect();
        let n = kernels.len();
        let mut b = HostScriptBuilder::new("prop-fused", ProgramSource { kernels });
        for k in 0..n {
            b.set_arg(KernelId(k as u32), 1, ArgValue::Buffer(k as u32));
        }
        for (i, (k, trip, gws)) in launches.into_iter().enumerate() {
            let k = k % n;
            b.set_arg(KernelId(k as u32), 0, ArgValue::Scalar(trip));
            b.launch(KernelId(k as u32), gws);
            if (i + 1) % epoch_every == 0 {
                b.sync(SyncCall::Finish);
            }
        }
        b.sync(SyncCall::Finish);
        b.finish().expect("well-formed program")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random synthetic programs: fused equals two-pass, and every
    /// launch's inverted counters equal the uninstrumented device's.
    #[test]
    fn fused_profile_equals_two_pass_on_random_programs(
        program in arb_program(),
        seed in 0u64..64,
        device in 0usize..3,
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let config = [
            GpuConfig::hd4000(),
            GpuConfig::hd4600(),
            GpuConfig::hd4000().with_frequency_hz(0.35e9),
        ][device];
        check(&program, with_threads(config, threads), seed)?;
    }
}

/// A one-kernel, one-launch program whose single hardware thread runs
/// a `trip`-iteration loop.
fn single_thread_program(trip: u64) -> HostProgram {
    let mut k = KernelIr::new("runaway", 1);
    k.body = vec![
        IrOp::LoopBegin {
            trip: TripCount::Arg(0),
        },
        IrOp::Compute {
            ops: 6,
            width: ExecSize::S16,
        },
        IrOp::LoopEnd,
    ];
    let mut b = HostScriptBuilder::new("runaway-app", ProgramSource { kernels: vec![k] });
    b.set_arg(KernelId(0), 0, ArgValue::Scalar(trip));
    b.launch(KernelId(0), 16);
    b.sync(SyncCall::Finish);
    b.finish().expect("well-formed program")
}

fn with_budget(thread_budget: u64) -> GpuConfig {
    let config = GpuConfig::hd4000();
    GpuConfig {
        exec: ExecConfig {
            thread_budget,
            ..config.exec
        },
        ..config
    }
}

/// A program over the instruction budget fails the fused pass with
/// the two-pass path's exact error — both when the application alone
/// overruns, and when only the probes push it over (the two-pass path
/// then failed in its instrumented replay, with the same message).
#[test]
fn runaway_programs_fail_with_the_two_pass_error() {
    let program = single_thread_program(50);
    let mut native = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
    Recording::capture(&mut native, &program, 1).expect("within the default budget");
    let native_per_thread = native.device().launches()[0].stats.instructions;

    let pinned = |budget: u64| {
        format!(
            "run failed: device error: execution fault in kernel runaway: \
             thread exceeded instruction budget of {budget}"
        )
    };
    for budget in [native_per_thread / 2, native_per_thread + 1] {
        let config = with_budget(budget);
        let fused = profile_app(&program, config, 1).expect_err("over budget");
        let reference = two_pass(&program, config, 1).expect_err("over budget");
        assert_eq!(fused.to_string(), reference.to_string());
        assert_eq!(fused.to_string(), pinned(budget));
    }
    // One instruction of headroom past the probes, and both succeed.
    let instrumented = {
        let (_, launches) = two_pass(&program, GpuConfig::hd4000(), 1).expect("runs");
        launches[0].1.instructions
    };
    assert!(instrumented > native_per_thread, "the probes add work");
    check(&program, with_budget(instrumented + 1), 1).expect("within budget");
}

/// Only block counters alone invert, and only counters a block-counter
/// rewrite can have produced.
#[test]
fn native_stats_refuses_what_it_cannot_invert() {
    let blocks = RewriteConfig::default();
    let probe = gtpin_core::rewriter::block_probe_stats();
    let mut stats = ExecutionStats::default();
    for _ in 0..3 {
        stats.merge(&probe);
    }
    assert_eq!(blocks.native_stats(&stats), Some(ExecutionStats::default()));
    for other in [
        RewriteConfig {
            time_kernels: true,
            ..blocks
        },
        RewriteConfig {
            trace_memory: true,
            ..blocks
        },
        RewriteConfig {
            naive_per_instruction_counters: true,
            ..blocks
        },
        RewriteConfig {
            count_basic_blocks: false,
            ..blocks
        },
    ] {
        assert_eq!(other.native_stats(&stats), None, "{other:?}");
    }
    let torn = ExecutionStats {
        trace_bytes: stats.trace_bytes + 1,
        ..stats
    };
    assert_eq!(blocks.native_stats(&torn), None, "partial trace message");
    let short = ExecutionStats {
        instructions: stats.instructions - 1,
        ..stats
    };
    assert_eq!(
        blocks.native_stats(&short),
        None,
        "fewer instructions than probes"
    );
}
