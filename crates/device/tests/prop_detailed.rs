//! Determinism properties of the epoch-sharded detailed simulator:
//! the sharded run must be bitwise identical to the serial run —
//! cycles, stall/occupancy figures, `ExecutionStats` — at every
//! worker count from 1 to 8, for arbitrary kernels, work sizes, and
//! epoch lengths, and also while the fault registry is armed but
//! quiescent.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gen_isa::ExecSize;
use gpu_device::detailed::{DetailedConfig, DetailedSimulator};
use gpu_device::GpuGeneration;
use ocl_runtime::api::ArgValue;
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};
use proptest::prelude::*;

/// The faults registry is process-global and two tests here arm it;
/// a sibling simulating concurrently during an armed window would
/// take injections and pollute the drained accounting. Every test
/// takes this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One loop body op the generator can pick.
fn arb_op() -> impl Strategy<Value = IrOp> {
    prop_oneof![
        (1u16..24, arb_width()).prop_map(|(ops, width)| IrOp::Compute { ops, width }),
        (1u16..6, arb_width()).prop_map(|(ops, width)| IrOp::MathCompute { ops, width }),
        (
            prop::sample::select(vec![16u32, 64, 256]),
            arb_width(),
            arb_pattern()
        )
            .prop_map(|(bytes, width, pattern)| IrOp::Load {
                arg: 0,
                bytes,
                width,
                pattern,
            }),
    ]
}

fn arb_width() -> impl Strategy<Value = ExecSize> {
    prop::sample::select(vec![ExecSize::S1, ExecSize::S8, ExecSize::S16])
}

fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    prop::sample::select(vec![
        AccessPattern::Linear,
        AccessPattern::Gather,
        AccessPattern::Strided(256),
    ])
}

prop_compose! {
    /// A kernel of 1–5 loop-body ops with an arbitrary trip count,
    /// plus a global work size spanning "fewer threads than EUs"
    /// through "several SMT rounds per EU".
    fn arb_launch()(
        body in prop::collection::vec(arb_op(), 1..5),
        trip in 1u64..12,
        hw_threads in 1u64..96,
        epoch_cycles in prop::sample::select(vec![64u64, 1024, 8192]),
    ) -> (gen_isa::DecodedKernel, u64, u64) {
        let mut ir = KernelIr::new("prop-detailed", 1);
        ir.body = vec![IrOp::LoopBegin { trip: TripCount::Const(trip as u32) }];
        ir.body.extend(body);
        ir.body.push(IrOp::LoopEnd);
        let kernel = gpu_device::jit::compile_kernel(&ir)
            .expect("compiles")
            .flatten();
        (kernel, hw_threads * 16, epoch_cycles)
    }
}

fn run(
    kernel: &gen_isa::DecodedKernel,
    gws: u64,
    epoch_cycles: u64,
    workers: usize,
) -> gpu_device::detailed::DetailedResult {
    let config = DetailedConfig {
        epoch_cycles,
        ..Default::default()
    };
    let mut sim = DetailedSimulator::new(GpuGeneration::IvyBridgeHd4000.topology(), 1.15e9, config)
        .with_workers(workers);
    sim.simulate_launch(kernel, &[ArgValue::Buffer(0)], gws)
        .expect("simulates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded detailed simulation is worker-count invariant:
    /// bitwise identical results at 1..=8 workers.
    #[test]
    fn sharded_simulation_is_worker_count_invariant(
        launch in arb_launch(),
    ) {
        let _guard = guard();
        let (kernel, gws, epoch_cycles) = launch;
        let serial = run(&kernel, gws, epoch_cycles, 1);
        prop_assert!(serial.occupancy() > 0.0, "launch did real work");
        for workers in 2..=8usize {
            let par = run(&kernel, gws, epoch_cycles, workers);
            prop_assert_eq!(&par, &serial, "workers = {}", workers);
            prop_assert_eq!(
                par.seconds.to_bits(),
                serial.seconds.to_bits(),
                "seconds bits at {} workers", workers
            );
        }
    }

    /// An armed-but-quiescent fault registry (every instrumented seam
    /// runs its check path, nothing fires) perturbs nothing: results
    /// stay bit-identical to the unarmed run at every worker count.
    #[test]
    fn quiescent_faults_do_not_perturb_sharded_simulation(
        launch in arb_launch(),
        seed in 0u64..1_000,
    ) {
        let (kernel, gws, epoch_cycles) = launch;
        let _guard = guard();
        let unarmed = run(&kernel, gws, epoch_cycles, 1);
        gtpin_faults::install(gtpin_faults::FaultPlan::quiescent(seed));
        let armed: Vec<_> = (1..=8usize)
            .map(|workers| run(&kernel, gws, epoch_cycles, workers))
            .collect();
        let fired = gtpin_faults::take_accounting();
        gtpin_faults::disable();
        prop_assert!(fired.is_empty(), "quiescent plan fired: {:?}", fired);
        for (i, r) in armed.iter().enumerate() {
            prop_assert_eq!(r, &unarmed, "workers = {}", i + 1);
        }
    }
}

/// Injected shard deaths at every rate degrade to the serial result:
/// the `sim.shard` site kills parallel epochs, the launch re-runs
/// serially, and nothing observable changes except the recovery
/// accounting — which is itself the same at every worker count.
#[test]
fn shard_fault_rates_never_change_results() {
    let _guard = guard();
    let mut ir = KernelIr::new("prop-detailed-faults", 1);
    ir.body = vec![
        IrOp::LoopBegin {
            trip: TripCount::Const(9),
        },
        IrOp::Compute {
            ops: 7,
            width: ExecSize::S16,
        },
        IrOp::Load {
            arg: 0,
            bytes: 64,
            width: ExecSize::S16,
            pattern: AccessPattern::Gather,
        },
        IrOp::LoopEnd,
    ];
    let kernel = gpu_device::jit::compile_kernel(&ir)
        .expect("compiles")
        .flatten();
    let baseline = run(&kernel, 40 * 16, 1024, 1);
    for rate in [0.05, 0.5, 1.0] {
        gtpin_faults::install(gtpin_faults::FaultPlan::single(
            gtpin_faults::site::SIM_SHARD,
            rate,
            0xD15C,
        ));
        let mut accounting = Vec::new();
        for workers in 2..=6usize {
            let degraded = run(&kernel, 40 * 16, 1024, workers);
            assert_eq!(degraded, baseline, "rate = {rate}, workers = {workers}");
            let acc: BTreeMap<String, u64> = gtpin_faults::take_accounting().into_iter().collect();
            let count = |key: &str| acc.get(key).copied().unwrap_or(0);
            accounting.push((
                count("injected.sim.shard"),
                count("recovered.sim_serial_fallback"),
            ));
        }
        gtpin_faults::disable();
        assert!(
            accounting.iter().all(|a| *a == accounting[0]),
            "rate = {rate}: accounting moved with the worker count: {accounting:?}"
        );
        if rate == 1.0 {
            assert!(accounting[0].1 >= 1, "rate 1.0 must fall back");
        }
    }
}
