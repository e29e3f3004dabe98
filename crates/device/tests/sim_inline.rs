//! Wherever the pool runs the detailed simulator's epoch fan-out
//! inline — nested inside a pool task, or on an OS thread that finds
//! the pool busy with another caller — the result is still the serial
//! one, and `par.inline_fanouts` shows the inline path ran. Its own
//! test binary, because telemetry is switched on for the whole
//! process.

use std::sync::{Barrier, Mutex};

use gen_isa::ExecSize;
use gpu_device::detailed::{DetailedConfig, DetailedResult, DetailedSimulator};
use gpu_device::GpuGeneration;
use ocl_runtime::api::ArgValue;
use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};

fn simulate(workers: usize) -> DetailedResult {
    let mut ir = KernelIr::new("sim-inline", 1);
    let load = IrOp::Load {
        arg: 0,
        bytes: 64,
        width: ExecSize::S16,
        pattern: AccessPattern::Gather,
    };
    let trip = TripCount::Const(9);
    ir.body = vec![IrOp::LoopBegin { trip }, load, IrOp::LoopEnd];
    let kernel = gpu_device::jit::compile_kernel(&ir)
        .expect("compiles")
        .flatten();
    let config = DetailedConfig {
        epoch_cycles: 1024,
        ..Default::default()
    };
    DetailedSimulator::new(GpuGeneration::IvyBridgeHd4000.topology(), 1.15e9, config)
        .with_workers(workers)
        .simulate_launch(&kernel, &[ArgValue::Buffer(0)], 40 * 16)
        .expect("simulates")
}

fn inline_fanouts() -> u64 {
    let snap = gtpin_obs::global().snapshot();
    snap.counters
        .get("par.inline_fanouts")
        .copied()
        .unwrap_or(0)
}

#[test]
fn simulation_matches_serial_when_the_pool_runs_it_inline() {
    let dir = std::env::temp_dir().join(format!("gtpin-sim-inline-{}", std::process::id()));
    std::env::set_var(gtpin_obs::OBS_DIR_ENV, &dir);
    assert!(gtpin_obs::force_enable(), "telemetry is on");
    let serial = simulate(1);
    assert_eq!(inline_fanouts(), 0, "one worker never asks the pool");

    // Three simulations nested in pool tasks: every epoch fan-out of
    // each runs inline, so each adds its epoch count.
    let nested = gtpin_par::parallel_indexed(3, 2, |_| simulate(4));
    for (task, r) in nested.iter().enumerate() {
        assert_eq!(r, &serial, "nested, task {task}");
    }
    let nested_fanouts = inline_fanouts();
    assert!(nested_fanouts > 0 && nested_fanouts.is_multiple_of(3));
    let epochs = nested_fanouts / 3;

    // The test thread holds the pool with a two-worker fan-out and
    // simulates inside it (nested); meanwhile a second OS thread
    // simulates too and finds the pool busy. Both run every epoch
    // inline.
    let (both_started, both_done) = (Barrier::new(2), Barrier::new(2));
    let contend = || {
        both_started.wait();
        let r = simulate(4);
        both_done.wait();
        r
    };
    std::thread::scope(|s| {
        let busy = s.spawn(contend);
        let holder = Mutex::new(None);
        gtpin_par::fan_out(2, |w| {
            if w == 0 {
                *holder.lock().expect("not poisoned") = Some(contend());
            }
        });
        let held = holder.into_inner().expect("not poisoned");
        assert_eq!(held.as_ref(), Some(&serial), "nested in a held pool");
        assert_eq!(busy.join().expect("simulates"), serial, "pool busy");
    });
    assert_eq!(
        inline_fanouts() - nested_fanouts,
        2 * epochs,
        "the held and the busy simulation each ran every epoch inline"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
