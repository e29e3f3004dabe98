//! Determinism properties of `GTPIN_FAULTS` injection at the
//! executor seams: any fault schedule (seed × site × rate × worker
//! count) yields identical results and identical drop/quarantine
//! accounting across two replays, and a zero-rate (armed-but-
//! quiescent) plan is bitwise identical to the disabled build.
//!
//! The fault registry is process-global, so every case serializes on
//! one mutex and uninstalls before returning.

use std::sync::Mutex;

use gen_isa::builder::KernelBuilder;
use gen_isa::{ExecSize, Reg, Src, Surface};
use gpu_device::memory::TraceRecord;
use gpu_device::{Cache, CacheConfig, ExecConfig, ExecutionStats, Executor, TraceBuffer};
use gtpin_faults::{site, FaultPlan};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

/// A straight-line kernel where each hardware thread appends
/// `appends` trace records and bumps one counter slot.
fn trace_kernel(appends: u32) -> gen_isa::DecodedKernel {
    let mut b = KernelBuilder::new("prop_faults");
    let e = b.entry_block();
    let blk = b.block_mut(e);
    blk.mov(ExecSize::S1, Reg(100), Src::Imm(5))
        .mov(ExecSize::S1, Reg(101), Src::Imm(1));
    for _ in 0..appends {
        blk.send_write(ExecSize::S1, Reg(100), Reg(0), Surface::TraceBuffer, 8);
    }
    blk.atomic_add(Reg(100), Reg(101), Surface::TraceBuffer)
        .eot();
    b.build().expect("valid kernel").flatten()
}

struct Trial {
    stats: ExecutionStats,
    records: Vec<TraceRecord>,
    dropped: u64,
    counter_slot: u64,
    accounting: Vec<(String, u64)>,
}

/// One full trial: install `plan` (or disable), execute, drain the
/// fault accounting.
fn trial(
    kernel: &gen_isa::DecodedKernel,
    gws: u64,
    workers: usize,
    plan: Option<&FaultPlan>,
) -> Trial {
    match plan {
        Some(p) => gtpin_faults::install(p.clone()),
        None => gtpin_faults::disable(),
    }
    let mut cache = Cache::new(CacheConfig::default());
    let mut trace = TraceBuffer::new().with_record_capacity(1 << 20);
    let stats = Executor {
        cache: &mut cache,
        trace: &mut trace,
        config: ExecConfig {
            threads: workers,
            ..Default::default()
        },
    }
    .execute_launch(kernel, &[], gws)
    .expect("launch runs");
    let accounting = gtpin_faults::take_accounting();
    gtpin_faults::disable();
    Trial {
        stats,
        records: trace.records().to_vec(),
        dropped: trace.dropped_records(),
        counter_slot: trace.slot(5),
        accounting,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two identically-seeded replays of any fault schedule agree on
    /// everything observable: stats, record stream, drop count, and
    /// the injection/recovery accounting.
    #[test]
    fn fault_schedules_replay_bit_identically(
        seed in 0u64..1_000,
        site_idx in 0usize..site::ALL.len(),
        rate in prop::sample::select(vec![0.0f64, 0.3, 1.0]),
        appends in 1u32..6,
        hw_threads in 2u64..16,
        workers in 1usize..=8,
    ) {
        let _guard = LOCK.lock().unwrap();
        let kernel = trace_kernel(appends);
        let gws = hw_threads * 16;
        let plan = FaultPlan::single(site::ALL[site_idx], rate, seed);

        let a = trial(&kernel, gws, workers, Some(&plan));
        let b = trial(&kernel, gws, workers, Some(&plan));
        prop_assert_eq!(&a.stats, &b.stats, "stats diverged across replays");
        prop_assert_eq!(&a.records, &b.records, "record stream diverged");
        prop_assert_eq!(a.dropped, b.dropped, "drop accounting diverged");
        prop_assert_eq!(a.counter_slot, b.counter_slot, "counter slot diverged");
        prop_assert_eq!(&a.accounting, &b.accounting, "fault accounting diverged");
    }

    /// An armed plan with rate zero is indistinguishable from the
    /// disabled build — the instrumentation itself perturbs nothing.
    #[test]
    fn zero_rate_is_bitwise_identical_to_disabled(
        seed in 0u64..1_000,
        appends in 1u32..6,
        hw_threads in 2u64..16,
        workers in 1usize..=8,
    ) {
        let _guard = LOCK.lock().unwrap();
        let kernel = trace_kernel(appends);
        let gws = hw_threads * 16;

        let off = trial(&kernel, gws, workers, None);
        let quiescent = trial(&kernel, gws, workers, Some(&FaultPlan::quiescent(seed)));
        prop_assert_eq!(&off.stats, &quiescent.stats, "stats diverged");
        prop_assert_eq!(&off.records, &quiescent.records, "record stream diverged");
        prop_assert_eq!(off.dropped, quiescent.dropped);
        prop_assert_eq!(off.counter_slot, quiescent.counter_slot);
        prop_assert!(
            quiescent.accounting.is_empty(),
            "a quiescent plan must fire nothing, got {:?}",
            quiescent.accounting
        );
    }
}

/// A 4-worker launch of 8 hardware threads appending 12 records each
/// (above the 8-record soft capacity an injected shard overflow
/// imposes), fault-free and then under `site` at `rate`.
fn clean_and_faulted(site: &str, rate: f64) -> (Trial, Trial) {
    let _guard = LOCK.lock().unwrap();
    let kernel = trace_kernel(12);
    let clean = trial(&kernel, 8 * 16, 4, None);
    let faulted = trial(&kernel, 8 * 16, 4, Some(&FaultPlan::single(site, rate, 42)));
    (clean, faulted)
}

fn injected(t: &Trial, site: &str) -> u64 {
    let key = format!("injected.{site}");
    t.accounting
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| *v)
}

/// `trace.shard_overflow` at rate 1.0 across 4 workers: shards
/// early-drain into the spill list and keep every record — nothing
/// dropped, the merged stream identical to the fault-free launch.
#[test]
fn shard_overflow_early_drains_without_losing_records() {
    let (clean, faulted) = clean_and_faulted(site::SHARD_OVERFLOW, 1.0);
    assert!(injected(&faulted, site::SHARD_OVERFLOW) > 0);
    assert!(faulted.stats.trace_early_drains >= 1, "{:?}", faulted.stats);
    assert_eq!(clean.stats.trace_early_drains, 0);
    assert_eq!(faulted.records, clean.records, "record stream diverged");
    assert_eq!(
        (faulted.dropped, faulted.counter_slot),
        (0, clean.counter_slot)
    );
}

/// `trace.record_corrupt`: every corrupted record is quarantined by
/// the checksum drain and only intact records reach the buffer.
/// Corruption keys are per-shard append indices, so this small
/// launch has few distinct keys; 0.3 makes the site fire.
#[test]
fn corrupt_records_are_quarantined_not_stored() {
    let (clean, faulted) = clean_and_faulted(site::RECORD_CORRUPT, 0.3);
    let corrupted = injected(&faulted, site::RECORD_CORRUPT);
    assert!(corrupted > 0, "no record corrupted");
    assert_eq!(faulted.stats.trace_quarantined, corrupted);
    assert_eq!(
        faulted.records.len() as u64,
        clean.records.len() as u64 - corrupted
    );
    assert!(faulted.records.iter().all(TraceRecord::is_valid));
}
