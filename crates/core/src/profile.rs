//! Profiling data structures: what GT-Pin's post-processing produces
//! from the trace buffer, and what characterization and subset
//! selection consume.

use gen_isa::{ExecSize, OpcodeCategory};
use serde::{Deserialize, Serialize};

use crate::rewriter::block_probe_stats;
use crate::static_info::StaticKernelInfo;

/// Everything GT-Pin learned about one kernel invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationProfile {
    /// Launch order position (matches
    /// [`ocl_runtime::cofluent::InvocationTiming::index`]).
    pub launch_index: u32,
    /// Index of the kernel in the program.
    pub kernel_index: u32,
    /// Kernel name.
    pub kernel_name: String,
    /// Global work size of the launch.
    pub global_work_size: u64,
    /// Digest of the bound argument values.
    pub args_digest: u64,
    /// Dynamic execution count per static basic block (from the
    /// injected per-block counters).
    pub bb_counts: Vec<u64>,
    /// Application dynamic instructions, reconstructed as
    /// Σ block-count × static block size.
    pub instructions: u64,
    /// Dynamic instructions per opcode category.
    pub per_category: [u64; 5],
    /// Dynamic instructions per SIMD width.
    pub per_width: [u64; 5],
    /// Application bytes read, reconstructed statically.
    pub bytes_read: u64,
    /// Application bytes written.
    pub bytes_written: u64,
    /// Accumulated per-thread kernel cycles, when the timer tool ran.
    pub thread_cycles: Option<u64>,
    /// `(site tag, address)` pairs, when memory tracing ran.
    pub mem_trace: Vec<(u32, u64)>,
    /// Trace records dropped at capacity during this launch. Zero in
    /// healthy runs; non-zero marks this invocation's trace as
    /// incomplete for downstream consumers.
    pub dropped_records: u64,
    /// Corrupted trace records quarantined during this launch. Zero
    /// in healthy runs; non-zero marks the interval for exclusion
    /// from subset selection.
    pub quarantined_records: u64,
}

impl InvocationProfile {
    /// Whether this invocation's trace lost or quarantined records —
    /// selection skips degraded intervals and renormalizes weights.
    pub fn is_degraded(&self) -> bool {
        self.dropped_records > 0 || self.quarantined_records > 0
    }
}

impl InvocationProfile {
    /// Total dynamic basic-block executions.
    pub fn bb_executions(&self) -> u64 {
        self.bb_counts.iter().sum()
    }
}

/// Instrumentation overhead accounting for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelOverhead {
    /// Static instructions before rewriting.
    pub original_static: u64,
    /// Static instructions after rewriting.
    pub instrumented_static: u64,
}

/// The full profile of one program execution under GT-Pin.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgramProfile {
    /// Application name (filled by the caller; the device does not
    /// know it).
    pub app: String,
    /// Static tables per kernel, in program order.
    pub kernels: Vec<StaticKernelInfo>,
    /// Per-kernel overhead accounting.
    pub overheads: Vec<KernelOverhead>,
    /// One record per kernel invocation, in launch order.
    pub invocations: Vec<InvocationProfile>,
}

impl ProgramProfile {
    /// Unique kernels in the program (Figure 3b).
    pub fn unique_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Unique static basic blocks across kernels (Figure 3b).
    pub fn unique_basic_blocks(&self) -> usize {
        self.kernels.iter().map(StaticKernelInfo::num_blocks).sum()
    }

    /// Kernel invocation count (Figure 3c).
    pub fn num_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// Total dynamic basic-block executions (Figure 3c).
    pub fn total_bb_executions(&self) -> u64 {
        self.invocations
            .iter()
            .map(InvocationProfile::bb_executions)
            .sum()
    }

    /// Total dynamic application instructions (Figure 3c).
    pub fn total_instructions(&self) -> u64 {
        self.invocations.iter().map(|i| i.instructions).sum()
    }

    /// Total application bytes read (Figure 4c).
    pub fn total_bytes_read(&self) -> u64 {
        self.invocations.iter().map(|i| i.bytes_read).sum()
    }

    /// Total application bytes written (Figure 4c).
    pub fn total_bytes_written(&self) -> u64 {
        self.invocations.iter().map(|i| i.bytes_written).sum()
    }

    /// Dynamic fraction of instructions in `category` (Figure 4a).
    pub fn category_fraction(&self, category: OpcodeCategory) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            return 0.0;
        }
        let idx = OpcodeCategory::ALL
            .iter()
            .position(|&c| c == category)
            .expect("in ALL");
        let n: u64 = self.invocations.iter().map(|i| i.per_category[idx]).sum();
        n as f64 / total as f64
    }

    /// Dynamic fraction of instructions at `width` (Figure 4b).
    pub fn width_fraction(&self, width: ExecSize) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            return 0.0;
        }
        let idx = ExecSize::ALL
            .iter()
            .position(|&w| w == width)
            .expect("in ALL");
        let n: u64 = self.invocations.iter().map(|i| i.per_width[idx]).sum();
        n as f64 / total as f64
    }

    /// Aggregate static→dynamic instrumentation overhead estimate:
    /// instrumented dynamic instructions ÷ original dynamic
    /// instructions, where every block execution ran one counter
    /// probe of [`block_probe_stats`]`().instructions` instructions.
    pub fn dynamic_overhead_factor(&self) -> f64 {
        let app = self.total_instructions();
        if app == 0 {
            if !self.invocations.is_empty() {
                gtpin_obs::warn!(
                    "profile `{}` recorded {} invocations but zero dynamic instructions; overhead factor defaults to 1.0",
                    self.app,
                    self.invocations.len()
                );
            }
            return 1.0;
        }
        let injected = self.total_bb_executions() * block_probe_stats().instructions;
        (app + injected) as f64 / app as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_info::BlockStaticInfo;

    fn profile() -> ProgramProfile {
        let block = |instrs: u64| BlockStaticInfo {
            instructions: instrs,
            per_category: [instrs, 0, 0, 0, 0],
            per_width: [0, 0, 0, 0, instrs],
            bytes_read: 8,
            bytes_written: 0,
            global_sends: 1,
        };
        ProgramProfile {
            app: "t".into(),
            kernels: vec![StaticKernelInfo {
                name: "k".into(),
                static_instructions: 7,
                blocks: vec![block(3), block(4)],
            }],
            overheads: vec![KernelOverhead {
                original_static: 7,
                instrumented_static: 13,
            }],
            invocations: vec![InvocationProfile {
                launch_index: 0,
                kernel_index: 0,
                kernel_name: "k".into(),
                global_work_size: 64,
                args_digest: 1,
                bb_counts: vec![10, 5],
                instructions: 10 * 3 + 5 * 4,
                per_category: [50, 0, 0, 0, 0],
                per_width: [0, 0, 0, 0, 50],
                bytes_read: 10 * 8 + 5 * 8,
                bytes_written: 0,
                thread_cycles: None,
                mem_trace: Vec::new(),
                dropped_records: 0,
                quarantined_records: 0,
            }],
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let p = profile();
        assert_eq!(p.unique_kernels(), 1);
        assert_eq!(p.unique_basic_blocks(), 2);
        assert_eq!(p.num_invocations(), 1);
        assert_eq!(p.total_bb_executions(), 15);
        assert_eq!(p.total_instructions(), 50);
        assert_eq!(p.total_bytes_read(), 120);
        assert!((p.category_fraction(OpcodeCategory::Move) - 1.0).abs() < 1e-12);
        assert!((p.width_fraction(ExecSize::S16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_factor_counts_three_per_block_entry() {
        let p = profile();
        // 50 app instrs + 15 block entries × 3 = 95 → 1.9×.
        assert!((p.dynamic_overhead_factor() - 1.9).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_benign() {
        let p = ProgramProfile::default();
        assert_eq!(p.total_instructions(), 0);
        assert_eq!(p.category_fraction(OpcodeCategory::Send), 0.0);
        assert_eq!(p.dynamic_overhead_factor(), 1.0);
    }
}
