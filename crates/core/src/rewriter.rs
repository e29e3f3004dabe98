//! The GT-Pin binary rewriter.
//!
//! Takes an encoded, machine-specific kernel binary (bytes), splices
//! profiling instruction sequences into it, repairs every branch
//! displacement, and re-encodes it. The injected code uses only the
//! reserved instrumentation registers `r120..r127`, so application
//! state is never perturbed (Section III-C of the paper).
//!
//! Three kinds of instrumentation are supported:
//!
//! * **basic-block counters** — three instructions at each block
//!   leader that atomically bump a per-block trace-buffer slot (one
//!   counter per block, *not* per instruction — the paper's key
//!   overhead reduction),
//! * **kernel timing** — an event-timer read at kernel entry and a
//!   timer-delta accumulation before each `eot`,
//! * **memory tracing** — a tagged trace-buffer append of the address
//!   register before every global send, feeding trace-driven cache
//!   simulation.

use gen_isa::encode::{decode_stream, encode_stream, leaders};
use gen_isa::{ExecSize, Instruction, Opcode, Reg, Src, Surface};
use gpu_device::executor::instruction_cost;
use gpu_device::memory::TRACE_MESSAGE_BYTES;
use gpu_device::ExecutionStats;
use serde::{Deserialize, Serialize};

use crate::static_info::StaticKernelInfo;

// Reserved instrumentation registers (all ≥ FIRST_INSTRUMENTATION_REG).
const R_SLOT: Reg = Reg(120);
const R_ONE: Reg = Reg(121);
const R_T0: Reg = Reg(122);
const R_T1: Reg = Reg(123);
const R_DELTA: Reg = Reg(124);
const R_TAG: Reg = Reg(125);

/// What to instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteConfig {
    /// Insert per-basic-block execution counters.
    pub count_basic_blocks: bool,
    /// Insert entry/exit timer reads accumulating per-thread cycles.
    pub time_kernels: bool,
    /// Insert address appends before every global send.
    pub trace_memory: bool,
    /// **Ablation:** count every instruction individually instead of
    /// once per basic block. Produces identical data at much higher
    /// overhead — this is the naive design the paper's per-block
    /// optimization replaces (Section III-C: "GT-Pin inserts counter
    /// increments only once per basic block rather than per
    /// instruction"). Only meaningful with `count_basic_blocks`.
    pub naive_per_instruction_counters: bool,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig {
            count_basic_blocks: true,
            time_kernels: false,
            trace_memory: false,
            naive_per_instruction_counters: false,
        }
    }
}

impl RewriteConfig {
    /// The counters a launch of the *original* binary produces,
    /// recovered from the counters of the same launch under this
    /// configuration's rewrite.
    ///
    /// The inversion is exact because the probes touch nothing the
    /// application sees: they use only the reserved registers, and
    /// their trace traffic bypasses the cache, so memory bytes, sends,
    /// cache hits and misses and hardware threads are the
    /// application's own. What the probes add is a fixed sequence per
    /// basic-block entry, and each entry sends exactly one trace
    /// message, so the device's `trace_bytes` counter says how many
    /// entries ran. Subtracting that many sequences' instructions,
    /// categories, widths and issue cycles — read off the injected
    /// instructions themselves — leaves the native counters, and the
    /// trace counters fall to zero.
    ///
    /// Returns `None` for any configuration but block counters alone
    /// (kernel timers, memory tracing and the naive ablation inject
    /// data-dependent or per-instruction code), and for counters no
    /// block-counter rewrite can have produced.
    pub fn native_stats(&self, instrumented: &ExecutionStats) -> Option<ExecutionStats> {
        let block_counters_only = self.count_basic_blocks
            && !self.time_kernels
            && !self.trace_memory
            && !self.naive_per_instruction_counters;
        if !block_counters_only {
            return None;
        }
        let probe = block_probe_stats();
        if !instrumented.trace_bytes.is_multiple_of(probe.trace_bytes) {
            return None;
        }
        let entries = instrumented.trace_bytes / probe.trace_bytes;
        if instrumented.trace_cycles != entries.checked_mul(probe.trace_cycles)? {
            return None;
        }
        let less = |have: u64, per_entry: u64| have.checked_sub(entries.checked_mul(per_entry)?);
        let mut per_category = instrumented.per_category;
        for (n, &p) in per_category.iter_mut().zip(&probe.per_category) {
            *n = less(*n, p)?;
        }
        let mut per_width = instrumented.per_width;
        for (n, &p) in per_width.iter_mut().zip(&probe.per_width) {
            *n = less(*n, p)?;
        }
        Some(ExecutionStats {
            instructions: less(instrumented.instructions, probe.instructions)?,
            per_category,
            per_width,
            issue_cycles: less(instrumented.issue_cycles, probe.issue_cycles)?,
            trace_bytes: 0,
            trace_cycles: 0,
            trace_dropped: 0,
            trace_quarantined: 0,
            trace_early_drains: 0,
            ..*instrumented
        })
    }
}

/// What one basic-block entry's counter probe adds to a launch's
/// device counters, counted from the injected instructions the way
/// the executor counts every instruction it runs.
pub fn block_probe_stats() -> ExecutionStats {
    let mut probe = ExecutionStats::default();
    for instr in counter_sequence(0) {
        let cost = instruction_cost(&instr);
        probe.count_instruction(instr.opcode.category(), instr.exec_size, cost);
        if matches!(instr.send, Some(d) if d.surface == Surface::TraceBuffer) {
            probe.trace_cycles += cost;
            probe.trace_bytes += TRACE_MESSAGE_BYTES;
        }
    }
    probe
}

/// One instrumented global-send site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendSite {
    /// Tag planted in the trace records for this site.
    pub tag: u32,
    /// Basic block containing the send.
    pub block: u32,
    /// Bytes the send moves per execution.
    pub bytes: u32,
    /// Whether the site writes (vs reads).
    pub is_write: bool,
}

/// Where a kernel's counters live in the trace buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewriteLayout {
    /// First trace-buffer slot used by this kernel.
    pub slot_base: u32,
    /// One slot per basic block, starting at `slot_base`.
    pub num_block_slots: u32,
    /// Slot accumulating per-thread kernel cycles, if timing.
    pub timer_slot: Option<u32>,
    /// Instrumented send sites, if memory tracing.
    pub send_sites: Vec<SendSite>,
}

impl RewriteLayout {
    /// Slot of basic block `bb`.
    pub fn block_slot(&self, bb: usize) -> u32 {
        self.slot_base + bb as u32
    }

    /// Total slots consumed (the next kernel's base).
    pub fn slots_used(&self) -> u32 {
        self.num_block_slots + u32::from(self.timer_slot.is_some())
    }
}

/// The result of rewriting one kernel binary.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The instrumented binary, ready for the GPU.
    pub bytes: Vec<u8>,
    /// Static tables of the *original* binary.
    pub static_info: StaticKernelInfo,
    /// Trace-buffer layout for post-processing.
    pub layout: RewriteLayout,
    /// Static instruction count after instrumentation.
    pub instrumented_instructions: u64,
}

/// Rewrite one encoded kernel binary.
///
/// `slot_base` is the first free trace-buffer slot; `tag_base` the
/// first free memory-trace tag.
///
/// # Errors
///
/// Returns a description when the binary cannot be decoded — the
/// driver surfaces it as a JIT failure.
pub fn rewrite_binary(
    bytes: &[u8],
    config: &RewriteConfig,
    slot_base: u32,
    tag_base: u32,
) -> Result<Rewritten, String> {
    let stream = decode_stream(bytes).map_err(|e| {
        gtpin_obs::warn!(
            "rewriter: undecodable kernel binary ({} bytes): {e}",
            bytes.len()
        );
        e.to_string()
    })?;
    let instrs = stream.instrs;
    let bb_starts = leaders(&instrs).map_err(|e| {
        gtpin_obs::warn!(
            "rewriter: control-flow analysis failed for `{}`: {e}",
            stream.name
        );
        e.to_string()
    })?;
    let static_info = StaticKernelInfo::analyse(&stream.name, &instrs, &bb_starts);

    let n = instrs.len();
    let mut insert_before: Vec<Vec<Instruction>> = vec![Vec::new(); n];
    let mut send_sites = Vec::new();

    if config.count_basic_blocks {
        if config.naive_per_instruction_counters {
            // Ablation: one counter bump in front of EVERY
            // instruction, attributed to its block's slot. Same
            // resulting profile, far more injected work.
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                let first_of_block = bb_starts.binary_search(&(i as u32)).is_ok();
                // The block counter still counts *entries*: bump the
                // slot only at leaders, but pay a bump-sized cost at
                // every instruction (increment a scratch register and
                // flush it at leaders), modelled here as a full
                // counter sequence at leaders and a scratch increment
                // elsewhere.
                if first_of_block {
                    let slot = slot_base + block_of(&bb_starts, i)? as u32;
                    insert_before[i].extend(counter_sequence(slot));
                } else {
                    insert_before[i].extend(scratch_increment());
                }
            }
        } else {
            for (bb, &leader) in bb_starts.iter().enumerate() {
                let slot = slot_base + bb as u32;
                insert_before[leader as usize].extend(counter_sequence(slot));
            }
        }
    }

    let timer_slot = if config.time_kernels {
        let slot = slot_base + bb_starts.len() as u32;
        // Entry: capture the timer once, after any block counter.
        if n > 0 {
            insert_before[0].push(read_timer(R_T0));
        }
        // Before every eot: capture again, accumulate the delta.
        for (i, instr) in instrs.iter().enumerate() {
            if instr.opcode == Opcode::Eot {
                insert_before[i].extend(timer_exit_sequence(slot));
            }
        }
        Some(slot)
    } else {
        None
    };

    if config.trace_memory {
        for (i, instr) in instrs.iter().enumerate() {
            let Some(desc) = instr.send else { continue };
            if desc.surface != Surface::Global {
                continue;
            }
            let tag = tag_base + send_sites.len() as u32;
            let addr_reg = match instr.srcs[0] {
                Src::Reg(r) => r,
                _ => continue,
            };
            insert_before[i].extend(trace_send_sequence(tag, addr_reg));
            send_sites.push(SendSite {
                tag,
                block: block_of(&bb_starts, i)? as u32,
                bytes: desc.bytes,
                is_write: desc.op.is_write(),
            });
        }
    }

    // Positions of original instructions in the new stream.
    let mut pos = vec![0usize; n];
    let mut cursor = 0usize;
    for i in 0..n {
        cursor += insert_before[i].len();
        pos[i] = cursor;
        cursor += 1;
    }
    let total = cursor;

    // Emit, repairing branch displacements: control transfers land on
    // the first instruction *inserted before* their target, so block
    // counters observe entries via branches too.
    let mut out: Vec<Instruction> = Vec::with_capacity(total);
    for (i, instr) in instrs.iter().enumerate() {
        out.extend(insert_before[i].iter().copied());
        let mut instr = *instr;
        if instr.opcode.is_control() && !matches!(instr.opcode, Opcode::Eot | Opcode::Ret) {
            let old_target = usize::try_from(i as i64 + 1 + i64::from(instr.branch_offset))
                .map_err(|_| branch_error(&stream.name, i, instr.branch_offset))?;
            let target_pos = *pos
                .get(old_target)
                .ok_or_else(|| branch_error(&stream.name, i, instr.branch_offset))?;
            let new_target = target_pos
                .checked_sub(insert_before[old_target].len())
                .ok_or_else(|| branch_error(&stream.name, i, instr.branch_offset))?;
            instr.branch_offset = (new_target as i64 - (pos[i] as i64 + 1)) as i32;
        }
        out.push(instr);
    }
    debug_assert_eq!(out.len(), total);

    let mut metadata = stream.metadata;
    metadata.instrumented = true;
    let bytes = encode_stream(&stream.name, &metadata, &out);

    Ok(Rewritten {
        bytes,
        static_info,
        layout: RewriteLayout {
            slot_base,
            num_block_slots: bb_starts.len() as u32,
            timer_slot,
            send_sites,
        },
        instrumented_instructions: total as u64,
    })
}

/// Basic block containing instruction `i`, or an error when `i`
/// precedes the first leader — a malformed control-flow table that
/// previously underflowed a `b - 1` here and panicked mid-rewrite.
fn block_of(bb_starts: &[u32], i: usize) -> Result<usize, String> {
    match bb_starts.binary_search(&(i as u32)) {
        Ok(b) => Ok(b),
        Err(0) => Err(format!(
            "instruction {i} precedes the first basic-block leader"
        )),
        Err(b) => Ok(b - 1),
    }
}

/// A control transfer whose repaired target falls outside the
/// instruction stream — previously an out-of-bounds index panic.
fn branch_error(kernel: &str, i: usize, offset: i32) -> String {
    format!(
        "kernel `{kernel}`: branch at instruction {i} (offset {offset}) targets outside the stream"
    )
}

/// `mov r120, slot; mov r121, 1; send.atomic_add [r120] += r121`
fn counter_sequence(slot: u32) -> [Instruction; 3] {
    [
        mov_imm(R_SLOT, slot),
        mov_imm(R_ONE, 1),
        atomic_add(R_SLOT, R_ONE),
    ]
}

/// `timer r123; sub r124, r123, r122; mov r120, slot;
/// send.atomic_add [r120] += r124`
fn timer_exit_sequence(slot: u32) -> [Instruction; 4] {
    let mut sub = Instruction::new(Opcode::Sub, ExecSize::S1);
    sub.dst = Some(R_DELTA);
    sub.srcs = [Src::Reg(R_T1), Src::Reg(R_T0), Src::Null];
    [
        read_timer(R_T1),
        sub,
        mov_imm(R_SLOT, slot),
        atomic_add(R_SLOT, R_DELTA),
    ]
}

/// `mov r125, tag; send.write trace[tag] ← addr_reg`
fn trace_send_sequence(tag: u32, addr_reg: Reg) -> [Instruction; 2] {
    let mut w = Instruction::new(Opcode::Send, ExecSize::S1);
    w.srcs[0] = Src::Reg(R_TAG);
    w.srcs[1] = Src::Reg(addr_reg);
    w.send = Some(gen_isa::SendDescriptor {
        op: gen_isa::SendOp::Write,
        surface: Surface::TraceBuffer,
        bytes: 8,
    });
    [mov_imm(R_TAG, tag), w]
}

/// `add r121, r121, 1` — the naive ablation's per-instruction cost.
fn scratch_increment() -> [Instruction; 1] {
    let mut i = Instruction::new(Opcode::Add, ExecSize::S1);
    i.dst = Some(R_ONE);
    i.srcs = [Src::Reg(R_ONE), Src::Imm(1), Src::Null];
    [i]
}

fn mov_imm(dst: Reg, v: u32) -> Instruction {
    let mut i = Instruction::new(Opcode::Mov, ExecSize::S1);
    i.dst = Some(dst);
    i.srcs[0] = Src::Imm(v);
    i
}

fn atomic_add(addr: Reg, data: Reg) -> Instruction {
    let mut i = Instruction::new(Opcode::Send, ExecSize::S1);
    i.srcs[0] = Src::Reg(addr);
    i.srcs[1] = Src::Reg(data);
    i.send = Some(gen_isa::SendDescriptor {
        op: gen_isa::SendOp::AtomicAdd,
        surface: Surface::TraceBuffer,
        bytes: 4,
    });
    i
}

fn read_timer(dst: Reg) -> Instruction {
    let mut i = Instruction::new(Opcode::Send, ExecSize::S1);
    i.dst = Some(dst);
    i.send = Some(gen_isa::SendDescriptor {
        op: gen_isa::SendOp::ReadTimer,
        surface: Surface::Scratch,
        bytes: 8,
    });
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_device::driver::decode_flat;
    use gpu_device::{Cache, CacheConfig, ExecConfig, Executor, TraceBuffer};
    use ocl_runtime::api::ArgValue;
    use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};

    fn loop_kernel_bytes(trip: u32) -> Vec<u8> {
        let mut ir = KernelIr::new("loopy", 1);
        ir.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Const(trip),
            },
            IrOp::Compute {
                ops: 5,
                width: ExecSize::S16,
            },
            IrOp::Load {
                arg: 0,
                bytes: 64,
                width: ExecSize::S16,
                pattern: AccessPattern::Linear,
            },
            IrOp::LoopEnd,
        ];
        gpu_device::jit::compile_kernel(&ir).unwrap().encode()
    }

    fn execute(
        bytes: &[u8],
        args: &[ArgValue],
        gws: u64,
    ) -> (gpu_device::ExecutionStats, TraceBuffer) {
        let flat = decode_flat(bytes).unwrap();
        let mut cache = Cache::new(CacheConfig::default());
        let mut trace = TraceBuffer::new();
        let stats = Executor {
            cache: &mut cache,
            trace: &mut trace,
            config: ExecConfig::default(),
        }
        .execute_launch(&flat, args, gws)
        .unwrap();
        (stats, trace)
    }

    #[test]
    fn counters_match_native_block_execution() {
        let bytes = loop_kernel_bytes(7);
        let rw = rewrite_binary(&bytes, &RewriteConfig::default(), 0, 0).unwrap();
        let args = [ArgValue::Buffer(0)];
        let (_, trace) = execute(&rw.bytes, &args, 32); // 2 threads

        // The loop head block must have executed trip × threads times.
        let flat = decode_flat(&bytes).unwrap();
        let total_app: u64 = (0..rw.layout.num_block_slots)
            .map(|bb| {
                trace.slot(rw.layout.block_slot(bb as usize) as usize)
                    * rw.static_info.blocks[bb as usize].instructions
            })
            .sum();
        // Reconstructed app instruction count equals a native run of
        // the ORIGINAL binary.
        let (native, _) = execute(&bytes, &args, 32);
        assert_eq!(
            total_app, native.instructions,
            "per-BB counters reconstruct instr counts"
        );
        assert!(flat.num_blocks() >= 3);
    }

    #[test]
    fn instrumentation_does_not_perturb_app_memory_traffic() {
        let bytes = loop_kernel_bytes(5);
        let rw = rewrite_binary(
            &bytes,
            &RewriteConfig {
                count_basic_blocks: true,
                time_kernels: true,
                trace_memory: true,
                naive_per_instruction_counters: false,
            },
            0,
            0,
        )
        .unwrap();
        let args = [ArgValue::Buffer(0)];
        let (orig, _) = execute(&bytes, &args, 64);
        let (inst, _) = execute(&rw.bytes, &args, 64);
        assert_eq!(inst.bytes_read, orig.bytes_read);
        assert_eq!(inst.bytes_written, orig.bytes_written);
        assert_eq!(inst.global_sends, orig.global_sends);
        assert!(
            inst.instructions > orig.instructions,
            "instrumentation adds work"
        );
    }

    #[test]
    fn timer_slot_accumulates_positive_cycles() {
        let bytes = loop_kernel_bytes(5);
        let cfg = RewriteConfig {
            count_basic_blocks: false,
            time_kernels: true,
            trace_memory: false,
            naive_per_instruction_counters: false,
        };
        let rw = rewrite_binary(&bytes, &cfg, 10, 0).unwrap();
        let slot = rw.layout.timer_slot.unwrap();
        let (_, trace) = execute(&rw.bytes, &[ArgValue::Buffer(0)], 48);
        assert!(
            trace.slot(slot as usize) > 0,
            "three threads accumulated cycles"
        );
    }

    #[test]
    fn memory_trace_records_every_global_send() {
        let bytes = loop_kernel_bytes(4);
        let cfg = RewriteConfig {
            count_basic_blocks: false,
            time_kernels: false,
            trace_memory: true,
            naive_per_instruction_counters: false,
        };
        let rw = rewrite_binary(&bytes, &cfg, 0, 100).unwrap();
        assert_eq!(rw.layout.send_sites.len(), 1);
        assert_eq!(rw.layout.send_sites[0].tag, 100);
        let (stats, trace) = execute(&rw.bytes, &[ArgValue::Buffer(0)], 16);
        assert_eq!(trace.records().len() as u64, stats.global_sends);
        assert!(trace.records().iter().all(|r| r.tag == 100));
    }

    #[test]
    fn rewritten_binary_is_marked_instrumented() {
        let bytes = loop_kernel_bytes(2);
        let rw = rewrite_binary(&bytes, &RewriteConfig::default(), 0, 0).unwrap();
        let flat = decode_flat(&rw.bytes).unwrap();
        assert!(flat.metadata.instrumented);
        assert!(rw.instrumented_instructions > rw.static_info.static_instructions);
    }

    #[test]
    fn disabled_config_is_identity_up_to_metadata() {
        let bytes = loop_kernel_bytes(2);
        let cfg = RewriteConfig {
            count_basic_blocks: false,
            time_kernels: false,
            trace_memory: false,
            naive_per_instruction_counters: false,
        };
        let rw = rewrite_binary(&bytes, &cfg, 0, 0).unwrap();
        assert_eq!(
            rw.instrumented_instructions,
            rw.static_info.static_instructions
        );
        let orig = decode_flat(&bytes).unwrap();
        let new = decode_flat(&rw.bytes).unwrap();
        assert_eq!(orig.instrs, new.instrs);
    }

    #[test]
    fn garbage_bytes_rejected() {
        assert!(rewrite_binary(b"not a kernel", &RewriteConfig::default(), 0, 0).is_err());
    }

    #[test]
    fn naive_per_instruction_counting_same_data_more_cost() {
        let bytes = loop_kernel_bytes(6);
        let args = [ArgValue::Buffer(0)];
        let per_block = rewrite_binary(&bytes, &RewriteConfig::default(), 0, 0).unwrap();
        let naive = rewrite_binary(
            &bytes,
            &RewriteConfig {
                naive_per_instruction_counters: true,
                ..RewriteConfig::default()
            },
            0,
            0,
        )
        .unwrap();
        assert!(
            naive.instrumented_instructions > per_block.instrumented_instructions,
            "naive instrumentation is strictly bigger"
        );

        // Identical block counters observed either way.
        let (_, trace_block) = execute(&per_block.bytes, &args, 48);
        let (stats_naive, trace_naive) = execute(&naive.bytes, &args, 48);
        for bb in 0..per_block.layout.num_block_slots {
            assert_eq!(
                trace_block.slot(per_block.layout.block_slot(bb as usize) as usize),
                trace_naive.slot(naive.layout.block_slot(bb as usize) as usize),
                "block {bb} counts identical under both designs"
            );
        }
        // But the naive design executed far more injected work.
        let (stats_block, _) = execute(&per_block.bytes, &args, 48);
        assert!(stats_naive.instructions > stats_block.instructions);
    }
}
