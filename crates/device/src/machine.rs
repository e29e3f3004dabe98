//! Shared per-thread architectural state and instruction semantics,
//! used by both the fast functional executor and the slow detailed
//! simulator so the two can never disagree on *what* an instruction
//! does — only on how long it takes.

use gen_isa::{Instruction, Opcode, Predicate, SendOp, Src, Surface, NUM_LANES};
use ocl_runtime::api::ArgValue;

use crate::cache::Cache;
use crate::executor::DISPATCH_WIDTH;
use crate::memory::{buffer_base, synthetic_read, TraceBuffer};
use crate::stats::ExecutionStats;

/// Register file, flags, and issue-cycle counter of one hardware
/// thread.
pub(crate) struct ThreadState {
    pub regs: Vec<[u32; NUM_LANES]>,
    pub flags: [[bool; NUM_LANES]; 2],
    pub issue_cycles: u64,
}

impl ThreadState {
    /// Fresh state for `thread_id`, with `r0` holding per-lane global
    /// work-item ids and argument registers broadcast.
    pub fn new(thread_id: u64, args: &[ArgValue]) -> ThreadState {
        let mut regs = vec![[0u32; NUM_LANES]; gen_isa::NUM_GRF as usize];
        for (lane, slot) in regs[0].iter_mut().enumerate() {
            *slot = (thread_id * DISPATCH_WIDTH) as u32 + lane as u32;
        }
        for (i, arg) in args.iter().enumerate() {
            let v = match arg {
                ArgValue::Scalar(s) => *s as u32,
                ArgValue::Buffer(b) => buffer_base(*b) as u32,
            };
            regs[crate::jit::ARG_REG_BASE as usize + i] = [v; NUM_LANES];
        }
        ThreadState {
            regs,
            flags: [[false; NUM_LANES]; 2],
            issue_cycles: 0,
        }
    }

    pub fn read(&self, src: Src, lane: usize) -> u32 {
        match src {
            Src::Null => 0,
            Src::Reg(r) => self.regs[r.0 as usize][lane],
            Src::Imm(v) => v,
        }
    }

    pub fn lane_active(&self, pred: Option<Predicate>, lane: usize) -> bool {
        match pred {
            None => true,
            Some(p) => self.flags[p.flag.index()][lane] ^ p.invert,
        }
    }
}

/// What executing one instruction did to control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Fall through to the next instruction.
    Next,
    /// Jump by the given displacement (relative to the next
    /// instruction).
    Branch(i32),
    /// The thread finished (`eot`).
    Done,
    /// `ret`/`call` outside a subroutine context.
    Fault,
}

/// Execute one instruction's architectural effects.
///
/// Updates registers/flags, feeds the cache and trace buffer, and
/// accounts application memory traffic in `stats`. The caller counts
/// the instruction itself and manages the instruction pointer.
///
/// `cache`, when present, takes every global-memory access and its
/// hit/miss counts land in `stats`. `access_log`, when present,
/// records every such access as `(addr, bytes)`. Two consumers replay
/// these logs against a shared cache in a fixed order: the parallel
/// executor (in hardware-thread order, per launch), whose workers
/// pass no cache at all, and the epoch-sharded detailed simulator (in
/// EU index order, per epoch barrier), whose EUs also run a scratch
/// cache because send latency depends on hit or miss. The fixed
/// replay order is what makes either produce the serial schedule's
/// hit/miss counts.
pub(crate) fn step(
    st: &mut ThreadState,
    instr: &Instruction,
    cache: Option<&mut Cache>,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    access_log: Option<&mut Vec<(u64, u32)>>,
) -> StepOutcome {
    match instr.opcode {
        Opcode::Eot => StepOutcome::Done,
        Opcode::Ret | Opcode::Call => StepOutcome::Fault,
        Opcode::Jmpi => StepOutcome::Branch(instr.branch_offset),
        Opcode::Brc => {
            if st.lane_active(instr.pred, 0) {
                StepOutcome::Branch(instr.branch_offset)
            } else {
                StepOutcome::Next
            }
        }
        Opcode::Nop => StepOutcome::Next,
        Opcode::Cmp => {
            exec_cmp(st, instr);
            StepOutcome::Next
        }
        Opcode::Send | Opcode::Sendc => {
            exec_send(st, instr, cache, trace, stats, access_log);
            StepOutcome::Next
        }
        _ => {
            exec_alu(st, instr);
            StepOutcome::Next
        }
    }
}

fn exec_alu(st: &mut ThreadState, instr: &Instruction) {
    let lanes = instr.exec_size.lanes();
    let Some(dst) = instr.dst else { return };
    // GEN `sel` with a predicate is a per-lane select, not a gated
    // write: every lane writes, choosing src0 where the (possibly
    // inverted) flag holds and src1 elsewhere.
    if instr.opcode == Opcode::Sel {
        if let Some(p) = instr.pred {
            for lane in 0..lanes {
                let take_first = st.flags[p.flag.index()][lane] ^ p.invert;
                let v = if take_first {
                    st.read(instr.srcs[0], lane)
                } else {
                    st.read(instr.srcs[1], lane)
                };
                st.regs[dst.0 as usize][lane] = v;
            }
            return;
        }
    }
    for lane in 0..lanes {
        if !st.lane_active(instr.pred, lane) {
            continue;
        }
        let a = st.read(instr.srcs[0], lane);
        let v = match instr.opcode.num_sources() {
            0 | 1 => instr.opcode.eval_unary(a),
            2 => instr.opcode.eval_binary(a, st.read(instr.srcs[1], lane)),
            _ => instr.opcode.eval_ternary(
                a,
                st.read(instr.srcs[1], lane),
                st.read(instr.srcs[2], lane),
            ),
        };
        st.regs[dst.0 as usize][lane] = v;
    }
}

fn exec_cmp(st: &mut ThreadState, instr: &Instruction) {
    let lanes = instr.exec_size.lanes();
    let (Some(cond), Some(flag)) = (instr.cond, instr.flag) else {
        return;
    };
    for lane in 0..lanes {
        if !st.lane_active(instr.pred, lane) {
            continue;
        }
        let a = st.read(instr.srcs[0], lane);
        let b = st.read(instr.srcs[1], lane);
        st.flags[flag.index()][lane] = cond.eval(a, b);
    }
}

fn exec_send(
    st: &mut ThreadState,
    instr: &Instruction,
    cache: Option<&mut Cache>,
    trace: &mut TraceBuffer,
    stats: &mut ExecutionStats,
    access_log: Option<&mut Vec<(u64, u32)>>,
) {
    let Some(desc) = instr.send else { return };
    match desc.surface {
        Surface::Global => {
            let addr = st.read(instr.srcs[0], 0) as u64;
            if !matches!(desc.op, SendOp::ReadTimer) {
                if let Some(log) = access_log {
                    log.push((addr, desc.bytes));
                }
                if let Some(cache) = cache {
                    let (hits, misses) = cache.access(addr, desc.bytes);
                    stats.cache_hits += hits as u64;
                    stats.cache_misses += misses as u64;
                }
            }
            match desc.op {
                SendOp::Read => {
                    stats.global_sends += 1;
                    stats.bytes_read += desc.bytes as u64;
                    if let Some(dst) = instr.dst {
                        for lane in 0..instr.exec_size.lanes() {
                            if st.lane_active(instr.pred, lane) {
                                st.regs[dst.0 as usize][lane] =
                                    synthetic_read(addr + lane as u64 * 4);
                            }
                        }
                    }
                }
                SendOp::Write | SendOp::AtomicAdd => {
                    stats.global_sends += 1;
                    stats.bytes_written += desc.bytes as u64;
                }
                SendOp::ReadTimer => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                    }
                }
            }
        }
        Surface::TraceBuffer => {
            let addr = st.read(instr.srcs[0], 0);
            let data = st.read(instr.srcs[1], 0);
            // Every trace-buffer message is an uncached round trip to
            // CPU-visible memory (one line's worth of traffic).
            stats.trace_bytes += 64;
            match desc.op {
                SendOp::AtomicAdd => trace.slot_add(addr as usize, data as u64),
                SendOp::Write => trace.append(addr, data as u64),
                SendOp::Read => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = trace.slot(addr as usize) as u32;
                    }
                }
                SendOp::ReadTimer => {
                    if let Some(dst) = instr.dst {
                        st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                    }
                }
            }
        }
        Surface::Scratch => {
            if desc.op == SendOp::ReadTimer {
                if let Some(dst) = instr.dst {
                    st.regs[dst.0 as usize][0] = st.issue_cycles as u32;
                }
            }
        }
    }
}
