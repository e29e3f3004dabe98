//! Shared per-thread architectural state and instruction semantics,
//! used by both the fast functional executor and the slow detailed
//! simulator so the two can never disagree on *what* an instruction
//! does — only on how long it takes.

use gen_isa::{Instruction, Opcode, Predicate, SendOp, Src, Surface, NUM_LANES};
use ocl_runtime::api::ArgValue;

use crate::cache::Cache;
use crate::executor::DISPATCH_WIDTH;
use crate::memory::{buffer_base, synthetic_read, TraceBuffer, TRACE_MESSAGE_BYTES};
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

    /// Every lane of `src` at once, copied so a destination that
    /// aliases the source cannot change it mid-instruction.
    fn row(&self, src: Src) -> [u32; NUM_LANES] {
        match src {
            Src::Null => [0; NUM_LANES],
            Src::Reg(r) => self.regs[r.0 as usize],
            Src::Imm(v) => [v; NUM_LANES],
        }
    }

    pub fn lane_active(&self, pred: Option<Predicate>, lane: usize) -> bool {
        match pred {
            None => true,
            Some(p) => self.flags[p.flag.index()][lane] ^ p.invert,
        }
    }

    /// The lanes `pred` enables, or `None` when it enables all of them.
    fn enabled(&self, pred: Option<Predicate>) -> Option<[bool; NUM_LANES]> {
        pred.map(|p| self.flags[p.flag.index()].map(|f| f ^ p.invert))
    }
}

/// Store `vals` into the leading lanes of `row`, skipping the lanes
/// `enabled` leaves off.
fn store<T: Copy>(row: &mut [T; NUM_LANES], vals: &[T], enabled: Option<[bool; NUM_LANES]>) {
    match enabled {
        None => row[..vals.len()].copy_from_slice(vals),
        Some(on) => {
            for ((slot, &v), on) in row.iter_mut().zip(vals).zip(on) {
                if on {
                    *slot = v;
                }
            }
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

/// ALU instructions and `cmp` resolve their operands, predicate and
/// opcode once, then run one lane loop: sources load as whole rows
/// before anything is written (so `dst` may alias a source), the
/// opcode's scalar rule runs on the instruction's own width only, and
/// the predicate gates the store. Every ALU rule is pure, so computing
/// a disabled lane and dropping it equals never computing it.
fn exec_alu(st: &mut ThreadState, instr: &Instruction) {
    let Some(dst) = instr.dst else { return };
    let lanes = instr.exec_size.lanes();
    let [a, b, c] = instr.srcs.map(|src| st.row(src));
    let mut v = [0u32; NUM_LANES];
    let out = &mut v[..lanes];
    match (instr.opcode, st.enabled(instr.pred)) {
        // GEN `sel` with a predicate is a per-lane select, not a gated
        // write: every lane writes, choosing src0 where the (possibly
        // inverted) flag holds and src1 elsewhere.
        (Opcode::Sel, Some(take_first)) => {
            for (lane, o) in out.iter_mut().enumerate() {
                *o = if take_first[lane] { a[lane] } else { b[lane] };
            }
            store(&mut st.regs[dst.0 as usize], out, None);
        }
        (op, enabled) => {
            op.eval_lanes(out, &a, &b, &c);
            store(&mut st.regs[dst.0 as usize], out, enabled);
        }
    }
}

fn exec_cmp(st: &mut ThreadState, instr: &Instruction) {
    let lanes = instr.exec_size.lanes();
    let (Some(cond), Some(flag)) = (instr.cond, instr.flag) else {
        return;
    };
    // Read before the write below: the flag written may be the one
    // the predicate reads, and each lane sees its own pre-`cmp` bit.
    let enabled = st.enabled(instr.pred);
    let (a, b) = (st.row(instr.srcs[0]), st.row(instr.srcs[1]));
    let mut v = [false; NUM_LANES];
    cond.eval_lanes(&mut v[..lanes], &a, &b);
    store(&mut st.flags[flag.index()], &v[..lanes], enabled);
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
                        let mut v = [0u32; NUM_LANES];
                        let out = &mut v[..instr.exec_size.lanes()];
                        for (lane, o) in out.iter_mut().enumerate() {
                            *o = synthetic_read(addr + lane as u64 * 4);
                        }
                        let enabled = st.enabled(instr.pred);
                        store(&mut st.regs[dst.0 as usize], out, enabled);
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
            stats.trace_bytes += TRACE_MESSAGE_BYTES;
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

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::{CondMod, ExecSize, FlagReg, OpcodeCategory, Reg, SendDescriptor};

    /// The per-lane semantics the lane kernels replace: operands,
    /// predicate and opcode re-resolved for every lane, straight from
    /// the scalar `eval_*` and `CondMod::eval` rules.
    fn reference(st: &mut ThreadState, instr: &Instruction) {
        let lanes = instr.exec_size.lanes();
        match instr.opcode {
            Opcode::Cmp => {
                let (Some(cond), Some(flag)) = (instr.cond, instr.flag) else {
                    return;
                };
                for lane in 0..lanes {
                    if st.lane_active(instr.pred, lane) {
                        let (a, b) = (st.read(instr.srcs[0], lane), st.read(instr.srcs[1], lane));
                        st.flags[flag.index()][lane] = cond.eval(a, b);
                    }
                }
            }
            Opcode::Send => {
                let (Some(dst), Some(desc)) = (instr.dst, instr.send) else {
                    return;
                };
                assert_eq!((desc.surface, desc.op), (Surface::Global, SendOp::Read));
                let addr = st.read(instr.srcs[0], 0) as u64;
                for lane in 0..lanes {
                    if st.lane_active(instr.pred, lane) {
                        st.regs[dst.0 as usize][lane] = synthetic_read(addr + lane as u64 * 4);
                    }
                }
            }
            op => {
                let Some(dst) = instr.dst else { return };
                for lane in 0..lanes {
                    let v = match instr.pred {
                        Some(p) if op == Opcode::Sel => {
                            let take_first = st.flags[p.flag.index()][lane] ^ p.invert;
                            st.read(instr.srcs[if take_first { 0 } else { 1 }], lane)
                        }
                        _ if !st.lane_active(instr.pred, lane) => continue,
                        _ => {
                            let a = st.read(instr.srcs[0], lane);
                            let b = st.read(instr.srcs[1], lane);
                            let c = st.read(instr.srcs[2], lane);
                            match op.num_sources() {
                                0 | 1 => op.eval_unary(a),
                                2 => op.eval_binary(a, b),
                                _ => op.eval_ternary(a, b, c),
                            }
                        }
                    };
                    st.regs[dst.0 as usize][lane] = v;
                }
            }
        }
    }

    /// A thread whose low registers and both flags hold a mix of edge
    /// and pseudo-random lane values.
    fn seeded_state(seed: u64) -> ThreadState {
        let mut st = ThreadState::new(seed, &[]);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [0, 1, 31, 32, 0xFFFF, 0x8000_0000, u32::MAX];
        for r in 1..12 {
            for lane in 0..NUM_LANES {
                let bits = next();
                st.regs[r][lane] = if bits % 4 == 0 {
                    edges[(bits >> 8) as usize % edges.len()]
                } else {
                    (bits >> 16) as u32
                };
            }
        }
        for flag in &mut st.flags {
            for f in flag.iter_mut() {
                *f = next() & 1 == 1;
            }
        }
        st
    }

    const PREDS: [Option<Predicate>; 3] = [
        None,
        Some(Predicate {
            flag: FlagReg::F0,
            invert: false,
        }),
        Some(Predicate {
            flag: FlagReg::F1,
            invert: true,
        }),
    ];

    /// Run `instr` through `step` and through the reference on equal
    /// states, and require equal registers and flags afterwards.
    fn assert_matches_reference(instr: &Instruction, seed: u64) {
        let mut fast = seeded_state(seed);
        let mut slow = seeded_state(seed);
        let outcome = step(
            &mut fast,
            instr,
            None,
            &mut TraceBuffer::new(),
            &mut ExecutionStats::default(),
            None,
        );
        assert_eq!(outcome, StepOutcome::Next, "{instr:?}");
        reference(&mut slow, instr);
        assert!(fast.regs == slow.regs, "registers differ after {instr:?}");
        assert_eq!(fast.flags, slow.flags, "flags differ after {instr:?}");
    }

    #[test]
    fn lane_kernels_match_the_per_lane_reference() {
        let r = |i: u8| Src::Reg(Reg(i));
        // (dst, srcs): distinct registers, dst aliasing src0 or src1,
        // an immediate operand and null operands.
        let shapes = [
            (Reg(10), [r(1), r(2), r(3)]),
            (Reg(1), [r(1), r(2), r(3)]),
            (Reg(2), [r(1), r(2), r(3)]),
            (Reg(3), [r(3), r(3), r(3)]),
            (Reg(10), [r(4), Src::Imm(0x8000_0005), r(5)]),
            (Reg(10), [Src::Imm(7), r(6), Src::Null]),
            (Reg(10), [r(7), Src::Null, Src::Null]),
            (Reg(10), [Src::Null, r(8), r(9)]),
        ];
        let alu = Opcode::ALL.iter().filter(|op| {
            !op.is_send() && op.category() != OpcodeCategory::Control && **op != Opcode::Cmp
        });
        let mut seed = 0;
        for &op in alu {
            for w in ExecSize::ALL {
                for pred in PREDS {
                    for (dst, srcs) in shapes {
                        seed += 1;
                        let mut instr = Instruction::new(op, w);
                        instr.dst = Some(dst);
                        instr.srcs = srcs;
                        instr.pred = pred;
                        assert_matches_reference(&instr, seed);
                    }
                }
            }
        }
        assert!(seed > 0);
    }

    #[test]
    fn compares_match_the_per_lane_reference() {
        let conds = [
            CondMod::Eq,
            CondMod::Ne,
            CondMod::Lt,
            CondMod::Le,
            CondMod::Gt,
            CondMod::Ge,
        ];
        let mut seed = 1000;
        for cond in conds {
            for w in ExecSize::ALL {
                for pred in PREDS {
                    // f0 and f1 both written, so `+f0 → f0` and
                    // `-f1 → f1` write the flag their predicate reads.
                    for flag in [FlagReg::F0, FlagReg::F1] {
                        for srcs in [
                            [Src::Reg(Reg(1)), Src::Reg(Reg(2)), Src::Null],
                            [Src::Reg(Reg(3)), Src::Imm(0x8000_0000), Src::Null],
                            [Src::Null, Src::Reg(Reg(4)), Src::Null],
                        ] {
                            seed += 1;
                            let mut instr = Instruction::new(Opcode::Cmp, w);
                            instr.cond = Some(cond);
                            instr.flag = Some(flag);
                            instr.srcs = srcs;
                            instr.pred = pred;
                            assert_matches_reference(&instr, seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn global_reads_match_the_per_lane_reference() {
        let mut seed = 5000;
        for w in ExecSize::ALL {
            for pred in PREDS {
                // dst aliasing the address register included: the
                // address is read before any lane is written.
                for dst in [Reg(10), Reg(1)] {
                    seed += 1;
                    let mut instr = Instruction::new(Opcode::Send, w);
                    instr.dst = Some(dst);
                    instr.srcs[0] = Src::Reg(Reg(1));
                    instr.pred = pred;
                    instr.send = Some(SendDescriptor {
                        op: SendOp::Read,
                        surface: Surface::Global,
                        bytes: 4 * w.lanes() as u32,
                    });
                    assert_matches_reference(&instr, seed);
                }
            }
        }
    }
}
