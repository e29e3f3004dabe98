//! Memory surfaces: synthetic global memory and the GT-Pin trace
//! buffer.
//!
//! Global memory is *synthetic*: reads return a deterministic hash of
//! the address and writes are accounted but not stored. Profiling
//! fidelity does not depend on loaded data (kernel control flow is
//! driven by arguments), and this keeps full-program execution cheap.
//! The **trace buffer is real storage**: GT-Pin's injected
//! instructions atomically accumulate counters and append records
//! into it, and the tool's results are whatever those instructions
//! wrote — the same contract as the paper's CPU/GPU-shared buffer
//! (Section III-A).

use serde::{Deserialize, Serialize};

/// Bytes of uncached traffic one trace-buffer message moves: every
/// send to the trace buffer is a round trip of one cache line to
/// CPU-visible memory, whatever its payload.
pub const TRACE_MESSAGE_BYTES: u64 = 64;

/// Deterministic value returned by a synthetic global-memory read.
pub fn synthetic_read(addr: u64) -> u32 {
    let mut v = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    v ^= v >> 29;
    v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v ^= v >> 32;
    v as u32
}

/// Base address of the memory region backing buffer `index`.
/// Buffers live in disjoint 4 MiB regions.
pub fn buffer_base(index: u32) -> u64 {
    0x1000_0000 + ((index as u64) << 22)
}

/// One appended trace record (used by memory-trace and latency
/// instrumentation).
///
/// Carries a checksum over `(tag, value)` so the CPU-side drain can
/// detect records corrupted in flight (the shared-buffer hazard of
/// Section III) and quarantine them instead of feeding garbage to the
/// tools. Records built through [`TraceRecord::new`] are always
/// valid; corruption (injected or real) leaves the checksum stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Record tag chosen by the tool that planted the instrumentation.
    pub tag: u32,
    /// Payload (an address, a timer delta, ...).
    pub value: u64,
    /// Integrity checksum over `(tag, value)`.
    pub checksum: u32,
}

impl TraceRecord {
    /// A record with a checksum matching its content.
    pub fn new(tag: u32, value: u64) -> TraceRecord {
        TraceRecord {
            tag,
            value,
            checksum: TraceRecord::checksum_of(tag, value),
        }
    }

    fn checksum_of(tag: u32, value: u64) -> u32 {
        let mut z = ((tag as u64) << 32) ^ value.rotate_left(17);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    }

    /// Does the checksum still match the content?
    pub fn is_valid(&self) -> bool {
        self.checksum == TraceRecord::checksum_of(self.tag, self.value)
    }
}

/// The CPU/GPU-shared trace buffer: a slot array of 64-bit counters
/// plus an append stream of records.
///
/// Counter slots are written by `send.atomic_add` messages targeting
/// [`Surface::TraceBuffer`](gen_isa::Surface::TraceBuffer); the
/// append stream by `send.write` messages on the same surface. The
/// CPU side (GT-Pin post-processing) drains both after each kernel
/// completes.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Vec<u64>,
    records: Vec<TraceRecord>,
    record_cap: usize,
    dropped_records: u64,
    /// Total `append` attempts, stored or not — the left-hand side of
    /// the conservation invariant `appended == stored + dropped`.
    appended: u64,
    /// Early-drain threshold (the injected "shard overflow" point).
    /// When the live stream reaches it, records spill to `spilled`
    /// instead of being dropped: graceful degradation, not data loss.
    soft_cap: usize,
    /// Records preserved by early drains, in append order. Only
    /// shards ever spill; `merge_shard` replays spill-then-live so
    /// the merged stream is identical to a no-overflow run.
    spilled: Vec<TraceRecord>,
    early_drains: u64,
    /// Mixed into record-corruption fault keys so each shard (and the
    /// serial buffer) draws an independent, replayable decision
    /// stream.
    fault_salt: u64,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new()
    }
}

impl TraceBuffer {
    /// An empty buffer with the default record capacity.
    pub fn new() -> TraceBuffer {
        TraceBuffer {
            slots: Vec::new(),
            records: Vec::new(),
            record_cap: 1 << 20,
            dropped_records: 0,
            appended: 0,
            soft_cap: usize::MAX,
            spilled: Vec::new(),
            early_drains: 0,
            fault_salt: 0,
        }
    }

    /// Set the append-stream capacity (records beyond it are dropped
    /// and counted, as a bounded hardware buffer would).
    pub fn with_record_capacity(mut self, cap: usize) -> TraceBuffer {
        self.record_cap = cap;
        self
    }

    /// Set the early-drain threshold: once the live stream holds
    /// `cap` records they are drained to the spill area (counted in
    /// [`early_drains`](Self::early_drains)) rather than dropped.
    /// Used by the executor when the shard-overflow fault fires.
    pub fn with_soft_capacity(mut self, cap: usize) -> TraceBuffer {
        self.soft_cap = cap.max(1);
        self
    }

    /// Set the salt mixed into record-corruption fault keys.
    pub fn with_fault_salt(mut self, salt: u64) -> TraceBuffer {
        self.fault_salt = salt;
        self
    }

    /// GPU side: atomically add `value` to counter slot `slot`,
    /// growing the slot array on demand.
    pub fn slot_add(&mut self, slot: usize, value: u64) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, 0);
        }
        self.slots[slot] += value;
    }

    /// GPU side: append a record to the stream.
    ///
    /// Every attempt is counted in `appended`; a record either lands
    /// in the live stream, spills via an early drain, or is dropped
    /// and counted — never silently lost. The two fault hooks here
    /// (record corruption, shard overflow via `soft_cap`) cost one
    /// never-taken branch each when `GTPIN_FAULTS` is unset.
    pub fn append(&mut self, tag: u32, value: u64) {
        self.appended += 1;
        let mut record = TraceRecord::new(tag, value);
        if gtpin_faults::should_inject(
            gtpin_faults::site::RECORD_CORRUPT,
            self.fault_salt ^ self.appended,
        ) {
            // Flip payload bits; the checksum goes stale, which is
            // exactly what the CPU-side quarantine keys on.
            record.value ^= 0xDEAD_BEEF_0BAD_F00D;
        }
        if self.records.len() >= self.soft_cap {
            // Shard overflow: drain early into the spill area. The
            // records survive; only the buffer-full *drop* path below
            // loses data.
            self.spilled.append(&mut self.records);
            self.early_drains += 1;
        }
        if self.spilled.len() + self.records.len() < self.record_cap {
            self.records.push(record);
        } else {
            self.dropped_records += 1;
        }
    }

    /// CPU side: read a counter slot (0 if never written).
    pub fn slot(&self, slot: usize) -> u64 {
        self.slots.get(slot).copied().unwrap_or(0)
    }

    /// CPU side: the record stream.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records dropped because the stream was full.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Total append attempts (stored + spilled + dropped).
    pub fn appended_records(&self) -> u64 {
        self.appended
    }

    /// Early drains taken because the soft capacity was hit.
    pub fn early_drains(&self) -> u64 {
        self.early_drains
    }

    /// The append-stream capacity.
    pub fn record_capacity(&self) -> usize {
        self.record_cap
    }

    /// Merge a per-hardware-thread shard into this (shared) buffer —
    /// the drain step of sharded parallel execution. The epoch-sharded
    /// detailed simulator drains the same way, one shard per EU merged
    /// in EU index order at launch end.
    ///
    /// Counter slots add element-wise (addition commutes, but shards
    /// are merged in hardware-thread order anyway); records append in
    /// shard order under this buffer's capacity. Called in thread
    /// order with each shard's capacity equal to this buffer's, the
    /// result is exactly the serial execution's buffer: a record the
    /// shard dropped had ≥ `record_cap` same-thread predecessors, so
    /// the serial path (which sees at least those predecessors first)
    /// would have dropped it too, and the drop counts telescope.
    pub fn merge_shard(&mut self, shard: TraceBuffer) {
        // Match serial slot growth: `slot_add` resizes even for
        // zero-valued adds, and every slot in the shard was touched.
        if shard.slots.len() > self.slots.len() {
            self.slots.resize(shard.slots.len(), 0);
        }
        for (dst, v) in self.slots.iter_mut().zip(&shard.slots) {
            *dst += v;
        }
        // Spilled records precede the live stream in append order, so
        // an early-drained shard merges to exactly the stream a
        // no-overflow shard would have produced.
        for r in shard.spilled.into_iter().chain(shard.records) {
            if self.records.len() < self.record_cap {
                self.records.push(r);
            } else {
                self.dropped_records += 1;
            }
        }
        self.dropped_records += shard.dropped_records;
        self.appended += shard.appended;
        self.early_drains += shard.early_drains;
    }

    #[cfg(test)]
    fn records_mut_for_tests(&mut self) -> &mut [TraceRecord] {
        &mut self.records
    }

    /// Number of live counter slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// CPU side: drop every invalid (checksum-stale) record at index
    /// `from` or later, preserving order, and return how many were
    /// quarantined. The drain step runs this before any tool sees the
    /// stream, so corrupted records degrade to an honest count rather
    /// than poisoning the profile.
    pub fn quarantine_invalid(&mut self, from: usize) -> u64 {
        let start = from.min(self.records.len());
        let mut write = start;
        for read in start..self.records.len() {
            if self.records[read].is_valid() {
                self.records[write] = self.records[read];
                write += 1;
            }
        }
        let removed = self.records.len() - write;
        self.records.truncate(write);
        removed as u64
    }

    /// CPU side: zero the counters and clear the stream, ready for
    /// the next kernel invocation.
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
        self.records.clear();
        self.dropped_records = 0;
        self.appended = 0;
        self.spilled.clear();
        self.early_drains = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_reads_are_deterministic_and_spread() {
        assert_eq!(synthetic_read(42), synthetic_read(42));
        assert_ne!(synthetic_read(42), synthetic_read(43));
    }

    #[test]
    fn buffer_bases_do_not_overlap() {
        let a = buffer_base(0);
        let b = buffer_base(1);
        assert!(b >= a + (1 << 22), "4 MiB regions: {a:#x} vs {b:#x}");
    }

    #[test]
    fn slots_grow_on_demand_and_accumulate() {
        let mut t = TraceBuffer::new();
        t.slot_add(5, 3);
        t.slot_add(5, 4);
        assert_eq!(t.slot(5), 7);
        assert_eq!(t.slot(0), 0);
        assert_eq!(t.slot(99), 0, "unwritten slots read as zero");
        assert_eq!(t.num_slots(), 6);
    }

    #[test]
    fn record_stream_bounded() {
        let mut t = TraceBuffer::new().with_record_capacity(2);
        t.append(1, 10);
        t.append(1, 11);
        t.append(1, 12);
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped_records(), 1);
    }

    #[test]
    fn merge_shard_matches_serial_interleaving() {
        // Serial: thread 0 then thread 1 write directly.
        let mut serial = TraceBuffer::new().with_record_capacity(3);
        serial.slot_add(1, 5);
        serial.append(0, 100);
        serial.append(0, 101);
        serial.slot_add(4, 2);
        serial.append(1, 200);
        serial.append(1, 201); // dropped: cap 3

        // Sharded: each thread fills its own buffer, merged in order.
        let mut merged = TraceBuffer::new().with_record_capacity(3);
        let mut s0 = TraceBuffer::new().with_record_capacity(3);
        s0.slot_add(1, 5);
        s0.append(0, 100);
        s0.append(0, 101);
        let mut s1 = TraceBuffer::new().with_record_capacity(3);
        s1.slot_add(4, 2);
        s1.append(1, 200);
        s1.append(1, 201);
        merged.merge_shard(s0);
        merged.merge_shard(s1);

        assert_eq!(merged.num_slots(), serial.num_slots());
        for s in 0..serial.num_slots() {
            assert_eq!(merged.slot(s), serial.slot(s));
        }
        assert_eq!(merged.records(), serial.records());
        assert_eq!(merged.dropped_records(), serial.dropped_records());
    }

    #[test]
    fn merge_shard_counts_shard_local_drops() {
        // A shard that overflowed its own (equal) capacity: drops
        // carry over on top of merge-time drops.
        let mut shared = TraceBuffer::new().with_record_capacity(2);
        shared.append(9, 0);
        let mut shard = TraceBuffer::new().with_record_capacity(2);
        shard.append(1, 1);
        shard.append(1, 2);
        shard.append(1, 3); // shard-local drop
        shared.merge_shard(shard);
        assert_eq!(shared.records().len(), 2);
        assert_eq!(
            shared.dropped_records(),
            2,
            "one merge-time + one shard-local"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = TraceBuffer::new();
        t.slot_add(2, 9);
        t.append(7, 1);
        t.reset();
        assert_eq!(t.slot(2), 0);
        assert!(t.records().is_empty());
        assert_eq!(t.dropped_records(), 0);
        assert_eq!(t.appended_records(), 0);
        assert_eq!(t.early_drains(), 0);
    }

    #[test]
    fn appends_are_conserved() {
        let mut t = TraceBuffer::new().with_record_capacity(3);
        for v in 0..7 {
            t.append(1, v);
        }
        assert_eq!(t.appended_records(), 7);
        assert_eq!(t.records().len() as u64 + t.dropped_records(), 7);
    }

    #[test]
    fn soft_cap_spills_without_losing_records() {
        // A shard that early-drains at 2 merges to the same stream a
        // plain shard produces — overflow degrades gracefully.
        let mut plain = TraceBuffer::new().with_record_capacity(16);
        let mut soft = TraceBuffer::new()
            .with_record_capacity(16)
            .with_soft_capacity(2);
        for v in 0..9 {
            plain.append(4, v);
            soft.append(4, v);
        }
        assert!(soft.early_drains() >= 1);
        assert_eq!(soft.dropped_records(), 0);
        let mut from_plain = TraceBuffer::new().with_record_capacity(16);
        from_plain.merge_shard(plain);
        let mut from_soft = TraceBuffer::new().with_record_capacity(16);
        from_soft.merge_shard(soft);
        assert_eq!(from_plain.records(), from_soft.records());
        assert_eq!(from_soft.appended_records(), 9);
    }

    #[test]
    fn soft_cap_still_drops_at_real_capacity() {
        let mut t = TraceBuffer::new()
            .with_record_capacity(4)
            .with_soft_capacity(2);
        for v in 0..9 {
            t.append(4, v);
        }
        // spilled + live never exceeds the real capacity.
        assert_eq!(t.dropped_records(), 5);
        assert_eq!(t.appended_records(), 9);
    }

    #[test]
    fn checksums_validate_and_quarantine() {
        let good = TraceRecord::new(3, 77);
        assert!(good.is_valid());
        let mut bad = good;
        bad.value ^= 1;
        assert!(!bad.is_valid());

        let mut t = TraceBuffer::new();
        t.append(1, 10);
        t.append(1, 11);
        assert_eq!(t.quarantine_invalid(0), 0, "intact records survive");
        // Simulate in-flight corruption: stale checksum, as the
        // fault hook produces.
        let mut t3 = TraceBuffer::new();
        t3.append(1, 10);
        t3.records_mut_for_tests()[0].value ^= 0xFF;
        t3.append(1, 11);
        assert_eq!(t3.quarantine_invalid(0), 1);
        assert_eq!(t3.records().len(), 1);
        assert_eq!(t3.records()[0].value, 11);
        // `from` bounds the scan: an already-drained prefix is not
        // re-examined.
        let mut t4 = TraceBuffer::new();
        t4.append(1, 10);
        t4.records_mut_for_tests()[0].value ^= 0xFF;
        t4.append(1, 11);
        assert_eq!(t4.quarantine_invalid(1), 0);
    }
}
