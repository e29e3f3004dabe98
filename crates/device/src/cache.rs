//! A set-associative LRU cache model for the GPU's LLC slice.
//!
//! The functional executor feeds every global send message through
//! this cache; hit/miss counts drive the memory term of the timing
//! model, and the same structure is reusable by GT-Pin's
//! trace-driven cache-simulation tool (Section III-B lists "cache
//! simulation through the use of memory traces" among GT-Pin's
//! capabilities).

use serde::{Deserialize, Serialize};

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// A config sized from a topology's LLC slice.
    pub fn llc_slice(kib: u32) -> CacheConfig {
        CacheConfig {
            capacity_bytes: kib * 1024,
            line_bytes: 64,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        (self.capacity_bytes / self.line_bytes / self.ways).max(1)
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::llc_slice(256)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// A set-associative LRU cache.
///
/// The tag store is one flat `Vec` (set-major, `ways` entries per
/// set) rather than a `Vec` per set: the epoch-sharded detailed
/// simulator refreshes each worker's scratch cache from the master
/// with [`Cache::copy_state_from`] before every EU it advances (the
/// scratch itself is cloned once per worker per launch), and a flat
/// store makes that refresh a single memcpy. The detailed simulator
/// keeps the only scratch copies: the parallel functional executor's
/// workers log their accesses instead, and the drain replays the
/// logs here.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    // ways[set * ways_per_set + way] = (tag, last_use);
    // u64::MAX tag = invalid.
    ways: Vec<(u64, u64)>,
    num_sets: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// A cold cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let num_sets = config.num_sets() as u64;
        let ways = vec![(u64::MAX, 0); (num_sets * config.ways as u64) as usize];
        Cache {
            config,
            ways,
            num_sets,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access `bytes` starting at `addr`; returns the number of lines
    /// that hit and missed (an access can span lines).
    pub fn access(&mut self, addr: u64, bytes: u32) -> (u32, u32) {
        let line = self.config.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) as u64 - 1) / line;
        let mut hits = 0;
        let mut misses = 0;
        for l in first..=last {
            if self.access_line(l) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        self.stats.hits += hits as u64;
        self.stats.misses += misses as u64;
        (hits, misses)
    }

    fn access_line(&mut self, line_addr: u64) -> bool {
        self.tick += 1;
        let set = line_addr % self.num_sets;
        let tag = line_addr / self.num_sets;
        let ways_per_set = self.config.ways as usize;
        let base = set as usize * ways_per_set;
        let ways = &mut self.ways[base..base + ways_per_set];
        if let Some(way) = ways.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = self.tick;
            return true;
        }
        // Miss: evict LRU.
        let victim = ways
            .iter_mut()
            .min_by_key(|(_, last)| *last)
            .expect("ways is non-empty");
        *victim = (tag, self.tick);
        false
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics, keeping cache contents warm.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all contents and statistics.
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            *way = (u64::MAX, 0);
        }
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// Overwrite this cache's contents (tags, recency, tick) from
    /// `other`, which must share the same geometry — the reuse-an-
    /// allocation form of `clone` the epoch loop leans on.
    pub fn copy_state_from(&mut self, other: &Cache) {
        debug_assert_eq!(self.config, other.config, "geometry mismatch");
        self.ways.copy_from_slice(&other.ways);
        self.tick = other.tick;
        self.stats = other.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small_cache();
        let (h, m) = c.access(0x1000, 4);
        assert_eq!((h, m), (0, 1), "cold miss");
        let (h, m) = c.access(0x1000, 4);
        assert_eq!((h, m), (1, 0), "warm hit");
        assert_eq!(c.stats().accesses(), 2);
    }

    #[test]
    fn spanning_access_touches_multiple_lines() {
        let mut c = small_cache();
        let (h, m) = c.access(0x1000, 128);
        assert_eq!((h, m), (0, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache(); // 8 sets, 2 ways
                                   // Three lines mapping to the same set (stride = sets*line = 512).
        c.access(0, 4);
        c.access(512, 4);
        c.access(1024, 4); // evicts line 0
        let (h, _) = c.access(512, 4);
        assert_eq!(h, 1, "recently used line survives");
        let (h, m) = c.access(0, 4);
        assert_eq!((h, m), (0, 1), "LRU victim was evicted");
    }

    #[test]
    fn linear_streams_have_high_hit_rate_with_reuse() {
        let mut c = Cache::new(CacheConfig::default());
        for pass in 0..2 {
            for i in 0..1000u64 {
                c.access(i * 4, 4);
            }
            if pass == 0 {
                c.reset_stats();
            }
        }
        assert!(
            c.stats().hit_rate() > 0.9,
            "second pass over 4 KiB fits easily"
        );
    }

    #[test]
    fn flush_cools_the_cache() {
        let mut c = small_cache();
        c.access(0, 4);
        c.flush();
        let (h, m) = c.access(0, 4);
        assert_eq!((h, m), (0, 1));
        assert_eq!(c.stats().accesses(), 1, "flush also clears stats");
    }

    #[test]
    fn zero_byte_access_still_touches_one_line() {
        let mut c = small_cache();
        let (h, m) = c.access(0, 0);
        assert_eq!(h + m, 1);
    }
}
