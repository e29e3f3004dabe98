//! Output digests pinned for the default seed. A reference that
//! disagrees with these fails the run: the program's results moved.

/// The seed the pinned digests were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned digests of one workload at [`DEFAULT_SEED`].
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    /// Workload name.
    pub workload: &'static str,
    /// fnv64 of the explore stage's `SweepReport` JSON.
    pub explore: u64,
    /// The sim stage's stats digest.
    pub sim: u64,
    /// fnv64 over every serve reply, in key order.
    pub serve: u64,
}

/// One entry per workload.
pub const PINNED: [Pinned; 3] = [
    Pinned {
        workload: "explore-suite",
        explore: 0x7190_5a10_e6bb_81dd,
        sim: 0xbf4a_402a_aba6_e7a8,
        serve: 0x12f5_23aa_2353_524e,
    },
    Pinned {
        workload: "sim-full",
        explore: 0x1e63_1453_6a05_708b,
        sim: 0x755f_ce80_44a8_92e6,
        serve: 0x12f5_23aa_2353_524e,
    },
    Pinned {
        workload: "serve-mix",
        explore: 0x3076_3b08_6c88_f926,
        sim: 0x7dcd_b2cb_dc45_181f,
        serve: 0x12f5_23aa_2353_524e,
    },
];

/// The pinned digests of `workload`, if any.
pub fn pinned(workload: &str) -> Option<Pinned> {
    PINNED.iter().copied().find(|p| p.workload == workload)
}
