//! The serve stage's request sequence: a pure function of the seed.

use gtpin_serve::wire::Request;

/// Detailed-simulated launches per `sim` request, so one request stays
/// bounded whatever the app.
pub const SIM_LAUNCHES: u64 = 16;

/// Co-optimization thresholds the `explore` requests ask for, percent.
pub const EXPLORE_THRESHOLDS: [f64; 3] = [1.0, 3.0, 5.0];

/// Chance, in percent, that a request introduces a key not seen yet
/// (while any remain); every other request repeats an earlier key.
const NEW_KEY_PCT: u64 = 12;

/// Every distinct request the sequence can draw for `apps`: profile,
/// explore at each threshold, analyze, lint and a bounded sim, all at
/// Test scale.
pub fn universe(apps: &[&str]) -> Vec<Request> {
    let mut out = Vec::new();
    for &app in apps {
        let app = app.to_string();
        out.push(Request::Profile {
            app: app.clone(),
            scale: "test".into(),
        });
        for threshold_pct in EXPLORE_THRESHOLDS {
            out.push(Request::Explore {
                app: app.clone(),
                scale: "test".into(),
                threshold_pct,
            });
        }
        out.push(Request::Analyze { app: app.clone() });
        out.push(Request::Lint { app: app.clone() });
        out.push(Request::Sim {
            app,
            launches: SIM_LAUNCHES,
        });
    }
    out
}

/// SplitMix64: a small, well-mixed generator whose whole state is the
/// seed, so the sequence depends on nothing else.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `len` requests over `apps`. The first request is new; afterwards
/// each request is, with [`NEW_KEY_PCT`] percent chance, a key not
/// issued yet, and otherwise a uniform repeat of an issued key — so
/// most requests are response-cache hits once the keys have been
/// computed.
pub fn sequence(seed: u64, apps: &[&str], len: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    let mut unused = universe(apps);
    let mut issued: Vec<Request> = Vec::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let fresh = !unused.is_empty() && (issued.is_empty() || rng.next_u64() % 100 < NEW_KEY_PCT);
        let request = if fresh {
            let pick = rng.below(unused.len());
            let request = unused.swap_remove(pick);
            issued.push(request.clone());
            request
        } else {
            issued[rng.below(issued.len())].clone()
        };
        out.push(request);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPS: [&str; 2] = ["cb-gaussian-image", "cb-histogram-buffer"];

    #[test]
    fn sequence_is_a_pure_function_of_the_seed() {
        let a = sequence(7, &APPS, 500);
        assert_eq!(a, sequence(7, &APPS, 500));
        assert_ne!(a, sequence(8, &APPS, 500));
        // A longer sequence extends a shorter one of the same seed.
        assert_eq!(a[..200], sequence(7, &APPS, 200)[..]);
    }

    #[test]
    fn sequence_draws_from_the_universe_and_mostly_repeats() {
        let all = universe(&APPS);
        assert_eq!(all.len(), APPS.len() * 7);
        let seq = sequence(3, &APPS, 1000);
        assert!(seq.iter().all(|r| all.contains(r)));
        let mut seen = std::collections::BTreeSet::new();
        let repeats = seq.iter().filter(|r| !seen.insert(r.session_key())).count();
        assert!(repeats > seq.len() / 2, "{repeats} repeats");
        assert_eq!(seen.len(), all.len(), "every key is eventually issued");
    }
}
