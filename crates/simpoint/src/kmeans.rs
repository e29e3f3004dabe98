//! Weighted k-means with k-means++ seeding and Lloyd iterations —
//! the clustering engine behind SimPoint (step 4 of the standard
//! subset-selection procedure in Section V-A of the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::project::distance2;

/// The outcome of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Weighted sum of squared distances to assigned centroids.
    pub sse: f64,
}

impl KmeansResult {
    /// Number of clusters actually produced.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }
}

/// Run weighted k-means.
///
/// `weights` give each point's importance (interval instruction
/// counts, in SimPoint's use). Empty clusters are reseeded to the
/// point farthest from its centroid. Requesting more clusters than
/// points clamps `k`.
///
/// # Example
///
/// ```
/// use simpoint::kmeans;
///
/// let points = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let weights = vec![1.0; 4];
/// let result = kmeans(&points, &weights, 2, 42, 100);
/// assert_eq!(result.k(), 2);
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// ```
///
/// # Panics
///
/// Panics if `points` is empty or `weights.len() != points.len()`.
pub fn kmeans(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> KmeansResult {
    kmeans_with_threads(
        points,
        weights,
        k,
        seed,
        max_iters,
        gtpin_par::configured_threads(),
    )
}

/// Point count below which the Lloyd assignment step stays serial:
/// under this, waking pool helpers and handing out chunks costs more
/// than the distance arithmetic.
pub const PAR_MIN_POINTS: usize = 1024;

/// [`kmeans`] with an explicit worker count for the Lloyd assignment
/// step (and the final assignment/SSE pass).
///
/// Only the per-point `nearest` searches are chunked across threads —
/// each is pure in the previous iteration's centroids. The centroid
/// update (the floating-point accumulation) and the k-means++ seeding
/// (a sequential RNG dependency chain) stay serial in point order, so
/// the result is bitwise identical at every thread count.
pub fn kmeans_with_threads(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
    threads: usize,
) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs at least one point");
    assert_eq!(points.len(), weights.len(), "one weight per point");
    let k = k.clamp(1, points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut centroids = plus_plus_seed(points, weights, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];

    // Each point's nearest centroid and its squared distance to it.
    let mut found = vec![(0usize, 0.0f64); points.len()];
    for _ in 0..max_iters {
        // Assign: each point's nearest-centroid search is independent.
        gtpin_par::parallel_fill(&mut found, threads, PAR_MIN_POINTS, |i| {
            nearest(&points[i], &centroids)
        });
        let mut changed = false;
        for (a, &(best, _)) in assignments.iter_mut().zip(&found) {
            changed |= *a != best;
            *a = best;
        }

        // Update.
        let dims = points[0].len();
        let mut sums = vec![vec![0.0; dims]; centroids.len()];
        let mut masses = vec![0.0; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i];
            masses[c] += weights[i];
            for (s, &x) in sums[c].iter_mut().zip(p) {
                *s += weights[i] * x;
            }
        }
        let far = farthest(points, &centroids, &found);
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if masses[c] > 0.0 {
                for (slot, s) in centroid.iter_mut().zip(&sums[c]) {
                    *slot = s / masses[c];
                }
            } else {
                *centroid = points[far].clone();
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }

    // Final assignment + SSE: nearest searches fan out, the SSE
    // reduction stays serial in point order (fixed f64 fold order).
    gtpin_par::parallel_fill(&mut found, threads, PAR_MIN_POINTS, |i| {
        nearest(&points[i], &centroids)
    });
    let mut sse = 0.0;
    for (i, &(best, d2)) in found.iter().enumerate() {
        assignments[i] = best;
        sse += weights[i] * d2;
    }

    KmeansResult {
        assignments,
        centroids,
        sse,
    }
}

/// Reseed candidate for empty clusters: the point farthest from its
/// assigned (pre-update) centroid, the last one on ties.
///
/// `found` holds each point's `nearest` result, whose distance is
/// `distance2` to that very centroid whenever it is finite. Where it
/// is not (no centroid measured below infinity), the distance is
/// measured again, so a NaN still panics here as it always has.
fn farthest(points: &[Vec<f64>], centroids: &[Vec<f64>], found: &[(usize, f64)]) -> usize {
    let d2 = |i: usize| {
        let (c, d) = found[i];
        if d.is_finite() {
            d
        } else {
            distance2(&points[i], &centroids[c])
        }
    };
    (0..points.len())
        .max_by(|&a, &b| d2(a).partial_cmp(&d2(b)).expect("finite distances"))
        .expect("points is non-empty")
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = distance2(p, centroid);
        if d < best_d {
            best = c;
            best_d = d;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid weighted-random, then each next
/// centroid with probability proportional to weight × squared
/// distance from the nearest existing centroid.
fn plus_plus_seed(
    points: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let total_w: f64 = weights.iter().sum();
    let first = weighted_pick(weights, total_w, rng);
    centroids.push(points[first].clone());

    let mut d2: Vec<f64> = points.iter().map(|p| distance2(p, &centroids[0])).collect();

    while centroids.len() < k {
        let scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let pick = if total > 0.0 {
            weighted_pick(&scores, total, rng)
        } else {
            // All points coincide with centroids; any point works.
            rng.gen_range(0..points.len())
        };
        centroids.push(points[pick].clone());
        for (i, p) in points.iter().enumerate() {
            let d = distance2(p, centroids.last().expect("just pushed"));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

fn weighted_pick(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut t = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if t < *w {
            return i;
        }
        t -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        let w = vec![1.0; pts.len()];
        (pts, w)
    }

    #[test]
    fn separates_two_blobs() {
        let (pts, w) = two_blobs();
        let r = kmeans(&pts, &w, 2, 7, 100);
        assert_eq!(r.k(), 2);
        // All even indices together, all odd together.
        let a = r.assignments[0];
        let b = r.assignments[1];
        assert_ne!(a, b);
        for i in 0..pts.len() {
            assert_eq!(r.assignments[i], if i % 2 == 0 { a } else { b });
        }
        assert!(r.sse < 0.1, "tight blobs: sse {}", r.sse);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let r = kmeans(&pts, &[1.0, 1.0], 10, 1, 50);
        assert!(r.k() <= 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let (pts, w) = two_blobs();
        let a = kmeans(&pts, &w, 3, 42, 100);
        let b = kmeans(&pts, &w, 3, 42, 100);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn weights_pull_centroids() {
        // One heavy point and one light point, k=1: centroid near
        // the heavy point.
        let pts = vec![vec![0.0], vec![10.0]];
        let r = kmeans(&pts, &[9.0, 1.0], 1, 3, 50);
        assert!(
            (r.centroids[0][0] - 1.0).abs() < 1e-9,
            "weighted mean is 1.0"
        );
    }

    #[test]
    fn identical_points_fold_into_one_effective_cluster() {
        let pts = vec![vec![5.0, 5.0]; 8];
        let r = kmeans(&pts, &[1.0; 8], 3, 11, 50);
        assert_eq!(r.sse, 0.0);
        for a in &r.assignments {
            assert!(*a < r.k());
        }
    }

    #[test]
    fn members_partitions_all_points() {
        let (pts, w) = two_blobs();
        let r = kmeans(&pts, &w, 2, 5, 100);
        let total: usize = (0..r.k()).map(|c| r.members(c).len()).sum();
        assert_eq!(total, pts.len());
    }

    /// The Lloyd loop with the reseed rule measured afresh, two
    /// `distance2` calls per comparison, as it was before `farthest`
    /// reused `nearest`'s distances; serial. Also returns how many
    /// empty clusters were reseeded.
    fn kmeans_measuring_far(
        points: &[Vec<f64>],
        weights: &[f64],
        k: usize,
        seed: u64,
        max_iters: usize,
    ) -> (KmeansResult, usize) {
        let k = k.clamp(1, points.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = plus_plus_seed(points, weights, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut reseeds = 0;
        for _ in 0..max_iters {
            let next: Vec<usize> = points.iter().map(|p| nearest(p, &centroids).0).collect();
            let mut changed = assignments != next;
            assignments = next;
            let dims = points[0].len();
            let mut sums = vec![vec![0.0; dims]; centroids.len()];
            let mut masses = vec![0.0; centroids.len()];
            for (i, p) in points.iter().enumerate() {
                let c = assignments[i];
                masses[c] += weights[i];
                for (s, &x) in sums[c].iter_mut().zip(p) {
                    *s += weights[i] * x;
                }
            }
            // `total_cmp` stands in for `partial_cmp` + `expect`: the
            // two agree on the NaN-free distances this test feeds in.
            let far = (0..points.len())
                .max_by(|&a, &b| {
                    let da = distance2(&points[a], &centroids[assignments[a]]);
                    let db = distance2(&points[b], &centroids[assignments[b]]);
                    da.total_cmp(&db)
                })
                .unwrap_or(0);
            for (c, centroid) in centroids.iter_mut().enumerate() {
                if masses[c] > 0.0 {
                    for (slot, s) in centroid.iter_mut().zip(&sums[c]) {
                        *slot = s / masses[c];
                    }
                } else {
                    *centroid = points[far].clone();
                    reseeds += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut sse = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (best, d2) = nearest(p, &centroids);
            assignments[i] = best;
            sse += weights[i] * d2;
        }
        let result = KmeansResult {
            assignments,
            centroids,
            sse,
        };
        (result, reseeds)
    }

    #[test]
    fn empty_cluster_reseeds_match_the_measured_far_rule_at_every_thread_count() {
        // Enough points that the assignment step fans out, but only
        // 27 distinct ones: asked for more clusters than that,
        // k-means++ seeds coincident centroids and Lloyd finds
        // clusters empty.
        let mut points = Vec::new();
        for i in 0..(PAR_MIN_POINTS + 300) {
            points.push(match i % 7 {
                0..=4 => vec![(i % 3) as f64, 1.0, -2.0],
                5 => vec![5.0 + (i % 11) as f64 * 0.25, 3.0, 0.5],
                _ => vec![-3.0, (i % 13) as f64 * 0.75, 8.0],
            });
        }
        let weights: Vec<f64> = (0..points.len()).map(|i| 1.0 + (i % 4) as f64).collect();
        let dup_only = vec![vec![1.0, 2.0]; PAR_MIN_POINTS + 8];
        let dup_weights = vec![1.0; dup_only.len()];
        // Three distinct points, all sitting on centroids: every
        // distance ties at zero, and the rule's last-on-ties choice
        // (`[1, 0]`, not the first point `[-1, 0]`) is what reseeds.
        let mut ends = vec![vec![-1.0, 0.0]];
        ends.extend(vec![vec![0.0, 0.0]; PAR_MIN_POINTS]);
        ends.push(vec![1.0, 0.0]);
        let ends_weights = vec![1.0; ends.len()];
        for (pts, w, k) in [
            (&points, &weights, 30),
            (&points, &weights, 45),
            (&dup_only, &dup_weights, 5),
            (&ends, &ends_weights, 4),
        ] {
            for seed in [1, 2] {
                let (want, reseeds) = kmeans_measuring_far(pts, w, k, seed, 12);
                assert!(reseeds > 0, "k={k} seed={seed}: no cluster was reseeded");
                for threads in 1..=8 {
                    let got = kmeans_with_threads(pts, w, k, seed, 12, threads);
                    assert_eq!(got.assignments, want.assignments, "threads={threads}");
                    assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "threads={threads}");
                    let bits = |r: &KmeansResult| -> Vec<Vec<u64>> {
                        r.centroids
                            .iter()
                            .map(|c| c.iter().map(|x| x.to_bits()).collect())
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nan_distances_still_panic() {
        let pts = vec![vec![f64::NAN], vec![f64::NAN], vec![1.0]];
        kmeans_with_threads(&pts, &[1.0; 3], 2, 4, 10, 1);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        kmeans(&[], &[], 2, 0, 10);
    }
}
