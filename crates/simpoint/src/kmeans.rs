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

    let mut scratch = vec![0usize; points.len()];
    for _ in 0..max_iters {
        // Assign: each point's nearest-centroid search is independent.
        gtpin_par::parallel_fill(&mut scratch, threads, PAR_MIN_POINTS, |i| {
            nearest(&points[i], &centroids).0
        });
        let mut changed = assignments != scratch;
        std::mem::swap(&mut assignments, &mut scratch);

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
        // Reseed candidate for empty clusters: the point farthest
        // from its assigned (pre-update) centroid.
        let far = (0..points.len())
            .max_by(|&a, &b| {
                let da = distance2(&points[a], &centroids[assignments[a]]);
                let db = distance2(&points[b], &centroids[assignments[b]]);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("points is non-empty");
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
    let mut finals = vec![(0usize, 0.0f64); points.len()];
    gtpin_par::parallel_fill(&mut finals, threads, PAR_MIN_POINTS, |i| {
        nearest(&points[i], &centroids)
    });
    let mut sse = 0.0;
    for (i, &(best, d2)) in finals.iter().enumerate() {
        assignments[i] = best;
        sse += weights[i] * d2;
    }

    KmeansResult {
        assignments,
        centroids,
        sse,
    }
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

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_input_panics() {
        kmeans(&[], &[], 2, 0, 10);
    }
}
