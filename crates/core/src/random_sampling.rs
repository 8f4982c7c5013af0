//! The random sub-sampling baseline of paper §V-C.
//!
//! For a workload of `N` frames, `k` representatives are drawn — one
//! uniformly at random from each of `k` equal ranges of `N/k` frames —
//! and each is scaled by its range size. Because the technique cannot
//! know how many representatives suffice, `k` grows until the
//! 95 %-confidence maximum relative error over many trials matches a
//! target (MEGsim's own error).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random draw: `k` (frame index, range size) pairs.
fn sample_indices(n_frames: usize, k: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
    assert!(k >= 1 && k <= n_frames, "k must be in [1, n]");
    let mut out = Vec::with_capacity(k);
    for r in 0..k {
        let lo = r * n_frames / k;
        let hi = ((r + 1) * n_frames / k).max(lo + 1);
        out.push((rng.gen_range(lo..hi), hi - lo));
    }
    out
}

/// Estimates a metric total from a sample: Σ value × range size.
fn estimate_total(samples: &[(usize, usize)], per_frame_metric: &[f64]) -> f64 {
    samples
        .iter()
        .map(|&(i, size)| per_frame_metric[i] * size as f64)
        .sum()
}

/// The maximum relative error at the given confidence over `trials`
/// random draws of `k` representatives (e.g. `confidence = 0.95` drops
/// the worst 5 % of trials, as §V-C does).
///
/// # Panics
///
/// Panics if the metric array is empty or `confidence` is outside
/// `(0, 1]`.
fn max_error_at_confidence(
    per_frame_metric: &[f64],
    k: usize,
    trials: usize,
    confidence: f64,
    seed: u64,
) -> f64 {
    assert!(!per_frame_metric.is_empty(), "empty metric series");
    assert!(
        (f64::EPSILON..=1.0).contains(&confidence),
        "confidence must be in (0, 1]"
    );
    let actual: f64 = per_frame_metric.iter().sum();
    // Draw every trial's sample sequentially from the single seeded RNG
    // (the exact stream the sequential implementation produced), then
    // score the trials on the worker pool — per-trial work depends only
    // on the pre-drawn sample, so results are thread-count independent.
    let mut rng = SmallRng::seed_from_u64(seed);
    let samples: Vec<Vec<(usize, usize)>> = (0..trials)
        .map(|_| sample_indices(per_frame_metric.len(), k, &mut rng))
        .collect();
    // Scoring a trial is O(k); only fan out when the total work is
    // large enough to amortize waking the pool.
    const PAR_WORK: usize = 1 << 16;
    let score = |s: &Vec<(usize, usize)>| {
        let est = estimate_total(s, per_frame_metric);
        megsim_stats::relative_error(est, actual)
    };
    let mut errors: Vec<f64> = if trials * k >= PAR_WORK {
        megsim_exec::par_map_indexed(&samples, |_, s| score(s))
    } else {
        samples.iter().map(score).collect()
    };
    errors.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let idx = ((errors.len() as f64 * confidence).ceil() as usize).clamp(1, errors.len()) - 1;
    errors[idx]
}

/// Smallest `k` whose 95 %-confidence max error matches `target` — the
/// §V-C procedure producing Table IV's "Random sub-sampling frames".
///
/// `k` is grown geometrically (×1.2) then refined by binary search, so
/// sequences of thousands of frames stay cheap. Returns `n_frames` if
/// even full sampling cannot reach the target (it always can: `k = n`
/// has zero error).
pub fn frames_needed_for_target(
    per_frame_metric: &[f64],
    target_error: f64,
    trials: usize,
    confidence: f64,
    seed: u64,
) -> usize {
    let n = per_frame_metric.len();
    let err_of = |k: usize| max_error_at_confidence(per_frame_metric, k, trials, confidence, seed);
    // Geometric bracket.
    let mut lo = 1usize;
    let mut hi = 1usize;
    while hi < n && err_of(hi) > target_error {
        lo = hi;
        hi = ((hi as f64 * 1.2).ceil() as usize + 1).min(n);
    }
    if hi >= n && err_of(n) > target_error {
        return n;
    }
    // Binary search in (lo, hi]: err(hi) ≤ target < err(lo).
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if err_of(mid) > target_error {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn samples_partition_the_sequence() {
        let s = sample_indices(100, 4, &mut rng());
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().map(|&(_, sz)| sz).sum::<usize>(), 100);
        for (r, &(i, _)) in s.iter().enumerate() {
            assert!(i >= r * 25 && i < (r + 1) * 25);
        }
    }

    #[test]
    fn uneven_ranges_still_cover_everything() {
        let s = sample_indices(10, 3, &mut rng());
        assert_eq!(s.iter().map(|&(_, sz)| sz).sum::<usize>(), 10);
    }

    #[test]
    fn constant_series_has_zero_error() {
        let metric = vec![5.0; 50];
        let err = max_error_at_confidence(&metric, 3, 100, 0.95, 1);
        assert!(err < 1e-12);
    }

    #[test]
    fn full_sampling_has_zero_error() {
        let metric: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let err = max_error_at_confidence(&metric, 20, 50, 0.95, 1);
        assert!(err < 1e-12);
    }

    #[test]
    fn error_decreases_with_k() {
        let metric: Vec<f64> = (0..200).map(|i| ((i * 37) % 100) as f64 + 1.0).collect();
        let e2 = max_error_at_confidence(&metric, 2, 300, 0.95, 1);
        let e50 = max_error_at_confidence(&metric, 50, 300, 0.95, 1);
        assert!(e50 < e2, "e2 = {e2}, e50 = {e50}");
    }

    #[test]
    fn frames_needed_matches_direct_check() {
        let metric: Vec<f64> = (0..300)
            .map(|i| if (i / 30) % 2 == 0 { 10.0 } else { 100.0 })
            .collect();
        let target = 0.05;
        let k = frames_needed_for_target(&metric, target, 200, 0.95, 3);
        assert!((1..=300).contains(&k));
        let err = max_error_at_confidence(&metric, k, 200, 0.95, 3);
        assert!(err <= target, "err at k = {err}");
        if k > 1 {
            // One fewer representative should miss the target (within
            // the bracket the search explored).
            let err_prev = max_error_at_confidence(&metric, k - 1, 200, 0.95, 3);
            assert!(err_prev > target, "err at k-1 = {err_prev}");
        }
    }

    #[test]
    fn needy_series_needs_more_frames_than_flat_one() {
        let flat = vec![10.0; 400];
        let spiky: Vec<f64> = (0..400)
            .map(|i| if i % 97 == 0 { 1000.0 } else { 10.0 })
            .collect();
        let kf = frames_needed_for_target(&flat, 0.02, 100, 0.95, 5);
        let ks = frames_needed_for_target(&spiky, 0.02, 100, 0.95, 5);
        assert!(ks > kf, "spiky {ks} vs flat {kf}");
    }
}
