//! Statistic estimation and accuracy evaluation (paper §III-E, §V-B).
//!
//! MEGsim simulates only the representative frames and scales each one's
//! output statistics by its cluster population; accuracy is the relative
//! error against the full-sequence simulation, reported for the four
//! Fig. 7 metrics.

use serde::{Deserialize, Serialize};

use megsim_stats::relative_error;
use megsim_timing::FrameStats;

use crate::pipeline::Representative;

/// Relative errors of the four metrics the paper evaluates (fractions,
/// e.g. `0.0084` = 0.84 %).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricErrors {
    /// Total cycles.
    pub cycles: f64,
    /// Main-memory accesses.
    pub dram_accesses: f64,
    /// L2-cache accesses.
    pub l2_accesses: f64,
    /// Tile-cache accesses.
    pub tile_cache_accesses: f64,
}

impl MetricErrors {
    /// The worst of the four errors.
    pub fn max(&self) -> f64 {
        self.cycles
            .max(self.dram_accesses)
            .max(self.l2_accesses)
            .max(self.tile_cache_accesses)
    }
}

/// Scales each representative's statistics by its cluster size and sums
/// them — MEGsim's estimate of the full-sequence totals.
///
/// `rep_stats` yields the representatives' simulated statistics in
/// selection order (e.g. what [`crate::simulate`] returns for the
/// representative frames); it is zipped with `representatives`.
pub fn scaled_totals<'a>(
    representatives: &[Representative],
    rep_stats: impl IntoIterator<Item = &'a FrameStats>,
) -> FrameStats {
    let mut total = FrameStats::default();
    for (stats, rep) in rep_stats.into_iter().zip(representatives) {
        total.merge(&stats.scaled(rep.cluster_size as u64));
    }
    total
}

/// [`scaled_totals`] over per-frame statistics looked up by frame
/// index.
///
/// `stats_of` maps a frame index to that frame's simulated statistics
/// (either from the full run or from a representatives-only run).
///
/// # Panics
///
/// Panics if `representatives` is empty.
pub fn estimate_totals<'a>(
    representatives: &[Representative],
    mut stats_of: impl FnMut(usize) -> &'a FrameStats,
) -> FrameStats {
    assert!(
        !representatives.is_empty(),
        "no representatives to estimate from"
    );
    scaled_totals(
        representatives,
        representatives.iter().map(|rep| stats_of(rep.frame_index)),
    )
}

/// Relative errors of an estimate against the ground truth.
pub fn metric_errors(estimated: &FrameStats, actual: &FrameStats) -> MetricErrors {
    MetricErrors {
        cycles: relative_error(estimated.cycles as f64, actual.cycles as f64),
        dram_accesses: relative_error(
            estimated.dram_accesses() as f64,
            actual.dram_accesses() as f64,
        ),
        l2_accesses: relative_error(estimated.l2_accesses() as f64, actual.l2_accesses() as f64),
        tile_cache_accesses: relative_error(
            estimated.tile_cache_accesses() as f64,
            actual.tile_cache_accesses() as f64,
        ),
    }
}

/// Sums a full sequence of per-frame statistics (the ground truth).
pub fn sequence_totals<'a>(per_frame: impl IntoIterator<Item = &'a FrameStats>) -> FrameStats {
    let mut total = FrameStats::default();
    for f in per_frame {
        total.merge(f);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> FrameStats {
        let mut s = FrameStats {
            cycles,
            ..FrameStats::default()
        };
        s.memory.dram.reads = cycles / 10;
        s.memory.l2.reads = cycles / 5;
        s.tile_cache.reads = cycles / 2;
        s
    }

    #[test]
    fn perfect_clustering_gives_zero_error() {
        // Frames alternate between two exact behaviours.
        let frames: Vec<FrameStats> = (0..10)
            .map(|i| stats(if i % 2 == 0 { 100 } else { 300 }))
            .collect();
        let reps = vec![
            Representative {
                frame_index: 0,
                cluster_size: 5,
            },
            Representative {
                frame_index: 1,
                cluster_size: 5,
            },
        ];
        let est = estimate_totals(&reps, |i| &frames[i]);
        let actual = sequence_totals(&frames);
        let err = metric_errors(&est, &actual);
        assert_eq!(err.max(), 0.0);
        assert_eq!(est.cycles, 2000);
    }

    #[test]
    fn imperfect_representative_yields_proportional_error() {
        let frames = vec![stats(100), stats(110), stats(90)];
        let reps = vec![Representative {
            frame_index: 0,
            cluster_size: 3,
        }];
        let est = estimate_totals(&reps, |i| &frames[i]);
        let actual = sequence_totals(&frames);
        let err = metric_errors(&est, &actual);
        assert!((err.cycles - 0.0).abs() < 1e-9, "300 vs 300");
        assert_eq!(est.cycles, 300);
    }

    #[test]
    fn metric_errors_cover_all_four_metrics() {
        let est = stats(110);
        let act = stats(100);
        let err = metric_errors(&est, &act);
        assert!((err.cycles - 0.1).abs() < 1e-9);
        assert!(err.dram_accesses > 0.0);
        assert!(err.l2_accesses > 0.0);
        assert!(err.tile_cache_accesses > 0.0);
        assert!(err.max() >= err.cycles);
    }

    #[test]
    #[should_panic(expected = "no representatives")]
    fn empty_representatives_panic() {
        let frames = [stats(1)];
        let _ = estimate_totals(&[], |i| &frames[i]);
    }
}
