//! Property-based oracle for the streaming selection path.
//!
//! Two contracts, over arbitrary feature matrices rather than the
//! hand-built fixtures of the unit tests:
//!
//! * **Exact-mode equivalence** — with an unbounded reservoir the
//!   single-pass clusterer is the batch pipeline: bit-identical
//!   labels, representatives and BIC curve at every worker-pool size.
//! * **Bounded-memory fence** — with any finite reservoir, the peak
//!   number of raw feature rows ever retained never exceeds
//!   `reservoir + one mini-batch window`, while the output still
//!   labels every frame exactly once.

use proptest::prelude::*;

use megsim_core::pipeline::{
    select_representatives, select_representatives_stream, MegsimConfig, StreamClusterConfig,
};
use megsim_core::FeatureMatrix;

/// Arbitrary feature matrices: `p` vertex columns, `q` fragment
/// columns, 4–40 frames of non-negative activity.
fn matrices() -> impl Strategy<Value = FeatureMatrix> {
    (1usize..=3, 1usize..=3)
        .prop_flat_map(|(p, q)| {
            let d = p + q + 1;
            (
                Just(p),
                Just(q),
                prop::collection::vec(prop::collection::vec(0.0f64..1e4, d..=d), 4..40),
            )
        })
        .prop_map(|(p, q, rows)| FeatureMatrix::from_rows(rows, p, q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_streaming_is_bitwise_the_batch_selection(
        matrix in matrices(),
        seed in any::<u64>(),
    ) {
        let config = MegsimConfig::default().with_seed(seed);
        let stream = StreamClusterConfig::exact();
        let batch = select_representatives(&matrix, &config);
        for threads in [1usize, 2, 8] {
            let streamed = megsim_exec::with_threads(threads, || {
                select_representatives_stream(&matrix, &config, &stream)
            });
            prop_assert_eq!(
                &streamed.selection.labels, &batch.labels,
                "labels differ at {} threads", threads
            );
            prop_assert_eq!(
                &streamed.selection.representatives, &batch.representatives,
                "representatives differ at {} threads", threads
            );
            // f64 equality would admit -0.0 vs 0.0; the contract is
            // bit-identity.
            let stream_bits: Vec<u64> =
                streamed.selection.bic_scores.iter().map(|b| b.to_bits()).collect();
            let batch_bits: Vec<u64> = batch.bic_scores.iter().map(|b| b.to_bits()).collect();
            prop_assert_eq!(stream_bits, batch_bits, "BIC curve differs at {} threads", threads);
            prop_assert_eq!(streamed.reservoir_len, matrix.frames());
        }
    }

    #[test]
    fn bounded_streaming_never_breaches_the_memory_fence(
        matrix in matrices(),
        capacity in 4usize..64,
        batch_size in 1usize..32,
        seed in any::<u64>(),
    ) {
        let config = MegsimConfig::default().with_seed(seed);
        let stream = StreamClusterConfig::default()
            .with_reservoir_capacity(capacity)
            .with_batch_size(batch_size);
        let streamed = select_representatives_stream(&matrix, &config, &stream);
        prop_assert!(
            streamed.peak_rows_retained <= capacity + batch_size,
            "peak {} rows retained breaches the {} + {} fence",
            streamed.peak_rows_retained, capacity, batch_size
        );
        prop_assert_eq!(streamed.selection.labels.len(), matrix.frames());
        let sized: usize = streamed
            .selection
            .representatives
            .iter()
            .map(|r| r.cluster_size)
            .sum();
        prop_assert_eq!(sized, matrix.frames(), "cluster sizes must partition the frames");
        for r in &streamed.selection.representatives {
            prop_assert!(r.frame_index < matrix.frames());
        }
    }
}
