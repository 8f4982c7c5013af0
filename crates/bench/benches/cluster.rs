//! Clustering-engine benchmarks: the retained seed engine
//! (`ReferenceKMeans`) vs the bound-pruned, warm-started fast path for
//! the full §III-F BIC search and silhouette scoring, plus the blocked
//! pairwise kernel behind the §III-D similarity matrix. The selection
//! stage runs once per characterized workload, so its cost gates how
//! freely the methodology can be re-run (different seeds, thresholds,
//! ablations) on captured traces.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use megsim_cluster::{
    kmeans, search_clusters, silhouette_score, KMeansConfig, PointMatrix, ReferenceKMeans,
    SearchConfig,
};
use megsim_core::SimilarityMatrix;

/// Paper-shape synthetic feature data: frames evolve along slow
/// per-dimension drifts (continuous scene changes) with deterministic
/// high-frequency jitter on top, so cluster boundaries overlap the way
/// consecutive gameplay frames do. Lloyd's needs many iterations on
/// this shape (unlike idealized well-separated blobs that converge in
/// two), which is exactly the regime the selection stage faces.
fn feature_like_data(n: usize, d: usize) -> PointMatrix {
    PointMatrix::from_rows(
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        let t = i as f64 / 60.0;
                        let drift = ((t + j as f64 * 0.37).sin()
                            + (t * 0.33 + j as f64 * 0.11).cos())
                            * 40.0;
                        let noise = ((i * 31 + j * 17) % 97) as f64 * 0.8;
                        drift + noise
                    })
                    .collect()
            })
            .collect(),
    )
}

fn bench_search(c: &mut Criterion) {
    let data = feature_like_data(800, 32);
    let config = SearchConfig::default().with_max_k(24);
    let mut group = c.benchmark_group("cluster_search");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(ReferenceKMeans::search_clusters(&data, &config).k));
    });
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(search_clusters(&data, &config).k));
    });
    group.finish();
}

fn bench_silhouette(c: &mut Criterion) {
    let data = feature_like_data(1200, 32);
    let fit = kmeans(&data, &KMeansConfig::new(8).with_seed(1));
    let mut group = c.benchmark_group("cluster_silhouette");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(ReferenceKMeans::silhouette_score(&data, &fit)));
    });
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(silhouette_score(&data, &fit)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search, bench_silhouette
}

/// Best-of-five wall-clock seconds for `f` (after one warm-up pass).
fn secs(mut f: impl FnMut()) -> f64 {
    f();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the seed engine vs the fast path single-threaded (so the
/// ratio is pure algorithmic gain: bound pruning, seeding memoization,
/// scratch reuse, blocked tiles — no thread-count dependence), checks
/// the results are bit-identical while doing so, and prints the numbers.
fn print_bench_summary() {
    megsim_exec::set_threads(1);

    // Full §III-F BIC search on the paper-shape workload.
    let data = feature_like_data(800, 32);
    let config = SearchConfig::default().with_max_k(24);
    let expected = ReferenceKMeans::search_clusters(&data, &config);
    let got = search_clusters(&data, &config);
    assert_eq!(
        expected.k, got.k,
        "fast-path search diverged from the seed engine"
    );
    assert_eq!(expected.bic_scores, got.bic_scores);
    assert_eq!(expected.clustering, got.clustering);
    let reference = secs(|| {
        black_box(ReferenceKMeans::search_clusters(&data, &config).k);
    });
    let optimized = secs(|| {
        black_box(search_clusters(&data, &config).k);
    });
    println!(
        "cluster search n800_d32: reference {:.3}s, optimized {:.3}s ({:.2}x)",
        reference,
        optimized,
        reference / optimized
    );

    // Silhouette scoring (the ablation's O(n²·d) pass).
    let sil_data = feature_like_data(1200, 32);
    let fit = kmeans(&sil_data, &KMeansConfig::new(8).with_seed(1));
    let expected = ReferenceKMeans::silhouette_score(&sil_data, &fit);
    let got = silhouette_score(&sil_data, &fit);
    assert_eq!(
        expected.to_bits(),
        got.to_bits(),
        "fast-path silhouette diverged from the seed engine"
    );
    let reference = secs(|| {
        black_box(ReferenceKMeans::silhouette_score(&sil_data, &fit));
    });
    let optimized = secs(|| {
        black_box(silhouette_score(&sil_data, &fit));
    });
    println!(
        "cluster silhouette n1200_d32: reference {:.3}s, optimized {:.3}s ({:.2}x)",
        reference,
        optimized,
        reference / optimized
    );

    // §III-D similarity matrix: blocked SoA tiles vs the seed per-row
    // scan (reconstructed inline — the production path now always runs
    // the blocked kernel).
    let sim_data = feature_like_data(1500, 32);
    let reference = secs(|| {
        let n = sim_data.len();
        let mut packed = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            let a = sim_data.row(i);
            packed.extend((i..n).map(|j| megsim_cluster::euclidean_distance(a, sim_data.row(j))));
        }
        black_box(packed.len());
    });
    let optimized = secs(|| {
        black_box(SimilarityMatrix::from_points(&sim_data).len());
    });
    println!(
        "similarity n1500_d32: reference {:.3}s, optimized {:.3}s ({:.2}x)",
        reference,
        optimized,
        reference / optimized
    );

    megsim_exec::set_threads(0);
}

fn main() {
    benches();
    print_bench_summary();
}
