//! Phase analysis of one game: prints the similarity matrix (Fig. 5),
//! the BIC curve and the cluster timeline (Fig. 6) for a Beach Buggy
//! Racing-like workload.
//!
//! ```text
//! cargo run --release --example game_analysis
//! ```

use megsim_core::evaluate::characterize_sequence;
use megsim_core::pipeline::{select_representatives, MegsimConfig};
use megsim_core::{normalize, SimilarityMatrix};
use megsim_timing::GpuConfig;
use megsim_workloads::by_alias;

fn main() {
    let workload = by_alias("bbr1", 0.1, 42).expect("known benchmark alias"); // 250 frames
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();

    println!(
        "analyzing {} ({} frames)...",
        workload.name,
        workload.frames()
    );
    let matrix = characterize_sequence(
        workload.iter_frames(),
        workload.shaders(),
        &gpu,
        &config,
        None,
    );
    let normalized = normalize(&matrix, &config.weights);

    // Fig. 5: the similarity matrix, darker = more similar.
    let sim = SimilarityMatrix::from_points(&normalized);
    println!("\nsimilarity matrix (darker = more similar):\n");
    print!("{}", sim.render_ascii(48));

    // Fig. 6: clustering along the diagonal.
    let selection = select_representatives(&matrix, &config);
    println!(
        "\nk-means/BIC selected {} clusters; BIC scores per k:",
        selection.k()
    );
    for (k, score) in selection.bic_scores.iter().enumerate() {
        let marker = if k + 1 == selection.k() {
            "  <= selected"
        } else {
            ""
        };
        println!("  k = {:>2}: {:>12.1}{}", k + 1, score, marker);
    }

    println!("\ncluster timeline (each char = one frame):");
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    for chunk in selection.labels.chunks(100) {
        let line: String = chunk
            .iter()
            .map(|&l| GLYPHS[l % GLYPHS.len()] as char)
            .collect();
        println!("  {line}");
    }

    println!("\nrepresentatives (frame -> cluster size):");
    for rep in &selection.representatives {
        println!(
            "  frame {:>5} represents {:>5} frames",
            rep.frame_index, rep.cluster_size
        );
    }
}
