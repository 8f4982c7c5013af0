//! The experiment suite: one function per table/figure of the paper's
//! evaluation, all driven by a shared per-benchmark dataset so the
//! expensive simulations run once.

use std::convert::Infallible;

use megsim_core::evaluate::{evaluate_megsim, simulate, FrameStart, MegsimRun};
use megsim_core::flow::{self, Flow, FrameSource};
use megsim_core::pipeline::MegsimConfig;
use megsim_core::random_sampling;
use megsim_core::{FeatureMatrix, FrameCache, GroupWeights, SimilarityMatrix};
use megsim_power::{EnergyModel, PowerBreakdown};
use megsim_stats::{multiple_correlation, pearson, quantile};
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};
use megsim_workloads::{build, BenchmarkInfo, Workload, BENCHMARKS};

use crate::args::ExperimentArgs;
use crate::format::{millions, pct, times, TextTable};

/// Everything the experiments need about one benchmark: the workload
/// and the flow's ground truth on it.
#[derive(Debug)]
pub struct BenchmarkData {
    /// Table II row.
    pub info: BenchmarkInfo,
    /// The synthetic game.
    pub workload: Workload,
    /// Raw `N × D` characteristic vectors.
    pub matrix: FeatureMatrix,
    /// Ground-truth per-frame statistics (full cycle simulation).
    pub per_frame: Vec<FrameStats>,
    /// MEGsim's selection and estimate against the ground-truth totals.
    pub run: MegsimRun,
}

impl BenchmarkData {
    /// Per-frame cycle counts (used by the correlation study and the
    /// random sub-sampling baseline).
    pub fn cycles_series(&self) -> Vec<f64> {
        self.per_frame.iter().map(|f| f.cycles as f64).collect()
    }
}

/// Shared experiment context.
#[derive(Debug)]
pub struct Context {
    /// Command-line options.
    pub args: ExperimentArgs,
    /// The simulated machine (Table I).
    pub gpu: GpuConfig,
    /// The MEGsim configuration (§III defaults).
    pub megsim: MegsimConfig,
    /// The run's frame cache, shared by every pass over the context.
    pub cache: FrameCache,
}

impl Context {
    /// Builds a context from parsed arguments.
    pub fn new(args: ExperimentArgs) -> Self {
        let megsim = MegsimConfig::default().with_seed(args.seed);
        Self {
            args,
            gpu: GpuConfig::mali450_like(),
            megsim,
            cache: FrameCache::new(),
        }
    }

    /// The context's single-GPU flow, over its frame cache.
    pub fn flow(&self) -> Flow<'_> {
        Flow {
            cache: Some(&self.cache),
            ..Flow::new(&self.gpu, self.megsim)
        }
    }
}

/// Runs the flow's ground truth on one benchmark: the cycle-accurate
/// simulation of every frame, the features read off it and MEGsim's
/// selection and estimate.
pub fn compute_benchmark(ctx: &Context, info: &BenchmarkInfo) -> BenchmarkData {
    let workload = build(info, ctx.args.scale, ctx.args.seed);
    eprintln!(
        "[{}] {} frames: cycle-accurate ground-truth simulation...",
        info.alias,
        workload.frames()
    );
    let truth = flow::ground_truth(&frame_source(&workload), &ctx.flow());
    let truth = truth.expect("a benchmark has frames");
    BenchmarkData {
        info: *info,
        run: truth.run(),
        matrix: truth.matrix.expect("a two-pass flow keeps its features"),
        per_frame: truth.per_frame,
        workload,
    }
}

/// `workload` as a flow's frame source. A full pass generates the
/// frames on the worker pool (`generate_frames`), so the simulation
/// does not serialize behind a single-threaded generator; a
/// representative pass builds only the representatives.
pub fn frame_source(workload: &Workload) -> impl FrameSource<Error = Infallible> + '_ {
    let all = || workload.generate_frames().into_iter();
    (workload.shaders(), all, |i| workload.frame(i))
}

/// Runs the flow's ground truth on every selected benchmark, one
/// benchmark per worker-pool task (the frame loops inside each run
/// inline). A cold single-GPU simulation keeps only one pool worker
/// busy rendering and timing frames, so per-benchmark tasks use the
/// pool better: on 2 threads this cut `table2` from 21 s to 13 s at
/// `--scale 0.25`.
pub fn compute_suite(ctx: &Context) -> Vec<BenchmarkData> {
    let selected: Vec<&BenchmarkInfo> = BENCHMARKS
        .iter()
        .filter(|info| ctx.args.selects(info.alias))
        .collect();
    megsim_exec::par_map_indexed(&selected, |_, info| compute_benchmark(ctx, info))
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Renders the Table I machine description.
pub fn table1(ctx: &Context) -> String {
    let g = &ctx.gpu;
    let mut t = TextTable::new(&["parameter", "value"]);
    let mut kv = |k: &str, v: String| {
        t.row(vec![k.to_string(), v]);
    };
    kv("Frequency", format!("{} MHz", g.frequency_mhz));
    kv("Voltage", format!("{} V", g.voltage));
    kv("Technology node", format!("{} nm", g.technology_nm));
    kv(
        "Screen resolution",
        format!("{}x{}", g.viewport.width, g.viewport.height),
    );
    kv("Tile size", format!("{0}x{0} pixels", g.viewport.tile_size));
    kv(
        "Main memory",
        format!(
            "{} banks, {} B lines, {}-{} cycles, {} B/cycle",
            g.dram.banks,
            g.dram.line_size,
            g.dram.row_hit_latency,
            g.dram.row_miss_latency,
            g.dram.bytes_per_cycle
        ),
    );
    kv(
        "Vertex queue",
        format!(
            "{} entries, {} B",
            g.vertex_queue.entries, g.vertex_queue.entry_bytes
        ),
    );
    kv(
        "Triangle & tile queue",
        format!(
            "{} entries, {} B",
            g.triangle_queue.entries, g.triangle_queue.entry_bytes
        ),
    );
    kv(
        "Fragment queue",
        format!(
            "{} entries, {} B",
            g.fragment_queue.entries, g.fragment_queue.entry_bytes
        ),
    );
    kv(
        "Color queue",
        format!(
            "{} entries, {} B",
            g.color_queue.entries, g.color_queue.entry_bytes
        ),
    );
    for c in [&g.vertex_cache, &g.texture_cache, &g.tile_cache, &g.l2] {
        kv(
            &c.name,
            format!(
                "{} KiB, {} bank(s), {} cycle(s), {}-way",
                c.size_bytes / 1024,
                c.banks,
                c.latency,
                c.ways
            ),
        );
    }
    kv("Vertex processors", format!("{}", g.vertex_processors));
    kv("Fragment processors", format!("{}", g.fragment_processors));
    kv(
        "Primitive assembly",
        format!("{} vertex/cycle", g.prim_assembly_cycles_per_vertex),
    );
    kv(
        "Rasterizer",
        format!("{} attribute/cycle", g.rasterizer_cycles_per_attribute),
    );
    kv(
        "Early Z-Test",
        format!("{} in-flight quad-fragments", g.early_z_in_flight),
    );
    format!("TABLE I: GPU simulation parameters\n{}", t.render())
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// Renders the Table II benchmark characterization.
pub fn table2(data: &[BenchmarkData]) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "alias",
        "type",
        "downloads(M)",
        "frames",
        "VS",
        "FS",
        "cycles(M)",
        "IPC",
    ]);
    for d in data {
        t.row(vec![
            d.info.name.to_string(),
            d.info.alias.to_string(),
            d.info.game_type.to_string(),
            d.info.downloads_millions.to_string(),
            d.workload.frames().to_string(),
            d.info.vertex_shaders.to_string(),
            d.info.fragment_shaders.to_string(),
            millions(d.run.actual.cycles as f64),
            format!("{:.2}", d.run.actual.ipc()),
        ]);
    }
    format!("TABLE II: Evaluated benchmark set\n{}", t.render())
}

// ---------------------------------------------------------------------
// Fig. 3 — correlation study
// ---------------------------------------------------------------------

/// One benchmark's correlation results (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationRow {
    /// Pearson ρ between PRIM and total cycles (Eq. 1).
    pub prim: f64,
    /// Multiple correlation R of the VSCV columns vs cycles (Eq. 2).
    pub vscv: f64,
    /// Multiple correlation R of the FSCV columns vs cycles.
    pub fscv: f64,
    /// Multiple correlation R of all shader columns vs cycles.
    pub shaders: f64,
}

/// Computes the Fig. 3 correlation study for one benchmark.
pub fn correlation_row(d: &BenchmarkData) -> CorrelationRow {
    let cycles = d.cycles_series();
    let m = &d.matrix;
    let prim_col = m.column(m.vscv_len + m.fscv_len);
    let vscv_cols: Vec<Vec<f64>> = (0..m.vscv_len).map(|c| m.column(c)).collect();
    let fscv_cols: Vec<Vec<f64>> = (m.vscv_len..m.vscv_len + m.fscv_len)
        .map(|c| m.column(c))
        .collect();
    let all_cols: Vec<Vec<f64>> = vscv_cols.iter().chain(&fscv_cols).cloned().collect();
    CorrelationRow {
        prim: pearson(&prim_col, &cycles).abs(),
        vscv: multiple_correlation(&vscv_cols, &cycles),
        fscv: multiple_correlation(&fscv_cols, &cycles),
        shaders: multiple_correlation(&all_cols, &cycles),
    }
}

/// Renders Fig. 3.
pub fn fig3(data: &[BenchmarkData]) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "PRIM (pearson)",
        "VSCV (R)",
        "FSCV (R)",
        "shaders (R)",
    ]);
    let mut avg = CorrelationRow {
        prim: 0.0,
        vscv: 0.0,
        fscv: 0.0,
        shaders: 0.0,
    };
    for d in data {
        let r = correlation_row(d);
        avg.prim += r.prim;
        avg.vscv += r.vscv;
        avg.fscv += r.fscv;
        avg.shaders += r.shaders;
        t.row(vec![
            d.info.alias.to_string(),
            format!("{:.3}", r.prim),
            format!("{:.3}", r.vscv),
            format!("{:.3}", r.fscv),
            format!("{:.3}", r.shaders),
        ]);
    }
    let n = data.len().max(1) as f64;
    t.row(vec![
        "average".into(),
        format!("{:.3}", avg.prim / n),
        format!("{:.3}", avg.vscv / n),
        format!("{:.3}", avg.fscv / n),
        format!("{:.3}", avg.shaders / n),
    ]);
    format!(
        "FIG 3: Correlation of input parameters with total cycles\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Fig. 4 — power split per pipeline phase
// ---------------------------------------------------------------------

/// Per-benchmark power breakdowns plus the derived §III-C weights.
pub fn power_study(data: &[BenchmarkData]) -> (Vec<PowerBreakdown>, GroupWeights) {
    let model = EnergyModel::default();
    let breakdowns: Vec<PowerBreakdown> = data
        .iter()
        .map(|d| {
            let mut total = PowerBreakdown::default();
            for f in &d.per_frame {
                total.merge(&model.breakdown(f));
            }
            total
        })
        .collect();
    let weights = model.derive_weights(breakdowns.iter());
    (
        breakdowns,
        GroupWeights {
            geometry: weights.geometry,
            raster: weights.raster,
            tiling: weights.tiling,
        },
    )
}

/// Renders Fig. 4.
pub fn fig4(data: &[BenchmarkData]) -> String {
    let (breakdowns, weights) = power_study(data);
    let mut t = TextTable::new(&["benchmark", "Geometry", "Tiling", "Raster"]);
    for (d, b) in data.iter().zip(&breakdowns) {
        let f = b.fractions();
        t.row(vec![
            d.info.alias.to_string(),
            pct(f.geometry),
            pct(f.tiling),
            pct(f.raster),
        ]);
    }
    t.row(vec![
        "average".into(),
        pct(weights.geometry),
        pct(weights.tiling),
        pct(weights.raster),
    ]);
    format!(
        "FIG 4: Fraction of dissipated power per pipeline phase\n{}\npaper weights: Geometry 10.8%  Tiling 14.7%  Raster 74.5%\n",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Fig. 5 / Fig. 6 — similarity matrix and clustering of bbr
// ---------------------------------------------------------------------

/// Builds the (normalized) similarity matrix of one benchmark.
pub fn similarity_of(d: &BenchmarkData, config: &MegsimConfig) -> SimilarityMatrix {
    let normalized = megsim_core::normalize(&d.matrix, &config.weights);
    SimilarityMatrix::from_points(&normalized)
}

/// Renders Fig. 5 (ASCII view; the PGM is written by the binary).
pub fn fig5(d: &BenchmarkData, config: &MegsimConfig, ascii_size: usize) -> String {
    let sim = similarity_of(d, config);
    format!(
        "FIG 5: Similarity matrix for {} ({} frames; darker = more similar)\n{}",
        d.info.alias,
        sim.len(),
        sim.render_ascii(ascii_size)
    )
}

/// Renders Fig. 6: the clusters found along the diagonal.
pub fn fig6(d: &BenchmarkData) -> String {
    let run = &d.run;
    let labels = &run.selection.labels;
    // Diagonal run-length encoding: consecutive frames of one cluster.
    let mut spans: Vec<(usize, usize, usize)> = Vec::new(); // (start, len, cluster)
    for (i, &label) in labels.iter().enumerate() {
        match spans.last_mut() {
            Some((_, len, c)) if *c == label => *len += 1,
            _ => spans.push((i, 1, label)),
        }
    }
    let mut out = format!(
        "FIG 6: k-means clusters for {} — k = {} (BIC over k: {:?})\n",
        d.info.alias,
        run.selection.k(),
        run.selection
            .bic_scores
            .iter()
            .map(|b| (b / 1000.0 * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    out.push_str("diagonal spans (start..end -> cluster):\n");
    for (start, len, c) in spans.iter().take(60) {
        out.push_str(&format!("  {:5}..{:<5} -> c{}\n", start, start + len, c));
    }
    if spans.len() > 60 {
        out.push_str(&format!("  ... {} more spans\n", spans.len() - 60));
    }
    out
}

// ---------------------------------------------------------------------
// Table III / Fig. 7 — reduction factor and accuracy
// ---------------------------------------------------------------------

/// Renders Table III.
pub fn table3(data: &[BenchmarkData]) -> String {
    let mut t = TextTable::new(&["benchmark", "actual frames", "MEGsim frames", "reduction"]);
    let mut total_frames = 0usize;
    let mut total_reps = 0usize;
    for d in data {
        let r = &d.run;
        total_frames += d.workload.frames();
        total_reps += r.frames_simulated();
        t.row(vec![
            d.info.alias.to_string(),
            d.workload.frames().to_string(),
            r.frames_simulated().to_string(),
            times(r.reduction_factor()),
        ]);
    }
    let n = data.len().max(1);
    t.row(vec![
        "average".into(),
        (total_frames / n).to_string(),
        (total_reps / n).to_string(),
        times(total_frames as f64 / total_reps.max(1) as f64),
    ]);
    format!(
        "TABLE III: Reduction factor in the number of frames\n{}",
        t.render()
    )
}

/// Renders Fig. 7.
pub fn fig7(data: &[BenchmarkData]) -> String {
    let mut t = TextTable::new(&["benchmark", "cycles", "DRAM", "L2", "Tile cache"]);
    let mut avg = [0.0f64; 4];
    for d in data {
        let e = d.run.errors;
        avg[0] += e.cycles;
        avg[1] += e.dram_accesses;
        avg[2] += e.l2_accesses;
        avg[3] += e.tile_cache_accesses;
        t.row(vec![
            d.info.alias.to_string(),
            pct(e.cycles),
            pct(e.dram_accesses),
            pct(e.l2_accesses),
            pct(e.tile_cache_accesses),
        ]);
    }
    let n = data.len().max(1) as f64;
    t.row(vec![
        "average".into(),
        pct(avg[0] / n),
        pct(avg[1] / n),
        pct(avg[2] / n),
        pct(avg[3] / n),
    ]);
    format!(
        "FIG 7: Relative error of MEGsim-estimated metrics vs full simulation\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Table IV — comparison with random sub-sampling
// ---------------------------------------------------------------------

/// One Table IV row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// MEGsim's 95 %-confidence max relative cycles error (over seeds).
    pub megsim_max_error: f64,
    /// Mean MEGsim representative count over seeds.
    pub megsim_frames: f64,
    /// Random sub-sampling frames needed to match that error.
    pub random_frames: usize,
}

/// Computes one benchmark's Table IV row: MEGsim is re-run with `seeds`
/// different k-means seedings (the paper uses 100) and random
/// sub-sampling grows until its 95 %-confidence error matches.
pub fn table4_row(
    d: &BenchmarkData,
    config: &MegsimConfig,
    seeds: usize,
    trials: usize,
) -> Table4Row {
    // Every seeding is an independent end-to-end MEGsim run; fan them
    // out on the pool (each run derives everything from its seed index).
    let runs = megsim_exec::par_map_range(seeds, |s| {
        let cfg = (*config).with_seed(config.search.seed ^ (0xABCD + s as u64));
        let run = evaluate_megsim(&d.matrix, &d.per_frame, &cfg);
        (run.errors.cycles, run.frames_simulated())
    });
    let mut errors: Vec<f64> = runs.iter().map(|&(e, _)| e).collect();
    let frames: usize = runs.iter().map(|&(_, f)| f).sum();
    errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let megsim_max_error = quantile(&errors, 0.95).max(1e-6);
    let cycles = d.cycles_series();
    let random_frames = random_sampling::frames_needed_for_target(
        &cycles,
        megsim_max_error,
        trials,
        0.95,
        config.search.seed,
    );
    Table4Row {
        megsim_max_error,
        megsim_frames: frames as f64 / seeds as f64,
        random_frames,
    }
}

/// Renders Table IV.
pub fn table4(
    data: &[BenchmarkData],
    config: &MegsimConfig,
    seeds: usize,
    trials: usize,
) -> String {
    let mut t = TextTable::new(&[
        "benchmark",
        "max rel err",
        "MEGsim frames",
        "random frames",
        "reduction",
    ]);
    let mut sum_m = 0.0;
    let mut sum_r = 0usize;
    let mut sum_e = 0.0;
    for d in data {
        eprintln!("[{}] table IV ({} seeds)...", d.info.alias, seeds);
        let row = table4_row(d, config, seeds, trials);
        sum_m += row.megsim_frames;
        sum_r += row.random_frames;
        sum_e += row.megsim_max_error;
        t.row(vec![
            d.info.alias.to_string(),
            pct(row.megsim_max_error),
            format!("{:.0}", row.megsim_frames),
            row.random_frames.to_string(),
            times(row.random_frames as f64 / row.megsim_frames.max(1.0)),
        ]);
    }
    let n = data.len().max(1) as f64;
    t.row(vec![
        "average".into(),
        pct(sum_e / n),
        format!("{:.1}", sum_m / n),
        format!("{:.1}", sum_r as f64 / n),
        times(sum_r as f64 / sum_m.max(1.0)),
    ]);
    format!(
        "TABLE IV: Frames needed by MEGsim vs random sub-sampling at equal accuracy\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Context {
        let args = ExperimentArgs {
            scale: 0.01,
            seed: 9,
            benchmarks: vec!["jjo".into()],
            ..ExperimentArgs::default()
        };
        let mut ctx = Context::new(args);
        ctx.gpu = GpuConfig::small(192, 192);
        ctx
    }

    #[test]
    fn suite_respects_filter_and_produces_consistent_data() {
        let ctx = tiny_ctx();
        let data = compute_suite(&ctx);
        assert_eq!(data.len(), 1);
        let d = &data[0];
        assert_eq!(d.matrix.frames(), d.per_frame.len());
        assert_eq!(d.matrix.frames(), d.workload.frames());
        assert!(d.run.actual.cycles > 0);
    }

    #[test]
    fn all_renderers_produce_output() {
        let ctx = tiny_ctx();
        let data = compute_suite(&ctx);
        assert!(table1(&ctx).contains("600 MHz"));
        assert!(table2(&data).contains("jjo"));
        assert!(fig3(&data).contains("average"));
        assert!(fig4(&data).contains("Raster"));
        assert!(fig5(&data[0], &ctx.megsim, 20).contains("Similarity"));
        assert!(fig6(&data[0]).contains("k ="));
        assert!(table3(&data).contains("reduction"));
        assert!(fig7(&data).contains("cycles"));
        let t4 = table4(&data, &ctx.megsim, 2, 50);
        assert!(t4.contains("random frames"));
    }

    #[test]
    fn correlation_row_is_sane() {
        let ctx = tiny_ctx();
        let data = compute_suite(&ctx);
        let r = correlation_row(&data[0]);
        for v in [r.prim, r.vscv, r.fscv, r.shaders] {
            assert!((0.0..=1.0).contains(&v), "correlation out of range: {v}");
        }
        // Shader counts must be informative about cycles.
        assert!(r.shaders > 0.5, "shaders R = {}", r.shaders);
    }
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

/// Result of one ablation variant on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Mean cycles error across benchmarks.
    pub cycles_error: f64,
    /// Mean worst-metric error across benchmarks.
    pub max_error: f64,
    /// Mean cluster count across benchmarks.
    pub mean_k: f64,
}

fn ablation_eval(data: &[BenchmarkData], config: &MegsimConfig, variant: &str) -> AblationRow {
    let mut cycles_error = 0.0;
    let mut max_error = 0.0;
    let mut mean_k = 0.0;
    for d in data {
        let run = evaluate_megsim(&d.matrix, &d.per_frame, config);
        cycles_error += run.errors.cycles;
        max_error += run.errors.max();
        mean_k += run.frames_simulated() as f64;
    }
    let n = data.len().max(1) as f64;
    AblationRow {
        variant: variant.to_string(),
        cycles_error: cycles_error / n,
        max_error: max_error / n,
        mean_k: mean_k / n,
    }
}

fn ablation_table(title: &str, rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(&["variant", "cycles err", "worst err", "mean k"]);
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            pct(r.cycles_error),
            pct(r.max_error),
            format!("{:.1}", r.mean_k),
        ]);
    }
    format!("{title}\n{}", t.render())
}

/// Ablation: feature-group weighting schemes (§III-C). The shader-only
/// scheme drops the Tiling information the paper argues is necessary.
pub fn ablation_weights(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    let mut rows = Vec::new();
    for (weights, label) in [
        (GroupWeights::paper(), "power-derived (paper)"),
        (GroupWeights::uniform(), "uniform"),
        (GroupWeights::shader_only(), "shader-only (no PRIM)"),
    ] {
        let mut cfg = *base;
        cfg.weights = weights;
        rows.push(ablation_eval(data, &cfg, label));
    }
    ablation_table("ABLATION: feature-group weighting scheme", &rows)
}

/// Ablation: the BIC threshold `T` of §III-F (accuracy vs cluster
/// count trade-off the paper describes).
pub fn ablation_threshold(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    let mut rows = Vec::new();
    for t in [0.5, 0.7, 0.85, 0.95, 1.0] {
        let mut cfg = *base;
        cfg.search = cfg.search.with_threshold(t);
        rows.push(ablation_eval(data, &cfg, &format!("T = {t}")));
    }
    ablation_table("ABLATION: BIC threshold T (paper default 0.85)", &rows)
}

/// Ablation: texture-filter instruction weighting (§III-B).
pub fn ablation_texture_weights(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    // The matrix must be re-derived per variant, so this ablation
    // recomputes features from the stored activities.
    let mut rows = Vec::new();
    for (flag, label) in [(true, "filter-weighted (paper)"), (false, "unweighted")] {
        let mut cycles_error = 0.0;
        let mut max_error = 0.0;
        let mut mean_k = 0.0;
        for d in data {
            let cfg_feat = megsim_core::CharacterizationConfig {
                weight_texture_filters: flag,
            };
            let activities = d.per_frame.iter().map(|f| &*f.activity);
            let matrix = megsim_core::feature_matrix(activities, d.workload.shaders(), &cfg_feat);
            let run = evaluate_megsim(&matrix, &d.per_frame, base);
            cycles_error += run.errors.cycles;
            max_error += run.errors.max();
            mean_k += run.frames_simulated() as f64;
        }
        let n = data.len().max(1) as f64;
        rows.push(AblationRow {
            variant: label.to_string(),
            cycles_error: cycles_error / n,
            max_error: max_error / n,
            mean_k: mean_k / n,
        });
    }
    ablation_table("ABLATION: texture-filter instruction weighting", &rows)
}

/// Ablation: k-means initialization (k-means++ vs uniform random).
pub fn ablation_init(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    let mut rows = Vec::new();
    for (init, label) in [
        (megsim_cluster::InitMethod::KMeansPlusPlus, "k-means++"),
        (megsim_cluster::InitMethod::Random, "uniform random"),
    ] {
        let mut cfg = *base;
        cfg.search.init = init;
        rows.push(ablation_eval(data, &cfg, label));
    }
    ablation_table("ABLATION: k-means initialization", &rows)
}

/// Ablation: BIC-threshold selection (the paper) vs silhouette-based
/// selection of the cluster count.
pub fn ablation_selection_criterion(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    use megsim_core::estimate::{estimate_totals, metric_errors, sequence_totals};
    let mut rows = vec![ablation_eval(data, base, "BIC threshold (paper)")];
    // Silhouette variant: same normalization, different k selection.
    let mut cycles_error = 0.0;
    let mut max_error = 0.0;
    let mut mean_k = 0.0;
    for d in data {
        let normalized = megsim_core::normalize(&d.matrix, &base.weights);
        let max_k = base.search.max_k.min(48).min(normalized.len());
        let (clustering, _score) =
            megsim_cluster::try_best_by_silhouette(&normalized, max_k.max(2), base.search.seed)
                .expect("non-empty normalized matrix and max_k >= 2");
        let reps: Vec<megsim_core::Representative> = clustering
            .representatives(&normalized)
            .into_iter()
            .zip(clustering.cluster_sizes())
            .map(|(frame_index, cluster_size)| megsim_core::Representative {
                frame_index,
                cluster_size,
            })
            .collect();
        let estimated = estimate_totals(&reps, |i| &d.per_frame[i]);
        let errors = metric_errors(&estimated, &sequence_totals(&d.per_frame));
        cycles_error += errors.cycles;
        max_error += errors.max();
        mean_k += reps.len() as f64;
    }
    let n = data.len().max(1) as f64;
    rows.push(AblationRow {
        variant: "silhouette".to_string(),
        cycles_error: cycles_error / n,
        max_error: max_error / n,
        mean_k: mean_k / n,
    });
    ablation_table("ABLATION: cluster-count selection criterion", &rows)
}

/// Ablation: the strict §III-F stop rule (patience 1) vs the robust
/// default (patience 3).
pub fn ablation_patience(data: &[BenchmarkData], base: &MegsimConfig) -> String {
    let mut rows = Vec::new();
    for p in [1usize, 2, 3, 5] {
        let mut cfg = *base;
        cfg.search = cfg.search.with_patience(p);
        let label = if p == 1 {
            "patience 1 (paper's strict rule)".to_string()
        } else {
            format!("patience {p}")
        };
        rows.push(ablation_eval(data, &cfg, &label));
    }
    ablation_table("ABLATION: BIC search stop rule", &rows)
}

// ---------------------------------------------------------------------
// Rendering-mode study (paper §II-A background + §IV-A extension note)
// ---------------------------------------------------------------------

/// One benchmark × rendering-mode measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRow {
    /// Fragments shaded per frame (average).
    pub fragments_shaded: f64,
    /// DRAM accesses per frame (average).
    pub dram_accesses: f64,
    /// Cycles per frame (average).
    pub cycles: f64,
}

/// Compares TBR (the paper's baseline), TBDR with Hidden Surface
/// Removal (the extension the paper names) and Immediate-Mode Rendering
/// (the §II-A strawman) on the selected benchmarks: TBR should slash
/// IMR's off-chip traffic, TBDR should slash TBR's overdraw shading.
pub fn rendering_modes(ctx: &Context, sample_frames: usize) -> String {
    use megsim_funcsim::RenderMode;
    let mut t = TextTable::new(&[
        "benchmark",
        "mode",
        "frags/frame",
        "DRAM/frame",
        "cycles/frame",
    ]);
    for info in BENCHMARKS.iter().filter(|i| ctx.args.selects(i.alias)) {
        let workload = build(info, ctx.args.scale, ctx.args.seed);
        let n = workload.frames().min(sample_frames.max(1));
        for (mode, label) in [
            (RenderMode::TileBased, "TBR"),
            (RenderMode::TileBasedDeferred, "TBDR+HSR"),
            (RenderMode::Immediate, "IMR"),
        ] {
            let mut gpu = ctx.gpu.clone();
            gpu.render_mode = mode;
            let (stats, _) = simulate(
                (0..n).map(|i| workload.frame(i)),
                workload.shaders(),
                &gpu,
                MultiGpuConfig::single(),
                FrameStart::Cold(Some(&ctx.cache)),
            );
            let row = ModeRow {
                fragments_shaded: stats
                    .iter()
                    .map(|s| s.activity.fragments_shaded as f64)
                    .sum::<f64>()
                    / n as f64,
                dram_accesses: stats.iter().map(|s| s.dram_accesses() as f64).sum::<f64>()
                    / n as f64,
                cycles: stats.iter().map(|s| s.cycles as f64).sum::<f64>() / n as f64,
            };
            t.row(vec![
                info.alias.to_string(),
                label.to_string(),
                format!("{:.0}", row.fragments_shaded),
                format!("{:.0}", row.dram_accesses),
                format!("{:.0}", row.cycles),
            ]);
        }
    }
    format!(
        "RENDERING MODES: TBR vs TBDR (HSR) vs IMR ({} frames sampled per benchmark)\n{}",
        sample_frames,
        t.render()
    )
}
