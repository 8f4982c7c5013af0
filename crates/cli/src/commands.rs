//! Subcommand implementations of the `megsim` tool.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::BufReader;

use megsim_bench::report;
use megsim_core::evaluate::{characterize_sequence, evaluate_megsim, simulate, FrameStart};
use megsim_core::pipeline::{select_representatives, MegsimConfig, Selection, StreamClusterConfig};
use megsim_core::{metric_errors, scaled_totals, sequence_totals, FeatureMatrix, StreamSelection};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::{ShaderKind, ShaderTable};
use megsim_gl::{
    encode_with_version, record_sequence, Command, FrameIter, StreamDecoder, TraceError,
    FORMAT_VERSION,
};
use megsim_timing::{DispatchMode, FrameStats, GpuConfig, MultiGpuConfig, Topology, MAX_GPUS};

const USAGE: &str = "\
usage: megsim <command> [options]

commands:
  record       --benchmark <alias> [--scale F] [--seed N] --out <trace.mglt>
               [--codec-version {1|2}]
               generate a synthetic benchmark and record its GL trace
               (v2 is the compact varint wire format)
  info         <trace.mglt>
               print trace statistics (single streaming decode pass)
  characterize <trace.mglt> [--out features.csv]
               replay the trace functionally and emit the N x D
               feature matrix (paper §III-B)
  select       <trace.mglt> [--out plan.csv] [--seed N] [--stream-cluster]
               cluster the frames and print the representative plan
               (paper §III-E/F)
  estimate     <trace.mglt> [--seed N] [--ground-truth] [--stream-cluster]
               [--gpus N] [--dispatch {afr|sfr}] [--mem {shared|private}]
               run MEGsim end-to-end on the trace: simulate only the
               representatives and report estimated totals; with
               --ground-truth also run the full simulation and report
               the Fig. 7 relative errors. --gpus simulates an N-GPU
               rig (default 1): --dispatch picks alternate-frame (afr,
               frame i on GPU i mod N) or split-frame (sfr, tile bands
               per GPU) work distribution and --mem picks one shared
               contended L2+DRAM back end or a private hierarchy per
               GPU; the accuracy table is then reported per
               (N, dispatch, mem) against the multi-GPU ground truth
  batch        <manifest>
               run a manifest of campaigns concurrently on one worker
               pool and one shared frame cache; each line reads
               `<name> <characterize|estimate> <trace> [seed=N]
               [out=PATH] [ground-truth]` (# comments allowed); prints
               a per-campaign cache-tier table
  help         print this message

global options:
  --threads N  worker threads for the parallel stages (0 = MEGSIM_THREADS
               env or all cores); results are identical at any count
  --no-frame-cache
               disable the content-addressed frame-result cache (results
               are identical either way; only wall-clock time changes)
  --cache-dir DIR
               attach a persistent on-disk frame-result store under DIR
               (also via MEGSIM_CACHE_DIR) so repeated runs start warm
               across processes; corrupt or unwritable store data only
               warns and degrades to a cold run, never fails
  --no-persist ignore MEGSIM_CACHE_DIR for this run
  --stream-cluster
               (select/estimate) fuse characterize + cluster into one
               single-pass online clustering stage with bounded memory:
               only a frame reservoir, the micro-centroids and the
               current frame are retained, O(n*k) in the trace length;
               --reservoir N caps retained feature rows (default 1024;
               0 = unbounded exact mode, bitwise identical to the
               two-pass path) and --stream-batch N sets the mini-batch
               size (default 256)";

/// Dispatches a full argv (including program name).
pub fn run(argv: &[String]) -> Result<(), String> {
    use megsim_core::frame_cache;
    let mut opts = Options::parse(argv)?;
    let threads: usize = opts.flag("threads", 0)?;
    megsim_exec::set_threads(threads);
    frame_cache::set_enabled(!opts.has("no-frame-cache"));
    // Attach the persistent disk tier if requested. Opening can only
    // fail on directory-level problems, and even then the run proceeds
    // cold: a broken cache must never fail a campaign.
    let cache_dir = opts.flags.get("cache-dir").cloned().or_else(|| {
        if opts.has("no-persist") {
            None
        } else {
            std::env::var("MEGSIM_CACHE_DIR")
                .ok()
                .filter(|s| !s.is_empty())
        }
    });
    let store_attached = match &cache_dir {
        Some(dir) => match frame_cache::set_store_dir(std::path::Path::new(dir)) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("warning: cannot open cache dir {dir}: {e}; running cold");
                false
            }
        },
        None => false,
    };
    let before = frame_cache::report();
    let result = match opts.command.as_str() {
        "record" => record(&mut opts),
        "info" => info(&mut opts),
        "characterize" => characterize(&mut opts),
        "select" => select(&mut opts),
        "estimate" => estimate(&mut opts),
        "batch" => batch(&mut opts),
        "help" | "--help" | "-h" | "" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    // Per-invocation cache accounting: the delta since dispatch, not
    // process-lifetime totals (they differ under tests and embedding).
    let delta = frame_cache::report().delta_since(&before);
    let lookups = delta.activity_hits
        + delta.activity_disk_hits
        + delta.activity_shared_hits
        + delta.activity_misses
        + delta.stats_hits
        + delta.stats_disk_hits
        + delta.stats_shared_hits
        + delta.stats_misses;
    if frame_cache::is_enabled() && lookups > 0 {
        eprintln!("{}", delta.summary());
    }
    if store_attached {
        match frame_cache::flush_store() {
            Ok(sealed) => {
                if sealed > 0 {
                    eprintln!("cache store: sealed {sealed} new records");
                }
            }
            Err(e) => eprintln!("warning: cache store flush failed: {e}"),
        }
        // Detach so embedding callers (and the CLI tests) that invoke
        // `run` repeatedly in one process get per-invocation stores.
        frame_cache::detach_store();
    }
    result
}

/// Parsed command line: a subcommand, positional arguments and flags.
struct Options {
    command: String,
    positional: Vec<String>,
    flags: HashMap<String, String>,
    bools: Vec<String>,
}

impl Options {
    fn parse(argv: &[String]) -> Result<Self, String> {
        // Global flags may appear before or after the subcommand: the
        // first non-flag token is the command, everything else keeps
        // its relative meaning.
        let mut command = String::new();
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut bools = Vec::new();
        let rest: Vec<&String> = argv.iter().skip(1).collect();
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i];
            if let Some(name) = a.strip_prefix("--") {
                if name == "ground-truth"
                    || name == "no-frame-cache"
                    || name == "no-persist"
                    || name == "stream-cluster"
                {
                    bools.push(name.to_string());
                    i += 1;
                } else {
                    let value = rest
                        .get(i + 1)
                        .ok_or_else(|| format!("missing value for --{name}"))?;
                    flags.insert(name.to_string(), (*value).clone());
                    i += 2;
                }
            } else if command.is_empty() {
                command = a.clone();
                i += 1;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Self {
            command,
            positional,
            flags,
            bools,
        })
    }

    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v.parse().map_err(|_| format!("invalid --{name}: {v}")),
            None => Ok(default),
        }
    }

    fn required_flag(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn trace_path(&mut self) -> Result<String, String> {
        if self.positional.is_empty() {
            return Err("expected a trace file argument".into());
        }
        Ok(self.positional.remove(0))
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

/// Opens a trace file for frame-granular streaming replay: frames are
/// decoded incrementally off the file handle, never materialized as a
/// whole sequence.
fn open_frames(path: &str) -> Result<FrameIter<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FrameIter::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

/// Adapts the fallible streaming frame iterator into the infallible
/// shape the parallel passes consume, parking the first decode/replay
/// error for the caller to check once the pass finishes.
struct StreamedFrames {
    iter: FrameIter<BufReader<File>>,
    error: Option<TraceError>,
}

impl StreamedFrames {
    fn open(path: &str) -> Result<Self, String> {
        Ok(Self {
            iter: open_frames(path)?,
            error: None,
        })
    }

    /// Surfaces the parked error, if the stream ended on one.
    fn finish(self, path: &str) -> Result<(), String> {
        match self.error {
            Some(e) => Err(format!("{path}: {e}")),
            None => Ok(()),
        }
    }
}

impl Iterator for StreamedFrames {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        match self.iter.next()? {
            Ok(frame) => Some(frame),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// One streaming characterization pass over a trace file: returns the
/// shader library (decoded from the trace prelude) and the `N × D`
/// feature matrix, holding only a window of frames in memory.
fn characterize_trace(
    path: &str,
    gpu: &GpuConfig,
    config: &MegsimConfig,
) -> Result<(ShaderTable, FeatureMatrix), String> {
    let mut frames = StreamedFrames::open(path)?;
    let shaders = frames.iter.shaders().clone();
    let matrix = characterize_sequence(&mut frames, &shaders, gpu, config);
    frames.finish(path)?;
    Ok((shaders, matrix))
}

/// Parses the streaming-clustering knobs shared by `select` and
/// `estimate` (`--reservoir`, `--stream-batch`).
fn stream_cluster_config(opts: &Options) -> Result<StreamClusterConfig, String> {
    let defaults = StreamClusterConfig::default();
    let capacity: usize = opts.flag("reservoir", defaults.reservoir_capacity)?;
    let batch: usize = opts.flag("stream-batch", defaults.batch_size)?;
    if batch == 0 {
        return Err("--stream-batch must be at least 1".into());
    }
    Ok(defaults
        .with_reservoir_capacity(capacity)
        .with_batch_size(batch))
}

/// One fused decode → characterize → cluster pass over a trace file
/// (`--stream-cluster`): frames flow through the online clusterer and
/// are dropped, so memory stays bounded by the reservoir instead of
/// growing with the trace. Returns the shader library and the
/// streaming selection.
fn select_stream(
    path: &str,
    gpu: &GpuConfig,
    config: &MegsimConfig,
    stream: &StreamClusterConfig,
) -> Result<(ShaderTable, StreamSelection), String> {
    let mut frames = StreamedFrames::open(path)?;
    let shaders = frames.iter.shaders().clone();
    let selection = megsim_core::characterize_stream(&mut frames, &shaders, gpu, config, stream);
    frames.finish(path)?;
    Ok((shaders, selection))
}

/// Second streaming pass of `estimate`: re-decodes the trace, keeps
/// only the representative frames, simulates each one cold on `rig`
/// and scales its statistics by its cluster size — MEGsim's estimate
/// of the trace's totals.
fn estimate_representatives(
    path: &str,
    selection: &Selection,
    shaders: &ShaderTable,
    gpu: &GpuConfig,
    rig: MultiGpuConfig,
) -> Result<FrameStats, String> {
    let wanted: HashSet<usize> = selection
        .representatives
        .iter()
        .map(|r| r.frame_index)
        .collect();
    let mut reps = HashMap::with_capacity(wanted.len());
    for (i, frame) in open_frames(path)?.enumerate() {
        if reps.len() == wanted.len() {
            break;
        }
        let frame = frame.map_err(|e| format!("{path}: {e}"))?;
        if wanted.contains(&i) {
            reps.insert(i, frame);
        }
    }
    let frames: Vec<Frame> = selection
        .representatives
        .iter()
        .map(|r| reps.remove(&r.frame_index))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{path}: trace ended before every representative frame"))?;
    let (rep_stats, _) = simulate(frames.into_iter(), shaders, gpu, rig, FrameStart::Cold);
    Ok(scaled_totals(&selection.representatives, &rep_stats))
}

fn record(opts: &mut Options) -> Result<(), String> {
    let alias = opts.required_flag("benchmark")?.to_string();
    let scale: f64 = opts.flag("scale", 0.1)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("--scale must be a positive number, got {scale}"));
    }
    let seed: u64 = opts.flag("seed", 42)?;
    let out = opts.required_flag("out")?.to_string();
    let version: u16 = opts.flag("codec-version", FORMAT_VERSION)?;
    let workload = megsim_workloads::by_alias(&alias, scale, seed).ok_or_else(|| {
        format!("unknown benchmark '{alias}' (try asp, bbr1, bbr2, hcr, hwh, jjo, pvz, spd)")
    })?;
    let frames: Vec<Frame> = workload.generate_frames();
    let stream = record_sequence(workload.shaders(), &frames);
    let bytes = encode_with_version(&stream, version)
        .ok_or_else(|| format!("unsupported --codec-version {version} (supported: 1, 2)"))?;
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "recorded {} ({} frames, {} draws) -> {} ({} bytes, MGLT v{version})",
        workload.name,
        stream.frame_count(),
        stream.draw_count(),
        out,
        bytes.len()
    );
    Ok(())
}

fn info(opts: &mut Options) -> Result<(), String> {
    let path = opts.trace_path()?;
    let file = File::open(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let size = file
        .metadata()
        .map_err(|e| format!("cannot stat {path}: {e}"))?
        .len();
    // One incremental decode pass: commands are counted as they stream
    // by, so memory stays O(1) in the trace length.
    let mut decoder =
        StreamDecoder::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let version = decoder.version();
    let (mut commands, mut frames, mut draws) = (0u64, 0u64, 0u64);
    let (mut vertex, mut fragment) = (0u64, 0u64);
    for cmd in &mut decoder {
        let cmd = cmd.map_err(|e| format!("{path}: {e}"))?;
        commands += 1;
        match cmd {
            Command::SwapBuffers => frames += 1,
            Command::Draw(_) => draws += 1,
            Command::ProgramData(p) => match p.kind {
                ShaderKind::Vertex => vertex += 1,
                ShaderKind::Fragment => fragment += 1,
            },
            _ => {}
        }
    }
    println!("trace:             {path}");
    println!("format:            MGLT v{version}");
    println!("size:              {size} bytes");
    println!("commands:          {commands}");
    println!("frames:            {frames}");
    println!("draw calls:        {draws}");
    println!("vertex shaders:    {vertex}");
    println!("fragment shaders:  {fragment}");
    let draws_per_frame = draws as f64 / frames.max(1) as f64;
    println!("draws per frame:   {draws_per_frame:.1}");
    Ok(())
}

fn characterize(opts: &mut Options) -> Result<(), String> {
    let path = opts.trace_path()?;
    let gpu = GpuConfig::mali450_like();
    let (_, matrix) = characterize_trace(&path, &gpu, &MegsimConfig::default())?;
    let csv = report::feature_matrix_csv(&matrix);
    match opts.flags.get("out") {
        Some(out) => {
            std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "wrote {} x {} feature matrix to {out}",
                matrix.frames(),
                matrix.dim()
            );
        }
        None => print!("{csv}"),
    }
    Ok(())
}

fn select(opts: &mut Options) -> Result<(), String> {
    let path = opts.trace_path()?;
    let seed: u64 = opts.flag("seed", 42)?;
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default().with_seed(seed);
    let selection = if opts.has("stream-cluster") {
        let stream = stream_cluster_config(opts)?;
        let (_, streamed) = select_stream(&path, &gpu, &config, &stream)?;
        eprintln!(
            "stream-cluster: retained {} of {} rows (peak {}), probe k {}",
            streamed.reservoir_len,
            streamed.selection.labels.len(),
            streamed.peak_rows_retained,
            streamed.live_k
        );
        streamed.selection
    } else {
        let (_, matrix) = characterize_trace(&path, &gpu, &config)?;
        select_representatives(&matrix, &config)
    };
    println!(
        "{} frames -> {} representatives ({:.1}x reduction)",
        selection.labels.len(),
        selection.k(),
        selection.reduction_factor()
    );
    let mut csv = String::from("cluster,frame,cluster_size\n");
    for (c, r) in selection.representatives.iter().enumerate() {
        use std::fmt::Write as _;
        let _ = writeln!(csv, "{c},{},{}", r.frame_index, r.cluster_size);
        println!(
            "  cluster {c:>3}: frame {:>6} x {:>6}",
            r.frame_index, r.cluster_size
        );
    }
    if let Some(out) = opts.flags.get("out") {
        std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("plan written to {out}");
    }
    Ok(())
}

/// Parses the multi-GPU scenario flags (`--gpus`, `--dispatch`,
/// `--mem`). Without them the rig is the single GPU.
fn multi_gpu_options(opts: &Options) -> Result<MultiGpuConfig, String> {
    let gpus: usize = opts.flag("gpus", 1)?;
    if gpus == 0 {
        return Err("--gpus must be at least 1".into());
    }
    if gpus > MAX_GPUS {
        return Err(format!("--gpus must be at most {MAX_GPUS}, got {gpus}"));
    }
    let dispatch = match opts.flags.get("dispatch").map(String::as_str) {
        None | Some("afr") => DispatchMode::AlternateFrame,
        Some("sfr") => DispatchMode::SplitFrame,
        Some(other) => return Err(format!("invalid --dispatch: {other} (afr or sfr)")),
    };
    let topology = match opts.flags.get("mem").map(String::as_str) {
        None | Some("private") => Topology::Private,
        Some("shared") => Topology::Shared,
        Some(other) => return Err(format!("invalid --mem: {other} (shared or private)")),
    };
    Ok(MultiGpuConfig::new(gpus, dispatch, topology))
}

fn dispatch_name(dispatch: DispatchMode) -> &'static str {
    match dispatch {
        DispatchMode::AlternateFrame => "afr",
        DispatchMode::SplitFrame => "sfr",
    }
}

fn topology_name(topology: Topology) -> &'static str {
    match topology {
        Topology::Shared => "shared",
        Topology::Private => "private",
    }
}

fn estimate(opts: &mut Options) -> Result<(), String> {
    let path = opts.trace_path()?;
    let seed: u64 = opts.flag("seed", 42)?;
    let ground_truth = opts.has("ground-truth");
    let rig = multi_gpu_options(opts)?;
    // With rig flags the ground truth is the warm rig sequence and the
    // accuracy table is reported per rig; without them it is the
    // paper's cold per-frame ground truth.
    let rig_scenario = ["gpus", "dispatch", "mem"]
        .iter()
        .any(|f| opts.flags.contains_key(*f));
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default().with_seed(seed);
    // The fused single-pass path never materializes the feature
    // matrix, so `--ground-truth` errors are then computed from the
    // scaled representative totals instead of `evaluate_megsim`.
    let (shaders, matrix, selection) = if opts.has("stream-cluster") {
        let stream = stream_cluster_config(opts)?;
        let (shaders, streamed) = select_stream(&path, &gpu, &config, &stream)?;
        eprintln!(
            "stream-cluster: retained {} of {} rows (peak {}), probe k {}",
            streamed.reservoir_len,
            streamed.selection.labels.len(),
            streamed.peak_rows_retained,
            streamed.live_k
        );
        (shaders, None, streamed.selection)
    } else {
        let (shaders, matrix) = characterize_trace(&path, &gpu, &config)?;
        let selection = select_representatives(&matrix, &config);
        (shaders, Some(matrix), selection)
    };
    // A second streaming pass picks up just the representative frames
    // (the rest of the trace flows through without being retained) and
    // simulates each on a fresh rig.
    let estimated = estimate_representatives(&path, &selection, &shaders, &gpu, rig)?;
    if rig_scenario {
        println!(
            "multi-GPU rig: {} GPUs, {} dispatch, {} memory",
            rig.gpus,
            dispatch_name(rig.dispatch),
            topology_name(rig.topology)
        );
    }
    println!(
        "simulated {} of {} frames ({:.1}x fewer)",
        selection.k(),
        selection.labels.len(),
        selection.reduction_factor()
    );
    println!("estimated totals:");
    println!("  cycles:              {}", estimated.cycles);
    println!("  DRAM accesses:       {}", estimated.dram_accesses());
    println!("  L2 accesses:         {}", estimated.l2_accesses());
    println!("  tile-cache accesses: {}", estimated.tile_cache_accesses());
    println!("  IPC:                 {:.2}", estimated.ipc());
    if ground_truth {
        eprintln!("running full ground-truth simulation...");
        // Third streaming pass: the full simulation also replays off
        // the file handle, overlapping decode with render and timing.
        let mut frames = StreamedFrames::open(&path)?;
        let start = if rig_scenario {
            FrameStart::Warm
        } else {
            FrameStart::Cold
        };
        let (per_frame, report) = simulate(&mut frames, &shaders, &gpu, rig, start);
        frames.finish(&path)?;
        if rig_scenario {
            let actual = sequence_totals(&per_frame);
            let errors = metric_errors(&estimated, &actual);
            println!(
                "interconnect: {} line transfers, {} bytes, {} busy cycles",
                report.transfers(),
                report.bytes(),
                report.busy_cycles()
            );
            println!("relative errors vs full multi-GPU simulation:");
            println!("  N  dispatch  mem      cycles     DRAM       L2         tile");
            println!(
                "  {:<2} {:<9} {:<8} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
                rig.gpus,
                dispatch_name(rig.dispatch),
                topology_name(rig.topology),
                errors.cycles * 100.0,
                errors.dram_accesses * 100.0,
                errors.l2_accesses * 100.0,
                errors.tile_cache_accesses * 100.0
            );
            return Ok(());
        }
        let errors = match &matrix {
            Some(matrix) => {
                let run = evaluate_megsim(matrix, &per_frame, &config);
                println!("relative errors vs full simulation (estimates from full-run frames):");
                run.errors
            }
            None => {
                let actual = sequence_totals(&per_frame);
                println!(
                    "relative errors vs full simulation (estimates from representative runs):"
                );
                metric_errors(&estimated, &actual)
            }
        };
        println!("  cycles:              {:.3}%", errors.cycles * 100.0);
        println!(
            "  DRAM accesses:       {:.3}%",
            errors.dram_accesses * 100.0
        );
        println!("  L2 accesses:         {:.3}%", errors.l2_accesses * 100.0);
        println!(
            "  tile-cache accesses: {:.3}%",
            errors.tile_cache_accesses * 100.0
        );
    }
    Ok(())
}

/// Runs one batch campaign body. Returns the campaign's one-line
/// summary; all detail goes to `out=` files so concurrent campaigns
/// never interleave on stdout.
fn run_campaign(job: &megsim_core::BatchJob) -> Result<String, String> {
    use megsim_core::BatchOp;
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default().with_seed(job.seed);
    match job.op {
        BatchOp::Characterize => {
            let (_, matrix) = characterize_trace(&job.trace, &gpu, &config)?;
            let mut summary = format!("{} x {} features", matrix.frames(), matrix.dim());
            if let Some(out) = &job.out {
                let csv = report::feature_matrix_csv(&matrix);
                std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
                summary.push_str(&format!(" -> {out}"));
            }
            Ok(summary)
        }
        BatchOp::Estimate => {
            let (shaders, matrix) = characterize_trace(&job.trace, &gpu, &config)?;
            let selection = select_representatives(&matrix, &config);
            let estimated = estimate_representatives(
                &job.trace,
                &selection,
                &shaders,
                &gpu,
                MultiGpuConfig::single(),
            )?;
            let mut summary = format!(
                "{}/{} frames, {} cycles",
                selection.k(),
                matrix.frames(),
                estimated.cycles
            );
            if job.ground_truth {
                let mut frames = StreamedFrames::open(&job.trace)?;
                let (per_frame, _) = simulate(
                    &mut frames,
                    &shaders,
                    &gpu,
                    MultiGpuConfig::single(),
                    FrameStart::Cold,
                );
                frames.finish(&job.trace)?;
                let run = evaluate_megsim(&matrix, &per_frame, &config);
                summary.push_str(&format!(", cycles err {:.3}%", run.errors.cycles * 100.0));
            }
            if let Some(out) = &job.out {
                let mut csv = String::from("metric,value\n");
                use std::fmt::Write as _;
                let _ = writeln!(csv, "frames,{}", matrix.frames());
                let _ = writeln!(csv, "representatives,{}", selection.k());
                let _ = writeln!(csv, "cycles,{}", estimated.cycles);
                let _ = writeln!(csv, "dram_accesses,{}", estimated.dram_accesses());
                let _ = writeln!(csv, "l2_accesses,{}", estimated.l2_accesses());
                let _ = writeln!(
                    csv,
                    "tile_cache_accesses,{}",
                    estimated.tile_cache_accesses()
                );
                std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
                summary.push_str(&format!(" -> {out}"));
            }
            Ok(summary)
        }
    }
}

fn batch(opts: &mut Options) -> Result<(), String> {
    let manifest_path = opts.trace_path()?;
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {manifest_path}: {e}"))?;
    let jobs = megsim_core::parse_manifest(&text).map_err(|e| format!("{manifest_path}: {e}"))?;
    if jobs.is_empty() {
        return Err(format!("{manifest_path}: no campaigns in manifest"));
    }
    eprintln!(
        "batch: {} campaigns on {} worker threads",
        jobs.len(),
        megsim_exec::thread_count()
    );
    let report = megsim_core::run_batch(&jobs, run_campaign);
    print!("{}", report.table());
    if report.failures() > 0 {
        Err(format!(
            "{} of {} campaigns failed",
            report.failures(),
            report.campaigns.len()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        std::iter::once("megsim")
            .chain(parts.iter().copied())
            .map(str::to_string)
            .collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("megsim_cli_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_str().expect("utf-8").to_string()
    }

    #[test]
    fn help_runs() {
        run(&argv(&["help"])).expect("help works");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn record_requires_benchmark() {
        assert!(run(&argv(&["record", "--out", "/tmp/x.mglt"])).is_err());
        assert!(run(&argv(&[
            "record",
            "--benchmark",
            "nope",
            "--out",
            "/tmp/x.mglt"
        ]))
        .is_err());
    }

    #[test]
    fn record_info_select_estimate_pipeline() {
        let trace = tmp("pipeline.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "hcr",
            "--scale",
            "0.01",
            "--seed",
            "5",
            "--out",
            &trace,
        ]))
        .expect("record");
        run(&argv(&["info", &trace])).expect("info");
        let features = tmp("features.csv");
        run(&argv(&["characterize", &trace, "--out", &features])).expect("characterize");
        let csv = std::fs::read_to_string(&features).expect("features written");
        assert!(csv.starts_with("frame,vscv_0"));
        let plan = tmp("plan.csv");
        run(&argv(&["select", &trace, "--out", &plan])).expect("select");
        let plan_csv = std::fs::read_to_string(&plan).expect("plan written");
        assert!(plan_csv.starts_with("cluster,frame,cluster_size"));
        assert!(plan_csv.lines().count() > 1);
    }

    #[test]
    fn stream_cluster_exact_mode_matches_the_two_pass_plan() {
        let trace = tmp("stream_exact.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--out",
            &trace,
        ]))
        .expect("record");
        let batch_plan = tmp("stream_exact_batch.csv");
        run(&argv(&["select", &trace, "--out", &batch_plan])).expect("two-pass select");
        let stream_plan = tmp("stream_exact_stream.csv");
        run(&argv(&[
            "select",
            &trace,
            "--stream-cluster",
            "--reservoir",
            "0",
            "--out",
            &stream_plan,
        ]))
        .expect("single-pass select");
        let batch_csv = std::fs::read_to_string(&batch_plan).expect("batch plan");
        let stream_csv = std::fs::read_to_string(&stream_plan).expect("stream plan");
        assert_eq!(
            batch_csv, stream_csv,
            "exact streaming mode must reproduce the two-pass plan"
        );
    }

    #[test]
    fn stream_cluster_bounded_estimate_runs_with_ground_truth() {
        let trace = tmp("stream_bounded.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.02",
            "--seed",
            "11",
            "--out",
            &trace,
        ]))
        .expect("record");
        run(&argv(&[
            "estimate",
            &trace,
            "--stream-cluster",
            "--reservoir",
            "24",
            "--stream-batch",
            "8",
            "--ground-truth",
        ]))
        .expect("bounded streaming estimate");
    }

    #[test]
    fn stream_cluster_rejects_a_zero_mini_batch() {
        let err = run(&argv(&[
            "select",
            "/nonexistent/x.mglt",
            "--stream-cluster",
            "--stream-batch",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("stream-batch"), "{err}");
    }

    #[test]
    fn estimate_runs_a_multi_gpu_scenario_end_to_end() {
        let trace = tmp("multi_gpu.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.01",
            "--seed",
            "6",
            "--out",
            &trace,
        ]))
        .expect("record");
        for (dispatch, mem) in [("afr", "shared"), ("sfr", "private")] {
            run(&argv(&[
                "estimate",
                &trace,
                "--gpus",
                "2",
                "--dispatch",
                dispatch,
                "--mem",
                mem,
                "--ground-truth",
            ]))
            .unwrap_or_else(|e| panic!("estimate --dispatch {dispatch} --mem {mem}: {e}"));
        }
    }

    #[test]
    fn estimate_rejects_bad_multi_gpu_flags() {
        let err = run(&argv(&["estimate", "/nonexistent/x.mglt", "--gpus", "0"])).unwrap_err();
        assert!(err.contains("gpus"), "{err}");
        let err = run(&argv(&[
            "estimate",
            "/nonexistent/x.mglt",
            "--dispatch",
            "checkerboard",
        ]))
        .unwrap_err();
        assert!(err.contains("dispatch"), "{err}");
        let err = run(&argv(&["estimate", "/nonexistent/x.mglt", "--mem", "numa"])).unwrap_err();
        assert!(err.contains("mem"), "{err}");
        // A GPU count far beyond any host's memory is an input error,
        // not an allocation abort.
        let err = run(&argv(&[
            "estimate",
            "/nonexistent/x.mglt",
            "--gpus",
            "100000000000",
        ]))
        .unwrap_err();
        assert!(err.contains("--gpus"), "{err}");
        let too_many = (MAX_GPUS + 1).to_string();
        let err = run(&argv(&[
            "estimate",
            "/nonexistent/x.mglt",
            "--gpus",
            &too_many,
        ]))
        .unwrap_err();
        assert!(err.contains("--gpus"), "{err}");
    }

    #[test]
    fn record_rejects_a_non_positive_or_non_finite_scale() {
        let out = tmp("bad_scale.mglt");
        let _ = std::fs::remove_file(&out);
        for scale in ["0", "-1", "nan", "inf"] {
            let err = run(&argv(&[
                "record",
                "--benchmark",
                "jjo",
                "--scale",
                scale,
                "--out",
                &out,
            ]))
            .unwrap_err();
            assert!(err.contains("--scale"), "--scale {scale}: {err}");
        }
        assert!(
            !std::path::Path::new(&out).exists(),
            "a rejected --scale must not record a trace"
        );
    }

    #[test]
    fn v2_traces_replay_identically_to_v1() {
        let v1 = tmp("codec_v1.mglt");
        let v2 = tmp("codec_v2.mglt");
        for (path, version) in [(&v1, "1"), (&v2, "2")] {
            run(&argv(&[
                "record",
                "--benchmark",
                "jjo",
                "--scale",
                "0.01",
                "--seed",
                "9",
                "--codec-version",
                version,
                "--out",
                path,
            ]))
            .expect("record");
        }
        let v1_size = std::fs::metadata(&v1).expect("v1 written").len();
        let v2_size = std::fs::metadata(&v2).expect("v2 written").len();
        assert!(v2_size < v1_size, "v2 ({v2_size}) not smaller ({v1_size})");
        run(&argv(&["info", &v2])).expect("info decodes v2");
        let f1 = tmp("codec_v1.csv");
        let f2 = tmp("codec_v2.csv");
        run(&argv(&["characterize", &v1, "--out", &f1])).expect("characterize v1");
        run(&argv(&["characterize", &v2, "--out", &f2])).expect("characterize v2");
        let csv1 = std::fs::read_to_string(&f1).expect("v1 features");
        let csv2 = std::fs::read_to_string(&f2).expect("v2 features");
        assert_eq!(csv1, csv2, "wire version changed replay semantics");
    }

    #[test]
    fn record_rejects_unknown_codec_version() {
        let out = tmp("codec_v3.mglt");
        let err = run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.01",
            "--codec-version",
            "3",
            "--out",
            &out,
        ]))
        .unwrap_err();
        assert!(err.contains("codec-version"), "{err}");
    }

    #[test]
    fn batch_runs_manifest_campaigns() {
        let trace = tmp("batch.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.01",
            "--seed",
            "3",
            "--out",
            &trace,
        ]))
        .expect("record");
        let feat = tmp("batch_features.csv");
        let est = tmp("batch_estimate.csv");
        let manifest = tmp("batch.manifest");
        std::fs::write(
            &manifest,
            format!(
                "# two campaigns over one trace\n\
                 feats characterize {trace} out={feat}\n\
                 totals estimate {trace} seed=5 out={est}\n"
            ),
        )
        .expect("write manifest");
        run(&argv(&["batch", &manifest])).expect("batch");
        let csv = std::fs::read_to_string(&feat).expect("features written");
        assert!(csv.starts_with("frame,vscv_0"));
        let csv = std::fs::read_to_string(&est).expect("estimate written");
        assert!(csv.starts_with("metric,value"));
        assert!(csv.contains("cycles,"));
    }

    #[test]
    fn batch_surfaces_campaign_failures() {
        let manifest = tmp("bad_batch.manifest");
        std::fs::write(&manifest, "ghost estimate /nonexistent/x.mglt\n").expect("write");
        let err = run(&argv(&["batch", &manifest])).unwrap_err();
        assert!(err.contains("1 of 1"), "{err}");
    }

    #[test]
    fn bad_cache_dir_warns_but_does_not_fail() {
        let trace = tmp("cachedir.mglt");
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.01",
            "--seed",
            "8",
            "--out",
            &trace,
        ]))
        .expect("record");
        // A cache dir that cannot be created (parent is a file): the
        // run must degrade to cold, not fail.
        let blocker = tmp("not_a_dir");
        std::fs::write(&blocker, b"file").expect("write");
        let inside = format!("{blocker}/cache");
        run(&argv(&["characterize", &trace, "--cache-dir", &inside])).expect("runs cold");
    }

    #[test]
    fn info_rejects_garbage_files() {
        let bad = tmp("bad.mglt");
        std::fs::write(&bad, b"not a trace").expect("write");
        let err = run(&argv(&["info", &bad])).unwrap_err();
        assert!(err.contains("MGLT"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(run(&argv(&["info", "/nonexistent/x.mglt"])).is_err());
    }
}
