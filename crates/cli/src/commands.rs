//! Subcommand implementations of the `megsim` tool.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

use megsim_bench::report;
use megsim_core::evaluate::characterize_sequence;
use megsim_core::flow::{self, Flow, FlowError, FrameSource, Frames};
use megsim_core::pipeline::{MegsimConfig, Selection, StreamClusterConfig, StreamSelection};
use megsim_core::{FeatureMatrix, FrameCache, MetricErrors};
use megsim_gfx::draw::Frame;
use megsim_gfx::shader::{ShaderKind, ShaderTable};
use megsim_gl::{
    encode_with_version, record_sequence, Command, FrameIter, StreamDecoder, TraceError,
    FORMAT_VERSION,
};
use megsim_timing::{
    DispatchMode, FrameStats, GpuConfig, MultiGpuConfig, MultiGpuReport, Topology, MAX_GPUS,
};

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
  help         print this message (also --help or -h anywhere)

global options:
  --threads N  worker threads for the parallel stages (0 = MEGSIM_THREADS
               env or all cores; at most 1024); results are identical at
               any count
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

/// Options every command accepts.
const GLOBAL_FLAGS: &[&str] = &["threads", "no-frame-cache", "cache-dir", "no-persist"];

/// The flags `command` reads besides [`GLOBAL_FLAGS`], or `None` for an
/// unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "record" => &["benchmark", "scale", "seed", "out", "codec-version"],
        "characterize" => &["out"],
        "select" => &["out", "seed", "stream-cluster", "reservoir", "stream-batch"],
        "estimate" => &[
            "seed",
            "ground-truth",
            "stream-cluster",
            "reservoir",
            "stream-batch",
            "gpus",
            "dispatch",
            "mem",
        ],
        "info" | "batch" => &[],
        _ => return None,
    })
}

/// Dispatches a full argv (including program name).
pub fn run(argv: &[String]) -> Result<(), String> {
    let mut opts = Options::parse(argv)?;
    if opts.has("help") || matches!(opts.command.as_str(), "help" | "") {
        println!("{USAGE}");
        return Ok(());
    }
    let command = opts.command.clone();
    let allowed =
        command_flags(&command).ok_or_else(|| format!("unknown command '{command}'\n{USAGE}"))?;
    opts.reject_unknown_flags(allowed)?;
    let threads: usize = opts.flag("threads", 0)?;
    if threads > megsim_exec::MAX_THREADS {
        return Err(format!(
            "--threads must be at most {}, got {threads}",
            megsim_exec::MAX_THREADS
        ));
    }
    // One frame cache for the whole invocation, so every pass (and every
    // batch campaign) reuses the others' frames; none with
    // --no-frame-cache.
    let cache = (!opts.has("no-frame-cache")).then(|| open_cache(&opts));
    let cache = cache.as_ref();
    let result = megsim_exec::with_threads(threads, || match command.as_str() {
        "record" => record(&mut opts),
        "info" => info(&mut opts),
        "characterize" => characterize(&mut opts, cache),
        "select" => select(&mut opts, cache),
        "estimate" => estimate(&mut opts, cache).map(|out| print!("{out}")),
        "batch" => batch(&mut opts, cache),
        other => unreachable!("command_flags accepted '{other}'"),
    });
    if let Some(cache) = cache {
        if cache.counts().lookups() > 0 {
            eprintln!("{}", cache.summary());
        }
        match cache.flush() {
            Ok(0) => {}
            Ok(sealed) => eprintln!("cache store: sealed {sealed} new records"),
            Err(e) => eprintln!("warning: cache store flush failed: {e}"),
        }
    }
    result
}

/// The invocation's frame cache, over the persistent disk tier if one
/// is requested. Opening the store can only fail on directory-level
/// problems, and even then the run proceeds cold: a broken cache must
/// never fail a campaign.
fn open_cache(opts: &Options) -> FrameCache {
    let cache_dir = opts.flags.get("cache-dir").cloned().or_else(|| {
        if opts.has("no-persist") {
            None
        } else {
            std::env::var("MEGSIM_CACHE_DIR")
                .ok()
                .filter(|s| !s.is_empty())
        }
    });
    match cache_dir {
        Some(dir) => FrameCache::open(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            eprintln!("warning: cannot open cache dir {dir}: {e}; running cold");
            FrameCache::new()
        }),
        None => FrameCache::new(),
    }
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
            if a == "-h" {
                bools.push("help".to_string());
                i += 1;
            } else if let Some(name) = a.strip_prefix("--") {
                if name == "ground-truth"
                    || name == "help"
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

    /// Fails naming a flag that is neither global nor in `allowed` (the
    /// alphabetically first, if there are several).
    fn reject_unknown_flags(&self, allowed: &[&str]) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .chain(&self.bools)
            .filter(|f| !GLOBAL_FLAGS.contains(&f.as_str()) && !allowed.contains(&f.as_str()))
            .min();
        match unknown {
            Some(flag) => Err(format!(
                "unknown option --{flag} for '{}' (see megsim --help)",
                self.command
            )),
            None => Ok(()),
        }
    }
}

/// Adapts the fallible streaming frame iterator into the infallible
/// shape the parallel passes consume, parking the first decode/replay
/// error for [`TraceFile::pass`] to check once the pass finishes.
struct StreamedFrames {
    iter: FrameIter<BufReader<File>>,
    error: Option<TraceError>,
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

/// A trace file as a flow's frame source: every pass decodes it afresh,
/// frame by frame off the file handle, never materializing the
/// sequence. The shader library comes from the trace prelude.
struct TraceFile<'a>(&'a str);

impl FrameSource for TraceFile<'_> {
    type Error = String;

    fn pass<T>(&self, pass: impl FnOnce(&mut Frames<'_>, &ShaderTable) -> T) -> Result<T, String> {
        let path = self.0;
        let file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let iter = FrameIter::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
        let shaders = iter.shaders().clone();
        let mut frames = StreamedFrames { iter, error: None };
        let result = pass(&mut frames, &shaders);
        match frames.error {
            Some(e) => Err(format!("{path}: {e}")),
            None => Ok(result),
        }
    }
}

/// A flow error on the trace at `path`, as the CLI reports it.
fn trace_error(path: &str, error: FlowError<String>) -> String {
    match error {
        FlowError::Source(e) => e,
        FlowError::NoFrames => format!("{path}: trace has no frames"),
        FlowError::MissingFrame => {
            format!("{path}: trace ended before every representative frame")
        }
    }
}

/// One streaming characterization pass: the `N × D` feature matrix.
fn characterize_trace(path: &str, cache: Option<&FrameCache>) -> Result<FeatureMatrix, String> {
    let gpu = GpuConfig::mali450_like();
    let config = MegsimConfig::default();
    TraceFile(path)
        .pass(|frames, shaders| characterize_sequence(frames, shaders, &gpu, &config, cache))
}

/// Parses the streaming-clustering knobs shared by `select` and
/// `estimate` (`--stream-cluster`, `--reservoir`, `--stream-batch`).
fn stream_cluster_config(opts: &Options) -> Result<Option<StreamClusterConfig>, String> {
    if !opts.has("stream-cluster") {
        return Ok(None);
    }
    let defaults = StreamClusterConfig::default();
    let capacity: usize = opts.flag("reservoir", defaults.reservoir_capacity)?;
    let batch: usize = opts.flag("stream-batch", defaults.batch_size)?;
    if batch == 0 {
        return Err("--stream-batch must be at least 1".into());
    }
    Ok(Some(
        defaults
            .with_reservoir_capacity(capacity)
            .with_batch_size(batch),
    ))
}

/// Reports a `--stream-cluster` selection's reservoir on stderr.
fn report_footprint(flow: &Flow<'_>, s: &StreamSelection) {
    if flow.stream.is_some() {
        eprintln!(
            "stream-cluster: retained {} of {} rows (peak {})",
            s.reservoir_len,
            s.selection.labels.len(),
            s.peak_rows_retained
        );
    }
}

/// A flow's selection and estimate and, with a ground truth, the full
/// run's Fig. 7 errors and rig report.
type FlowOutcome = (
    Selection,
    FrameStats,
    Option<(MetricErrors, MultiGpuReport)>,
);

/// MEGsim on the trace at `path` through the library flow.
fn run_flow(path: &str, flow: &Flow<'_>, ground_truth: bool) -> Result<FlowOutcome, String> {
    let source = TraceFile(path);
    let error = |e| trace_error(path, e);
    let (estimate, truth) = if ground_truth {
        let t = flow::ground_truth(&source, flow).map_err(error)?;
        let errors = t.run().errors;
        (t.estimate, Some((errors, t.report)))
    } else {
        (flow::estimate(&source, flow).map_err(error)?, None)
    };
    report_footprint(flow, &estimate.selection);
    Ok((estimate.selection.selection, estimate.estimated, truth))
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

fn characterize(opts: &mut Options, cache: Option<&FrameCache>) -> Result<(), String> {
    let path = opts.trace_path()?;
    let matrix = characterize_trace(&path, cache)?;
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

fn select(opts: &mut Options, cache: Option<&FrameCache>) -> Result<(), String> {
    let path = opts.trace_path()?;
    let seed: u64 = opts.flag("seed", 42)?;
    let gpu = GpuConfig::mali450_like();
    let flow = Flow {
        stream: stream_cluster_config(opts)?,
        cache,
        ..Flow::new(&gpu, MegsimConfig::default().with_seed(seed))
    };
    let selected = flow::select(&TraceFile(&path), &flow).map_err(|e| trace_error(&path, e))?;
    report_footprint(&flow, &selected);
    let selection = selected.selection;
    println!(
        "{} frames -> {} representatives ({:.1}x reduction)",
        selection.labels.len(),
        selection.k(),
        selection.reduction_factor()
    );
    let mut csv = String::from("cluster,frame,cluster_size\n");
    for (c, r) in selection.representatives.iter().enumerate() {
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
/// `--mem`). Without any of them there is no rig: the single GPU.
fn multi_gpu_options(opts: &Options) -> Result<Option<MultiGpuConfig>, String> {
    let rig_flags = ["gpus", "dispatch", "mem"];
    if !rig_flags.iter().any(|f| opts.flags.contains_key(*f)) {
        return Ok(None);
    }
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
    Ok(Some(MultiGpuConfig::new(gpus, dispatch, topology)))
}

/// The `--dispatch` and `--mem` spellings of a rig's shape.
fn rig_names(rig: &MultiGpuConfig) -> (&'static str, &'static str) {
    let dispatch = match rig.dispatch {
        DispatchMode::AlternateFrame => "afr",
        DispatchMode::SplitFrame => "sfr",
    };
    let mem = match rig.topology {
        Topology::Shared => "shared",
        Topology::Private => "private",
    };
    (dispatch, mem)
}

/// `megsim estimate`. Returns what it prints on stdout: everything is
/// computed before anything is printed, so a failed pass leaves no
/// partial estimate behind.
fn estimate(opts: &mut Options, cache: Option<&FrameCache>) -> Result<String, String> {
    let path = opts.trace_path()?;
    let seed: u64 = opts.flag("seed", 42)?;
    // With rig flags the ground truth is the warm rig sequence and the
    // accuracy table is reported per rig; without them it is the
    // paper's cold per-frame ground truth.
    let rig = multi_gpu_options(opts)?;
    let stream = stream_cluster_config(opts)?;
    let ground_truth = opts.has("ground-truth");
    if ground_truth {
        eprintln!("running full ground-truth simulation...");
    }
    let gpu = GpuConfig::mali450_like();
    let flow = Flow {
        rig,
        stream,
        cache,
        ..Flow::new(&gpu, MegsimConfig::default().with_seed(seed))
    };
    let (selection, estimated, truth) = run_flow(&path, &flow, ground_truth)?;
    let mut out = String::new();
    if let Some(rig) = &rig {
        let (dispatch, mem) = rig_names(rig);
        let gpus = rig.gpus;
        let _ = writeln!(
            out,
            "multi-GPU rig: {gpus} GPUs, {dispatch} dispatch, {mem} memory"
        );
    }
    let _ = writeln!(
        out,
        "simulated {} of {} frames ({:.1}x fewer)",
        selection.k(),
        selection.labels.len(),
        selection.reduction_factor()
    );
    let _ = writeln!(out, "estimated totals:");
    let _ = writeln!(out, "  cycles:              {}", estimated.cycles);
    let _ = writeln!(out, "  DRAM accesses:       {}", estimated.dram_accesses());
    let _ = writeln!(out, "  L2 accesses:         {}", estimated.l2_accesses());
    let _ = writeln!(
        out,
        "  tile-cache accesses: {}",
        estimated.tile_cache_accesses()
    );
    let _ = writeln!(out, "  IPC:                 {:.2}", estimated.ipc());
    let Some((errors, report)) = truth else {
        return Ok(out);
    };
    if let Some(rig) = &rig {
        let (dispatch, mem) = rig_names(rig);
        let _ = writeln!(
            out,
            "interconnect: {} line transfers, {} bytes, {} busy cycles\n\
             relative errors vs full multi-GPU simulation:\n  \
             N  dispatch  mem      cycles     DRAM       L2         tile\n  \
             {:<2} {dispatch:<9} {mem:<8} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
            report.transfers(),
            report.bytes(),
            report.busy_cycles(),
            rig.gpus,
            errors.cycles * 100.0,
            errors.dram_accesses * 100.0,
            errors.l2_accesses * 100.0,
            errors.tile_cache_accesses * 100.0
        );
        return Ok(out);
    }
    let source = match stream {
        Some(_) => "representative runs",
        None => "full-run frames",
    };
    let _ = writeln!(
        out,
        "relative errors vs full simulation (estimates from {source}):"
    );
    for (metric, error) in [
        ("cycles:", errors.cycles),
        ("DRAM accesses:", errors.dram_accesses),
        ("L2 accesses:", errors.l2_accesses),
        ("tile-cache accesses:", errors.tile_cache_accesses),
    ] {
        let _ = writeln!(out, "  {metric:<21}{:.3}%", error * 100.0);
    }
    Ok(out)
}

/// Runs one batch campaign body. Returns the campaign's one-line
/// summary; all detail goes to `out=` files so concurrent campaigns
/// never interleave on stdout.
fn run_campaign(job: &megsim_core::BatchJob, cache: Option<&FrameCache>) -> Result<String, String> {
    use megsim_core::BatchOp;
    match job.op {
        BatchOp::Characterize => {
            let matrix = characterize_trace(&job.trace, cache)?;
            let mut summary = format!("{} x {} features", matrix.frames(), matrix.dim());
            if let Some(out) = &job.out {
                let csv = report::feature_matrix_csv(&matrix);
                std::fs::write(out, csv).map_err(|e| format!("cannot write {out}: {e}"))?;
                summary.push_str(&format!(" -> {out}"));
            }
            Ok(summary)
        }
        BatchOp::Estimate => {
            let gpu = GpuConfig::mali450_like();
            let flow = Flow {
                cache,
                ..Flow::new(&gpu, MegsimConfig::default().with_seed(job.seed))
            };
            let (selection, estimated, truth) = run_flow(&job.trace, &flow, job.ground_truth)?;
            let frames = selection.labels.len();
            let mut summary = format!(
                "{}/{frames} frames, {} cycles",
                selection.k(),
                estimated.cycles
            );
            if let Some((errors, _)) = truth {
                summary.push_str(&format!(", cycles err {:.3}%", errors.cycles * 100.0));
            }
            if let Some(out) = &job.out {
                let mut csv = String::from("metric,value\n");
                let _ = writeln!(csv, "frames,{frames}");
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

fn batch(opts: &mut Options, cache: Option<&FrameCache>) -> Result<(), String> {
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
    let report = megsim_core::run_batch(&jobs, cache, run_campaign);
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

    /// Records a small jjo trace named `name` and returns its path.
    fn record_jjo(name: &str, seed: &str) -> String {
        let trace = tmp(name);
        run(&argv(&[
            "record",
            "--benchmark",
            "jjo",
            "--scale",
            "0.01",
            "--seed",
            seed,
            "--out",
            &trace,
        ]))
        .expect("record");
        trace
    }

    /// What `megsim estimate <args>` prints on stdout, with the frame
    /// cache `run` would build (none with `--no-frame-cache`).
    fn estimate_stdout(args: &[&str]) -> Result<String, String> {
        let mut opts = Options::parse(&argv(&[&["estimate"], args].concat()))?;
        let cache = (!opts.has("no-frame-cache")).then(FrameCache::new);
        estimate(&mut opts, cache.as_ref())
    }

    const RIGS: [&[&str]; 3] = [
        &[],
        &["--gpus", "2", "--dispatch", "afr", "--mem", "private"],
        &["--gpus", "2", "--dispatch", "sfr", "--mem", "shared"],
    ];

    #[test]
    fn ground_truth_run_reports_the_same_estimate() {
        let trace = record_jjo("same_estimate.mglt", "12");
        for rig in RIGS {
            for cache in [&[][..], &["--no-frame-cache"]] {
                let args = [&[trace.as_str()][..], rig, cache].concat();
                let plain = estimate_stdout(&args).expect("estimate");
                let full = estimate_stdout(&[&args[..], &["--ground-truth"]].concat())
                    .expect("estimate --ground-truth");
                assert!(
                    full.starts_with(&plain) && full.len() > plain.len(),
                    "{args:?}: estimate printed\n{plain}\nbut the ground-truth run\n{full}"
                );
            }
        }
    }

    #[test]
    fn batch_ground_truth_error_matches_estimate() {
        let trace = record_jjo("batch_error.mglt", "13");
        let jobs = megsim_core::parse_manifest(&format!("gt estimate {trace} seed=5 ground-truth"))
            .expect("manifest");
        let report = megsim_core::run_batch(&jobs, Some(&FrameCache::new()), run_campaign);
        let row = report.campaigns[0].outcome.as_ref().expect("campaign runs");
        let batch_error = row.split("cycles err ").nth(1).expect("row has an error");
        let printed =
            estimate_stdout(&[&trace, "--seed", "5", "--ground-truth"]).expect("estimate");
        let mut errors = printed
            .lines()
            .skip_while(|l| !l.starts_with("relative errors"));
        let cycles = errors.nth(1).expect("cycle error line");
        assert_eq!(
            cycles.strip_prefix("  cycles:").map(str::trim),
            Some(batch_error)
        );
    }

    #[test]
    fn ground_truth_on_a_truncated_trace_fails_without_an_estimate() {
        let trace = record_jjo("to_truncate.mglt", "14");
        let bytes = std::fs::read(&trace).expect("trace written");
        let cut = tmp("truncated.mglt");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("write");
        for rig in RIGS {
            let args = [&[cut.as_str(), "--ground-truth"][..], rig].concat();
            // `estimate` returns its stdout only on success: an error
            // leaves nothing to print.
            let err = estimate_stdout(&args).unwrap_err();
            assert!(err.contains("truncated at byte"), "{args:?}: {err}");
            let err = run(&argv(&[&["estimate"], &args[..]].concat())).unwrap_err();
            assert!(err.contains("truncated at byte"), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_trace_without_frames_is_an_error_not_a_panic() {
        let workload = megsim_workloads::by_alias("jjo", 0.01, 1).expect("known alias");
        let stream = record_sequence(workload.shaders(), &[]);
        let empty = tmp("empty.mglt");
        std::fs::write(&empty, encode_with_version(&stream, 1).expect("v1")).expect("write");
        let t = empty.as_str();
        let no_frames = format!("{t}: trace has no frames");
        for args in [
            &["select", t][..],
            &["select", t, "--stream-cluster"],
            &["estimate", t],
            &["estimate", t, "--stream-cluster"],
            &["estimate", t, "--ground-truth"],
            &["estimate", t, "--ground-truth", "--stream-cluster"],
            &["estimate", t, "--gpus", "2"],
            &["estimate", t, "--ground-truth", "--gpus", "2"],
        ] {
            assert_eq!(run(&argv(args)).unwrap_err(), no_frames, "{args:?}");
        }
        run(&argv(&["characterize", t])).expect("an empty feature matrix");
        // One bad campaign fails its own row, not the batch.
        let good = record_jjo("batch_good.mglt", "4");
        let manifest = format!("none estimate {t} ground-truth\ngood estimate {good}\n");
        let jobs = megsim_core::parse_manifest(&manifest).expect("manifest");
        let report = megsim_core::run_batch(&jobs, Some(&FrameCache::new()), run_campaign);
        assert_eq!(report.campaigns[0].outcome, Err(no_frames));
        assert!(report.campaigns[1].outcome.is_ok());
        let path = tmp("empty_batch.manifest");
        std::fs::write(&path, manifest).expect("write manifest");
        let err = run(&argv(&["batch", &path])).unwrap_err();
        assert_eq!(err, "1 of 2 campaigns failed");
    }

    #[test]
    fn help_runs() {
        run(&argv(&["help"])).expect("help works");
    }

    #[test]
    fn help_flags_print_usage_anywhere() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["estimate", "/nonexistent/x.mglt", "--help"],
            &["record", "-h", "--gpu", "2"],
        ] {
            run(&argv(args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        }
    }

    #[test]
    fn commands_reject_flags_they_do_not_read() {
        // `--gpu` is a typo of `--gpus`: it must fail before any work,
        // not run a silently single-GPU estimate.
        for (args, flag) in [
            (
                &["estimate", "/nonexistent/x.mglt", "--gpu", "2"][..],
                "--gpu",
            ),
            (
                &["characterize", "/nonexistent/x.mglt", "--seed", "3"],
                "--seed",
            ),
            (
                &["info", "/nonexistent/x.mglt", "--ground-truth"],
                "--ground-truth",
            ),
            (&["batch", "/nonexistent/m", "--out", "x.csv"], "--out"),
            (&["select", "/nonexistent/x.mglt", "--gpus", "2"], "--gpus"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
            assert!(err.contains("unknown option"), "{args:?}: {err}");
        }
        // Global options stay valid for every command.
        let err = run(&argv(&["info", "/nonexistent/x.mglt", "--threads", "1"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn threads_beyond_the_cap_are_rejected_at_once() {
        let too_many = (megsim_exec::MAX_THREADS + 1).to_string();
        for value in ["100000000000", too_many.as_str()] {
            let err = run(&argv(&[
                "estimate",
                "/nonexistent/x.mglt",
                "--threads",
                value,
            ]))
            .unwrap_err();
            assert!(err.contains("--threads"), "--threads {value}: {err}");
        }
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
        let trace = record_jjo("multi_gpu.mglt", "6");
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
        let trace = record_jjo("batch.mglt", "3");
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
        let trace = record_jjo("cachedir.mglt", "8");
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
