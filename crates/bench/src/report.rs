//! CSV artifact writers: machine-readable dumps of the experiment data
//! (per-frame statistics, feature matrices, BIC curves) for external
//! plotting of the paper's figures.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use megsim_core::evaluate::MegsimRun;
use megsim_core::FeatureMatrix;
use megsim_timing::FrameStats;

/// Serializes per-frame statistics (one row per frame) — the raw data
/// behind Table II, Fig. 7 and the random-sampling study.
pub fn per_frame_csv(per_frame: &[FrameStats]) -> String {
    let mut out = String::from(
        "frame,cycles,geometry_cycles,raster_cycles,instructions,ipc,\
         dram_accesses,l2_accesses,tile_cache_accesses,fragments_shaded,\
         primitives_emitted\n",
    );
    for (i, f) in per_frame.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.4},{},{},{},{},{}",
            i,
            f.cycles,
            f.geometry_cycles,
            f.raster_cycles,
            f.instructions,
            f.ipc(),
            f.dram_accesses(),
            f.l2_accesses(),
            f.tile_cache_accesses(),
            f.activity.fragments_shaded,
            f.activity.primitives_emitted,
        );
    }
    out
}

/// Serializes the `N × D` feature matrix (VSCV | FSCV | PRIM columns).
pub fn feature_matrix_csv(matrix: &FeatureMatrix) -> String {
    let mut out = String::from("frame");
    for i in 0..matrix.vscv_len {
        let _ = write!(out, ",vscv_{i}");
    }
    for i in 0..matrix.fscv_len {
        let _ = write!(out, ",fscv_{i}");
    }
    out.push_str(",prim\n");
    for (i, row) in matrix.rows.iter_rows().enumerate() {
        let _ = write!(out, "{i}");
        for v in row {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Serializes a MEGsim run: the BIC curve, the cluster labels and the
/// representatives (the Fig. 6 data).
pub fn megsim_run_csv(run: &MegsimRun) -> String {
    let mut out = String::from("# bic scores per k\nk,bic\n");
    for (i, b) in run.selection.bic_scores.iter().enumerate() {
        let _ = writeln!(out, "{},{b}", i + 1);
    }
    out.push_str("# frame labels\nframe,cluster\n");
    for (i, l) in run.selection.labels.iter().enumerate() {
        let _ = writeln!(out, "{i},{l}");
    }
    out.push_str("# representatives\ncluster,frame,cluster_size\n");
    for (c, r) in run.selection.representatives.iter().enumerate() {
        let _ = writeln!(out, "{c},{},{}", r.frame_index, r.cluster_size);
    }
    out
}

/// Writes a string artifact into `dir`, creating the directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_artifact(dir: &str, name: &str, contents: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(Path::new(dir).join(name), contents)
}

/// Hardware threads available to the worker pool. Every printed
/// pipeline/sharding speedup must be read next to this number: a ~1.0×
/// ratio measured on a 1-core runner reflects the hardware, not the
/// code, and is unreadable without it.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Qualifier for printed speedup lines. On one hardware thread, overlap
/// is impossible — producers and the consumer time-slice a single core —
/// so ~1.0× is the expected reading, not a regression; the note says so
/// instead of letting the ratio mislead.
pub fn core_note(cores: usize) -> &'static str {
    if cores == 1 {
        " [overlap impossible on 1 core; ~1.0x expected]"
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_frame_csv_has_header_and_rows() {
        let frames = vec![FrameStats::default(), FrameStats::default()];
        let csv = per_frame_csv(&frames);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("frame,cycles"));
        assert!(lines[1].starts_with("0,"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "ragged csv"
        );
    }

    #[test]
    fn feature_matrix_csv_layout() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0, 2.0, 3.0, 4.0]], 2, 1);
        let csv = feature_matrix_csv(&m);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "frame,vscv_0,vscv_1,fscv_0,prim");
        assert_eq!(lines[1], "0,1,2,3,4");
    }

    #[test]
    fn core_note_flags_single_core_only() {
        assert!(core_note(1).contains("overlap impossible"));
        assert_eq!(core_note(2), "");
        assert_eq!(core_note(16), "");
        assert!(available_cores() >= 1);
    }

    #[test]
    fn write_artifact_roundtrip() {
        let dir = std::env::temp_dir().join("megsim_report_test");
        let dir = dir.to_str().expect("utf-8 temp dir");
        write_artifact(dir, "x.csv", "a,b\n1,2\n").expect("write");
        let back = std::fs::read_to_string(format!("{dir}/x.csv")).expect("read");
        assert_eq!(back, "a,b\n1,2\n");
    }
}
