//! A trace whose vertex data holds NaN, ±inf or coordinates that
//! overflow in screen space must still estimate: the geometry stage
//! clips the affected triangles, and the process exits 0 instead of
//! panicking.
//!
//! Runs the real binary via `CARGO_BIN_EXE_megsim`, so the exit code is
//! the one a user sees.

use std::process::Command;
use std::sync::Arc;

use megsim_gl::{encode_with_version, record_sequence};

#[test]
fn estimate_on_a_trace_with_non_finite_vertices_exits_zero() {
    let workload = megsim_workloads::by_alias("jjo", 0.01, 1).expect("known alias");
    let mut frames: Vec<_> = workload.iter_frames().collect();
    // One bad coordinate in the first draw of a few frames.
    for (frame, bad) in frames
        .iter_mut()
        .zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3e38])
    {
        let draw = &mut frame.draws[0];
        let mut mesh = (*draw.mesh).clone();
        mesh.vertices[0].position.x = bad;
        draw.mesh = Arc::new(mesh);
    }
    let stream = record_sequence(workload.shaders(), &frames);
    let dir = std::env::temp_dir().join(format!("megsim_non_finite_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("non_finite.mglt");
    std::fs::write(&trace, encode_with_version(&stream, 1).expect("v1")).expect("write trace");
    for extra in [&[][..], &["--ground-truth"], &["--gpus", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_megsim"))
            .arg("estimate")
            .arg(&trace)
            .args(extra)
            .env_remove("MEGSIM_CACHE_DIR")
            .output()
            .expect("megsim binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "estimate {extra:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("of {} frames", frames.len())),
            "{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
