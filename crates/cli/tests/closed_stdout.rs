//! A reader that stops reading (`megsim info t.mglt | head -1`) closes
//! the pipe under the CLI's stdout. The CLI must then stop quietly:
//! no panic message, no backtrace, exit 0.
//!
//! Runs the real binary via `CARGO_BIN_EXE_megsim`, with the read end of
//! its stdout pipe closed right after the process starts — well before
//! it has decoded the trace and printed its first line.

use std::process::{Command, Stdio};

use megsim_gl::{encode_with_version, record_sequence};

#[test]
fn info_on_a_closed_stdout_exits_quietly() {
    let workload = megsim_workloads::by_alias("jjo", 0.05, 1).expect("known alias");
    let frames: Vec<_> = workload.iter_frames().collect();
    let stream = record_sequence(workload.shaders(), &frames);
    let dir = std::env::temp_dir().join(format!("megsim_closed_stdout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("jjo.mglt");
    std::fs::write(&trace, encode_with_version(&stream, 1).expect("v1")).expect("write trace");
    let mut child = Command::new(env!("CARGO_BIN_EXE_megsim"))
        .arg("info")
        .arg(&trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("megsim binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("megsim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
