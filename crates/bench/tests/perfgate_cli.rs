//! Command-line contract of the `perfgate` binary's pair mode.
//!
//! Each test works in a fresh directory holding two snapshots that pass
//! the gate as the newest pair (`BENCH_0.json`, `BENCH_1.json`) and a
//! named pair that fails it (`old.json` → `new.json` loses half its
//! throughput), so a run that gates the wrong pair is visible.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A snapshot with one workload at `cycles_per_sec`.
fn snapshot(label: &str, cycles_per_sec: f64) -> String {
    format!(
        "{{\n  \"schema\": \"specrecon-perf-v1\",\n  \"label\": \"{label}\",\n  \"warps\": 2,\n  \
         \"geomean_cycles_per_sec\": {cycles_per_sec:?},\n  \"results\": [\n    \
         {{\"name\": \"rsbench\", \"cycles_per_run\": 1000, \"runs\": 10, \
         \"elapsed_ns\": 1000000, \"cycles_per_sec\": {cycles_per_sec:?}}}\n  ]\n}}\n"
    )
}

/// A fresh directory with the passing newest pair and the failing
/// named pair.
fn fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfgate-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    for (file, label, cps) in [
        ("BENCH_0.json", "newest-old", 1.0e6),
        ("BENCH_1.json", "newest-new", 1.0e6),
        ("old.json", "named-old", 1.0e6),
        ("new.json", "named-new", 0.5e6),
    ] {
        std::fs::write(dir.join(file), snapshot(label, cps)).expect("write snapshot");
    }
    dir
}

fn perfgate(dir: &PathBuf, args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run perfgate");
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[test]
fn two_positional_paths_gate_that_pair() {
    // Without arguments the newest pair is gated, and it passes...
    let newest = perfgate(&fixture("newest"), &[]);
    assert!(newest.status.success(), "the newest pair must pass: {newest:?}");
    // ...so the named pair failing proves it was the one compared.
    let out = perfgate(&fixture("pair"), &["old.json", "new.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "the named pair regressed 50% and must fail:\n{stdout}");
    assert!(stdout.contains("old.json") && stdout.contains("new.json"), "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
}

#[test]
fn other_positional_counts_are_rejected() {
    for args in [&["old.json"][..], &["old.json", "new.json", "BENCH_1.json"][..]] {
        let out = perfgate(&fixture(&format!("count{}", args.len())), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(stderr.contains("exactly two"), "{args:?}: {stderr}");
    }
}

#[test]
fn positionals_mixed_with_old_new_are_rejected() {
    let out =
        perfgate(&fixture("mixed"), &["--old", "BENCH_0.json", "BENCH_0.json", "BENCH_1.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("not both"), "{stderr}");
}
