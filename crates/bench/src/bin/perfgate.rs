//! `perfgate` — fails the build when hot-loop throughput regresses.
//!
//! Compares the two most recent `BENCH_<n>.json` snapshots (or an
//! explicit pair, given as two paths or with `--old`/`--new`) and exits
//! non-zero when any workload lost more than the threshold (default
//! 10%) of its cycles/sec.
//!
//! ```text
//! perfgate [OLD NEW] [--threshold FRACTION]
//! perfgate [--old PATH] [--new PATH] [--threshold FRACTION]
//! perfgate --check-format [PATH ...]
//! perfgate --chain [PATH ...]
//! ```
//!
//! `--check-format` only validates that the snapshots parse against the
//! current schema — the CI smoke job runs it so the format cannot rot.
//!
//! `--chain` format-validates every given snapshot, sorts them by their
//! `BENCH_<n>` index, and gates each adjacent pair in sequence — the
//! whole snapshot history in one step. Both modes treat empty input as
//! an error: a shell glob that matched nothing must fail the step, not
//! skip it.

use specrecon_bench::perf;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn load(path: &PathBuf) -> Result<perf::Snapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    perf::Snapshot::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Rejects paths that are unexpanded shell globs: a pattern that
/// reaches us verbatim means the glob matched zero files, and treating
/// it as a filename would either error confusingly or, with nullglob,
/// never arrive at all — so make the situation loud.
fn reject_unexpanded_globs(paths: &[PathBuf]) -> Result<(), String> {
    for p in paths {
        let s = p.to_string_lossy();
        if (s.contains('*') || s.contains('?') || s.contains('[')) && !p.exists() {
            return Err(format!(
                "glob pattern {s:?} matched no files (shell passed it through unexpanded)"
            ));
        }
    }
    Ok(())
}

/// Resolves the snapshot list for `--check-format`/`--chain`: explicit
/// paths when given (globs that matched nothing are an error), else
/// every `BENCH_<n>.json` in the current directory. Empty input is an
/// explicit error in both modes.
fn resolve_snapshots(paths: Vec<PathBuf>) -> Result<Vec<PathBuf>, String> {
    if paths.is_empty() {
        let found: Vec<PathBuf> =
            perf::snapshot_files(std::path::Path::new(".")).into_iter().map(|(_, p)| p).collect();
        if found.is_empty() {
            return Err("no BENCH_<n>.json snapshots found in the current directory".into());
        }
        return Ok(found);
    }
    reject_unexpanded_globs(&paths)?;
    Ok(paths)
}

fn check_format(paths: Vec<PathBuf>) -> ExitCode {
    let paths = match resolve_snapshots(paths) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for p in &paths {
        match load(p) {
            Ok(s) => {
                println!("{}: ok ({} workloads, label {:?})", p.display(), s.results.len(), s.label)
            }
            Err(e) => {
                eprintln!("perfgate: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one old→new comparison and returns whether it passed.
fn gate_pair(
    old_path: &Path,
    old_snap: &perf::Snapshot,
    new_path: &Path,
    new_snap: &perf::Snapshot,
    threshold: f64,
) -> bool {
    println!(
        "perfgate: {} ({:?}) -> {} ({:?}), threshold {:.0}%",
        old_path.display(),
        old_snap.label,
        new_path.display(),
        new_snap.label,
        threshold * 100.0
    );
    let report = perf::gate(old_snap, new_snap, threshold);
    println!("{:<12} {:>14} {:>14} {:>9}", "workload", "old c/s", "new c/s", "ratio");
    for l in &report.lines {
        println!(
            "{:<12} {:>14.3e} {:>14.3e} {:>8.2}x{}",
            l.name,
            l.old,
            l.new,
            l.ratio,
            if l.regressed { "  REGRESSED" } else { "" }
        );
    }
    for name in &report.unmatched {
        println!("{name:<12} (only in one snapshot, not gated)");
    }
    println!("geomean ratio: {:.2}x", report.geomean_ratio);
    report.passed()
}

/// `--chain`: validate every snapshot, then gate each adjacent pair.
fn chain(paths: Vec<PathBuf>, threshold: f64) -> ExitCode {
    let mut paths = match resolve_snapshots(paths) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Adjacency is by snapshot index, not shell sort order (where
    // BENCH_10 would land between BENCH_1 and BENCH_2).
    let index = |p: &PathBuf| {
        p.file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse::<u64>().ok())
    };
    if paths.iter().all(|p| index(p).is_some()) {
        paths.sort_by_key(|p| index(p).expect("all indices parse"));
    }
    if paths.len() < 2 {
        eprintln!("perfgate: --chain needs at least two snapshots to gate (got {})", paths.len());
        return ExitCode::FAILURE;
    }
    let mut snaps = Vec::with_capacity(paths.len());
    for p in &paths {
        match load(p) {
            Ok(s) => {
                println!(
                    "{}: ok ({} workloads, label {:?})",
                    p.display(),
                    s.results.len(),
                    s.label
                );
                snaps.push(s);
            }
            Err(e) => {
                eprintln!("perfgate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut ok = true;
    for i in 1..snaps.len() {
        println!();
        ok &= gate_pair(&paths[i - 1], &snaps[i - 1], &paths[i], &snaps[i], threshold);
    }
    if ok {
        println!("perfgate: PASS ({} snapshots, {} gates)", snaps.len(), snaps.len() - 1);
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: FAIL — throughput regressed beyond {:.0}%", threshold * 100.0);
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut old: Option<PathBuf> = None;
    let mut new: Option<PathBuf> = None;
    let mut threshold = perf::DEFAULT_THRESHOLD;
    let mut format_only = false;
    let mut chain_mode = false;
    let mut positional: Vec<PathBuf> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--old" => old = Some(PathBuf::from(value("--old")?)),
                "--new" => new = Some(PathBuf::from(value("--new")?)),
                "--threshold" => {
                    threshold = value("--threshold")?
                        .parse()
                        .map_err(|e| format!("bad --threshold: {e}"))?;
                }
                "--check-format" => format_only = true,
                "--chain" => chain_mode = true,
                "--help" | "-h" => {
                    println!(
                        "perfgate [OLD NEW] [--threshold FRACTION]\n\
                         perfgate [--old PATH] [--new PATH] [--threshold FRACTION]\n\
                         perfgate --check-format [PATH ...]\n\
                         perfgate --chain [PATH ...]\n\
                         Compares the two most recent BENCH_<n>.json snapshots and fails\n\
                         when any workload regressed beyond the threshold (default 10%).\n\
                         --chain validates every snapshot and gates each adjacent pair."
                    );
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown argument {other:?}"));
                }
                path => positional.push(PathBuf::from(path)),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
    }

    if format_only {
        return check_format(positional);
    }
    if chain_mode {
        return chain(positional, threshold);
    }

    // Pair mode: two positional paths are old and new. Any other count,
    // or positionals mixed with --old/--new, is ambiguous and rejected
    // rather than quietly gating some other pair.
    if !positional.is_empty() {
        let err = if old.is_some() || new.is_some() {
            Some("give the pair either as two paths or with --old/--new, not both".to_string())
        } else if positional.len() != 2 {
            Some(format!(
                "pair mode takes exactly two snapshot paths (OLD NEW), got {}",
                positional.len()
            ))
        } else {
            reject_unexpanded_globs(&positional).err()
        };
        if let Some(e) = err {
            eprintln!("perfgate: {e}");
            return ExitCode::FAILURE;
        }
        new = positional.pop();
        old = positional.pop();
    }

    let (old_path, new_path) = match (old, new) {
        (Some(o), Some(n)) => (o, n),
        (o, n) => {
            let found = perf::snapshot_files(std::path::Path::new("."));
            if found.len() < 2 && (o.is_none() || n.is_none()) {
                eprintln!(
                    "perfgate: need two BENCH_<n>.json snapshots to compare \
                     (found {}); record one with `cargo run --release -p specrecon-bench \
                     --bin perfbench`",
                    found.len()
                );
                return ExitCode::FAILURE;
            }
            let mut tail = found.into_iter().rev();
            let latest = tail.next().map(|(_, p)| p);
            let previous = tail.next().map(|(_, p)| p);
            (
                o.or(previous).expect("previous snapshot present"),
                n.or(latest).expect("latest snapshot present"),
            )
        }
    };

    let (old_snap, new_snap) = match (load(&old_path), load(&new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for e in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("perfgate: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    if gate_pair(&old_path, &old_snap, &new_path, &new_snap, threshold) {
        println!("perfgate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: FAIL — throughput regressed beyond {:.0}%", threshold * 100.0);
        ExitCode::FAILURE
    }
}
