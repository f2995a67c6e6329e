//! Perf-regression snapshots: the `BENCH_<n>.json` format and the gate.
//!
//! The `perfbench` binary times the simulator hot loop on the workload
//! registry and writes a [`Snapshot`]; the `perfgate` binary compares the
//! two most recent snapshots and fails when throughput regresses beyond a
//! threshold. Both live here so the format and the comparison rule are
//! unit-tested. Snapshots are read and written through the service's
//! JSON layer ([`specrecon_server::json`]): the workspace has no serde.
//!
//! Throughput is reported in *simulated cycles per wall-clock second* —
//! the figure sweeps are bounded by how fast the machine burns simulated
//! cycles, so that is the number the gate protects.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use simt_sim::{run_image, run_sweep_image, SimConfig, SweepLaunch, DEFAULT_SEED};
use specrecon_server::json::{escape, Json};
use workloads::eval::{with_warps, Engine};
use workloads::registry;

/// Schema tag written into every snapshot (bump on breaking changes).
pub const SCHEMA: &str = "specrecon-perf-v1";

/// Default regression threshold: fail when a workload loses more than
/// this fraction of its throughput.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Hot-loop throughput of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPerf {
    /// Workload name (registry name).
    pub name: String,
    /// Simulated cycles one run of the workload takes.
    pub cycles_per_run: u64,
    /// Timed runs behind the measurement.
    pub runs: u64,
    /// Total wall-clock time of the timed runs, in nanoseconds.
    pub elapsed_ns: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

/// One `BENCH_<n>.json` perf snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Free-form label (e.g. "seed" or a change description).
    pub label: String,
    /// Warps per workload launch the measurement used.
    pub warps: usize,
    /// Per-workload results, in registry order.
    pub results: Vec<WorkloadPerf>,
}

impl Snapshot {
    /// Geometric-mean throughput across all workloads (0.0 when empty).
    pub fn geomean_cycles_per_sec(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.results.iter().map(|r| r.cycles_per_sec.max(1.0).ln()).sum();
        (log_sum / self.results.len() as f64).exp()
    }

    /// Serializes to the `BENCH_<n>.json` format.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", escape(SCHEMA));
        let _ = writeln!(s, "  \"label\": {},", escape(&self.label));
        let _ = writeln!(s, "  \"warps\": {},", self.warps);
        let _ = writeln!(s, "  \"geomean_cycles_per_sec\": {:?},", self.geomean_cycles_per_sec());
        s.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": {}, \"cycles_per_run\": {}, \"runs\": {}, \
                 \"elapsed_ns\": {}, \"cycles_per_sec\": {:?}}}",
                escape(&r.name),
                r.cycles_per_run,
                r.runs,
                r.elapsed_ns,
                r.cycles_per_sec
            );
            s.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a snapshot, validating the schema tag and required fields.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a wrong/missing schema tag, or missing fields.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let obj = Json::parse(text)?;
        let schema = get(&obj, "schema")?.as_str().ok_or("schema must be a string")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
        }
        let label = get(&obj, "label")?.as_str().ok_or("label must be a string")?.to_string();
        let warps = get(&obj, "warps")?.as_u64().ok_or("warps must be a non-negative integer")?;
        let results = get(&obj, "results")?
            .as_arr()
            .ok_or("results must be an array")?
            .iter()
            .map(|o| {
                Ok(WorkloadPerf {
                    name: get(o, "name")?.as_str().ok_or("name must be a string")?.to_string(),
                    cycles_per_run: get(o, "cycles_per_run")?
                        .as_u64()
                        .ok_or("cycles_per_run must be an integer")?,
                    runs: get(o, "runs")?.as_u64().ok_or("runs must be an integer")?,
                    elapsed_ns: get(o, "elapsed_ns")?
                        .as_u64()
                        .ok_or("elapsed_ns must be an integer")?,
                    cycles_per_sec: get(o, "cycles_per_sec")?
                        .as_f64()
                        .ok_or("cycles_per_sec must be a number")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Snapshot { label, warps: warps as usize, results })
    }
}

/// Field `key` of the object `obj`.
fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    match obj {
        Json::Obj(_) => obj.get(key).ok_or_else(|| format!("missing key {key:?}")),
        _ => Err(format!("expected an object with key {key:?}")),
    }
}

/// Times the simulator hot loop on every registry workload and returns a
/// snapshot.
///
/// Each workload's module is decoded once (run as-is, no pass pipeline —
/// the measurement isolates the simulator) and then launched repeatedly
/// with `warps` warps until `min_time` of wall clock accumulates, with at
/// least three timed runs. Throughput is `simulated cycles / wall time`.
///
/// # Panics
///
/// Panics if a registry workload fails to decode or run — they are all
/// known-good programs, so a failure is a harness bug.
pub fn measure_hot_loop(label: &str, warps: usize, min_time: Duration) -> Snapshot {
    let engine = Engine::new(1);
    let cfg = SimConfig::default();
    let mut results = Vec::new();
    for w in registry() {
        let w = with_warps(&w, warps);
        let image = engine.decoded(&w.module, None).expect("registry workload decodes");
        // Warm-up run: fills caches/pools and yields the per-run cycle
        // count (deterministic for a fixed launch).
        let out = run_image(&image, &cfg, &w.launch).expect("registry workload runs");
        let cycles_per_run = out.metrics.cycles;
        let mut runs = 0u64;
        let start = Instant::now();
        let mut elapsed;
        loop {
            std::hint::black_box(run_image(&image, &cfg, &w.launch).expect("workload runs"));
            runs += 1;
            elapsed = start.elapsed();
            if runs >= 3 && elapsed >= min_time {
                break;
            }
        }
        let elapsed_ns = elapsed.as_nanos() as u64;
        let cycles_per_sec = (cycles_per_run * runs) as f64 * 1e9 / elapsed_ns.max(1) as f64;
        results.push(WorkloadPerf {
            name: w.name.to_string(),
            cycles_per_run,
            runs,
            elapsed_ns,
            cycles_per_sec,
        });
    }
    Snapshot { label: label.to_string(), warps, results }
}

/// The Monte Carlo registry workloads — the programs where a seed sweep
/// is the natural experiment (every run draws from the RNG), and the set
/// the `seed_sweep` measurement covers.
pub const MONTE_CARLO: &[&str] = &["rsbench", "xsbench", "mcb", "mc-gpu", "gpu-mcml"];

/// Named workloads outside the Table-2 registry that the seed-sweep
/// measurement also covers: seed-divergent stressors where the sweep
/// engine's fork/merge path (not the lockstep fast path) is the thing
/// under test.
pub const SEED_DIVERGENT: &[&str] = &["seed-storm"];

/// Times the lockstep seed-sweep engine against a scalar per-seed
/// baseline on the Monte Carlo workloads plus the seed-divergent
/// stressors.
///
/// For each workload in [`MONTE_CARLO`] and [`SEED_DIVERGENT`] this
/// produces two entries: `sweep/<name>` runs one [`run_sweep_image`]
/// cohort over `[DEFAULT_SEED, DEFAULT_SEED + seeds)`, and
/// `sweep_scalar/<name>` runs the same seeds as independent
/// [`run_image`] launches. Both report the same `cycles_per_run` (total
/// simulated cycles across the whole seed batch — the sweep is
/// bit-identical to the scalar runs, so the cycle sums agree by
/// construction), which makes their `cycles_per_sec` ratio the sweep
/// speedup. Pair them back up with [`sweep_speedups`].
///
/// # Panics
///
/// Panics when `seeds` is 0 or exceeds the cohort width, or if a
/// registry workload fails to decode or run (harness bug).
pub fn measure_seed_sweep(warps: usize, seeds: u64, min_time: Duration) -> Vec<WorkloadPerf> {
    assert!(
        seeds >= 1 && seeds <= simt_sim::sweep::COHORT_SLOTS as u64,
        "seed batch must fit one cohort (1..={})",
        simt_sim::sweep::COHORT_SLOTS
    );
    let engine = Engine::new(1);
    let cfg = SimConfig::default();
    let mut results = Vec::new();
    let mut pool: Vec<workloads::Workload> =
        registry().into_iter().filter(|w| MONTE_CARLO.contains(&w.name)).collect();
    pool.push(workloads::seedstorm::build(&workloads::seedstorm::Params::default()));
    for w in pool {
        let w = with_warps(&w, warps);
        let image = engine.decoded(&w.module, None).expect("registry workload decodes");
        let sweep = SweepLaunch::new(w.launch.clone(), DEFAULT_SEED, DEFAULT_SEED + seeds);
        // Warm-up sweep: fills pools and yields the batch cycle count.
        let out = run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs");
        let cycles_per_run: u64 = out
            .runs
            .iter()
            .map(|r| r.result.as_ref().expect("sweep instance runs").metrics.cycles)
            .sum();
        let (runs, elapsed_ns) = timed_loop(min_time, || {
            std::hint::black_box(run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs"));
        });
        results.push(perf_entry(format!("sweep/{}", w.name), cycles_per_run, runs, elapsed_ns));
        let (runs, elapsed_ns) = timed_loop(min_time, || {
            for seed in sweep.seed_lo..sweep.seed_hi {
                let mut launch = w.launch.clone();
                launch.seed = seed;
                std::hint::black_box(run_image(&image, &cfg, &launch).expect("workload runs"));
            }
        });
        results.push(perf_entry(
            format!("sweep_scalar/{}", w.name),
            cycles_per_run,
            runs,
            elapsed_ns,
        ));
    }
    results
}

/// Runs `body` until `min_time` of wall clock accumulates (at least three
/// times) and returns `(runs, elapsed_ns)`.
fn timed_loop(min_time: Duration, mut body: impl FnMut()) -> (u64, u64) {
    let mut runs = 0u64;
    let start = Instant::now();
    let mut elapsed;
    loop {
        body();
        runs += 1;
        elapsed = start.elapsed();
        if runs >= 3 && elapsed >= min_time {
            break;
        }
    }
    (runs, elapsed.as_nanos() as u64)
}

fn perf_entry(name: String, cycles_per_run: u64, runs: u64, elapsed_ns: u64) -> WorkloadPerf {
    let cycles_per_sec = (cycles_per_run * runs) as f64 * 1e9 / elapsed_ns.max(1) as f64;
    WorkloadPerf { name, cycles_per_run, runs, elapsed_ns, cycles_per_sec }
}

/// Pairs every `sweep/<name>` entry in a snapshot with its
/// `sweep_scalar/<name>` baseline and returns `(name, speedup)` where
/// speedup is `sweep cycles/sec ÷ scalar cycles/sec`. Entries without a
/// matching baseline are skipped.
pub fn sweep_speedups(snapshot: &Snapshot) -> Vec<(String, f64)> {
    snapshot
        .results
        .iter()
        .filter_map(|r| {
            let name = r.name.strip_prefix("sweep/")?;
            let baseline = format!("sweep_scalar/{name}");
            let scalar = snapshot.results.iter().find(|s| s.name == baseline)?;
            let speedup = if scalar.cycles_per_sec > 0.0 {
                r.cycles_per_sec / scalar.cycles_per_sec
            } else {
                f64::INFINITY
            };
            Some((name.to_string(), speedup))
        })
        .collect()
}

/// Outcome of gating one workload of the new snapshot against the old.
#[derive(Clone, Debug, PartialEq)]
pub struct GateLine {
    /// Workload name.
    pub name: String,
    /// Old throughput (cycles/sec).
    pub old: f64,
    /// New throughput (cycles/sec).
    pub new: f64,
    /// `new / old` (above 1.0 = faster).
    pub ratio: f64,
    /// Whether this line violates the threshold.
    pub regressed: bool,
}

/// Result of comparing two snapshots.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Per-workload comparisons (workloads present in both snapshots).
    pub lines: Vec<GateLine>,
    /// Workloads only in one of the snapshots (reported, never fatal).
    pub unmatched: Vec<String>,
    /// Geomean ratio `new / old` over the matched workloads.
    pub geomean_ratio: f64,
    /// The threshold the comparison used.
    pub threshold: f64,
}

impl GateReport {
    /// Whether the gate passes (no workload regressed beyond threshold).
    pub fn passed(&self) -> bool {
        self.lines.iter().all(|l| !l.regressed)
    }
}

/// Compares `new` against `old`: a workload regresses when its throughput
/// ratio drops below `1 - threshold`.
pub fn gate(old: &Snapshot, new: &Snapshot, threshold: f64) -> GateReport {
    let mut lines = Vec::new();
    let mut unmatched = Vec::new();
    for o in &old.results {
        match new.results.iter().find(|n| n.name == o.name) {
            Some(n) => {
                let ratio =
                    if o.cycles_per_sec > 0.0 { n.cycles_per_sec / o.cycles_per_sec } else { 1.0 };
                lines.push(GateLine {
                    name: o.name.clone(),
                    old: o.cycles_per_sec,
                    new: n.cycles_per_sec,
                    ratio,
                    regressed: ratio < 1.0 - threshold,
                });
            }
            None => unmatched.push(o.name.clone()),
        }
    }
    for n in &new.results {
        if old.results.iter().all(|o| o.name != n.name) {
            unmatched.push(n.name.clone());
        }
    }
    let geomean_ratio = if lines.is_empty() {
        1.0
    } else {
        (lines.iter().map(|l| l.ratio.max(1e-12).ln()).sum::<f64>() / lines.len() as f64).exp()
    };
    GateReport { lines, unmatched, geomean_ratio, threshold }
}

/// Finds every `BENCH_<n>.json` in `dir`, sorted by `n`.
pub fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return found };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        {
            found.push((n, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// The path the next snapshot should be written to: `BENCH_<n+1>.json`
/// after the highest existing `n` (or `BENCH_0.json` on a fresh tree).
pub fn next_snapshot_path(dir: &Path) -> PathBuf {
    let next = snapshot_files(dir).last().map_or(0, |(n, _)| n + 1);
    dir.join(format!("BENCH_{next}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            label: "seed \"quoted\"".into(),
            warps: 2,
            results: vec![
                WorkloadPerf {
                    name: "rsbench".into(),
                    cycles_per_run: 120_000,
                    runs: 40,
                    elapsed_ns: 1_000_000,
                    cycles_per_sec: 4.8e9,
                },
                WorkloadPerf {
                    name: "mummer".into(),
                    cycles_per_run: 7,
                    runs: 3,
                    elapsed_ns: 21,
                    cycles_per_sec: 1e9,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample().to_json().replace(SCHEMA, "other-v0");
        let err = Snapshot::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Snapshot::from_json("{\"schema\":").is_err());
        assert!(Snapshot::from_json("[]").is_err());
        assert!(Snapshot::from_json("{}").is_err());
    }

    #[test]
    fn gate_flags_regressions_beyond_threshold() {
        let old = sample();
        let mut new = sample();
        new.results[0].cycles_per_sec = old.results[0].cycles_per_sec * 0.85; // -15%
        new.results[1].cycles_per_sec = old.results[1].cycles_per_sec * 0.95; // -5%
        let report = gate(&old, &new, DEFAULT_THRESHOLD);
        assert!(!report.passed());
        assert!(report.lines[0].regressed);
        assert!(!report.lines[1].regressed);
        // Within threshold everywhere → passes.
        let report = gate(&old, &new, 0.20);
        assert!(report.passed());
    }

    #[test]
    fn gate_reports_unmatched_workloads_without_failing() {
        let old = sample();
        let mut new = sample();
        new.results[1].name = "renamed".into();
        let report = gate(&old, &new, DEFAULT_THRESHOLD);
        assert_eq!(report.lines.len(), 1);
        assert_eq!(report.unmatched, vec!["mummer".to_string(), "renamed".to_string()]);
        assert!(report.passed());
    }

    #[test]
    fn geomean_of_ratios() {
        let old = sample();
        let mut new = sample();
        new.results[0].cycles_per_sec = old.results[0].cycles_per_sec * 2.0;
        new.results[1].cycles_per_sec = old.results[1].cycles_per_sec * 0.5;
        let report = gate(&old, &new, 0.9);
        assert!((report.geomean_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn seed_sweep_measures_every_monte_carlo_workload_in_pairs() {
        let results = measure_seed_sweep(1, 2, Duration::ZERO);
        let covered: Vec<&&str> = MONTE_CARLO.iter().chain(SEED_DIVERGENT).collect();
        assert_eq!(results.len(), 2 * covered.len());
        for (pair, name) in results.chunks(2).zip(&covered) {
            assert_eq!(pair[0].name, format!("sweep/{name}"));
            assert_eq!(pair[1].name, format!("sweep_scalar/{name}"));
            // Bit-identity means both sides burn the same simulated
            // cycles per seed batch.
            assert_eq!(pair[0].cycles_per_run, pair[1].cycles_per_run);
            assert!(pair[0].cycles_per_run > 0);
            assert!(pair[0].cycles_per_sec > 0.0 && pair[1].cycles_per_sec > 0.0);
        }
        let snapshot = Snapshot { label: "t".into(), warps: 1, results };
        let speedups = sweep_speedups(&snapshot);
        assert_eq!(speedups.len(), covered.len());
        assert!(speedups.iter().all(|(_, s)| s.is_finite() && *s > 0.0));
    }

    #[test]
    fn monte_carlo_sweeps_never_take_the_scalar_escape_hatch() {
        // The Monte Carlo registry sweeps are the benches the perfgate
        // protects: under the Volta barrier-file reconvergence model the
        // fork/merge engine must keep them fully masked
        // (scalar_steps == 0), or the measurement is back to timing the
        // scalar fallback. (Hardware models take the per-seed scalar
        // path by design — only the default model is gated.)
        let engine = Engine::new(1);
        let cfg =
            SimConfig { recon: simt_sim::ReconvergenceModel::BarrierFile, ..SimConfig::default() };
        for w in registry() {
            if !MONTE_CARLO.contains(&w.name) {
                continue;
            }
            let image = engine.decoded(&w.module, None).unwrap();
            let sweep = SweepLaunch::new(w.launch.clone(), DEFAULT_SEED, DEFAULT_SEED + 32);
            let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
            println!("{:12} {:?} occ={:.2}", w.name, out.stats, out.stats.mean_occupancy());
            assert_eq!(out.stats.scalar_steps, 0, "{}: {:?}", w.name, out.stats);
            assert_eq!(out.stats.detaches, 0, "{}: {:?}", w.name, out.stats);
        }
    }

    #[test]
    #[should_panic(expected = "seed batch must fit one cohort")]
    fn seed_sweep_rejects_batches_wider_than_the_cohort() {
        measure_seed_sweep(1, simt_sim::sweep::COHORT_SLOTS as u64 + 1, Duration::ZERO);
    }

    #[test]
    fn sweep_speedups_skips_unpaired_entries() {
        let entry = |name: &str, cps: f64| WorkloadPerf {
            name: name.into(),
            cycles_per_run: 100,
            runs: 3,
            elapsed_ns: 1_000,
            cycles_per_sec: cps,
        };
        let snapshot = Snapshot {
            label: "t".into(),
            warps: 2,
            results: vec![
                entry("sweep/mcb", 4.0e9),
                entry("sweep_scalar/mcb", 1.0e9),
                entry("sweep/orphan", 2.0e9),
                entry("rsbench", 3.0e9),
            ],
        };
        let speedups = sweep_speedups(&snapshot);
        assert_eq!(speedups, vec![("mcb".to_string(), 4.0)]);
    }

    #[test]
    fn snapshot_numbering() {
        let dir = std::env::temp_dir().join(format!("specrecon-perf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_snapshot_path(&dir), dir.join("BENCH_0.json"));
        std::fs::write(dir.join("BENCH_0.json"), "x").unwrap();
        std::fs::write(dir.join("BENCH_3.json"), "x").unwrap();
        assert_eq!(snapshot_files(&dir).len(), 2);
        assert_eq!(next_snapshot_path(&dir), dir.join("BENCH_4.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
