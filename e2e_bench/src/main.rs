//! End-to-end and per-layer benchmark of the specrecon simulator,
//! compiler and evaluation service.
//!
//! ```text
//! e2e-bench --workload <table2-scalar|seed-sweep|eval-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it measures them in alternating untraced
//! and traced quarters (their ratio is the tracing overhead), then runs
//! the traced per-layer suite. Every run checks the program's outputs; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A wrong output makes the exit code non-zero.
//! `BENCHMARK.json` at the repository root records the workloads, the
//! metrics and their bounds.

mod batch;
mod eval_mix;
mod http;
mod layers;
mod rng;
mod seed_sweep;
mod stats;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Set-up repetitions per run: at least `SETUP_REPS`, and more until
/// `SETUP_MIN_S` has passed; `setup_s` is their median.
const SETUP_REPS: usize = 15;
const SETUP_MIN_S: f64 = 1.0;

/// One workload of the benchmark.
pub trait Bench: Sized {
    /// Builds the inputs from the seed and does everything before the
    /// first timed operation (compile and decode on a cold engine, start
    /// the server). Timed as `setup_s`.
    fn setup(seed: u64) -> Self;
    /// Checks outputs against the oracle and records the expected
    /// results the timed runs must repeat. Not part of `setup_s`.
    fn check(&mut self, r: &mut Report);
    /// Runs the timed phases for `seconds`, recording end-to-end metrics.
    fn measure(&mut self, seconds: f64, tracer: &mut Tracer, r: &mut Report);
}

/// Metrics and operation counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Measured and printed with the metrics but left out of the result
    /// line, so not gated: `eval-mix`'s wall-clock latencies and
    /// `max_rps`, whose spread over ten runs of one commit on a shared
    /// 2-vCPU host exceeded the largest bound a gate may use.
    pub extra: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and errors, which make the run incorrect.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn set_extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.insert(name.into(), (value, unit));
    }

    /// Sets the metrics every workload derives from its counts and the
    /// process: `ok_frac` and `peak_rss_mib`.
    fn finish(&mut self) {
        self.set("peak_rss_mib", peak_rss_mib(), "MiB");
        self.set("ok_frac", 1.0 - self.failed as f64 / self.attempted.max(1) as f64, "ratio");
    }

    /// Sets every metric of `x` (and its not-gated ones) to the mean of
    /// its values in `x` and `y`, and adds both reports' counts.
    fn mean_of(&mut self, x: &Report, y: &Report) {
        for (from, to) in [(&x.metrics, &mut self.metrics), (&x.extra, &mut self.extra)] {
            for (name, &(v, unit)) in from {
                let w = y.metrics.get(name).or(y.extra.get(name)).map_or(v, |m| m.0);
                to.insert(name.clone(), ((v + w) / 2.0, unit));
            }
        }
        self.absorb_counts(x);
        self.absorb_counts(y);
    }

    /// Adds `other`'s operation counts and failures to this report.
    fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches.iter().cloned());
    }

    /// Counts a failed operation whose output was wrong or that errored.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 32 {
            self.mismatches.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

/// Host CPU time (user + system) this process has used so far, over all
/// its threads including ended ones, in seconds, at nanosecond
/// resolution (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", std::env::current_dir().ok()?.parent()?)
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build stamp printed with every result.
fn stamp(args: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").and_then(|v| v.split_once(':')).map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]).map_or(
        "unknown".to_string(),
        |rev| match command_line("git", &["status", "--porcelain", "--untracked-files=no"]) {
            Some(s) if !s.is_empty() => format!("{rev}+dirty"),
            _ => rev,
        },
    );
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {}, \"git_rev\": \"{rev}\", \"rustc\": \"{rustc}\", \"profile\": \"{profile}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        cpu.replace('"', "'"),
        nproc(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

/// Sets `B` up at least `SETUP_REPS` times and for at least
/// `SETUP_MIN_S`, keeping the last; returns it with the median set-up
/// time. A set-up takes well under a millisecond to a few, so a single
/// one mostly measures where the host's scheduler and caches happen to
/// be; the median of hundreds does not.
fn set_up<B: Bench>(seed: u64) -> (B, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut bench = None;
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(B::setup(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    println!("set-up: {} repetitions", times.len());
    (bench.expect("set up at least once"), stats::median(&times))
}

/// Sets up, checks outputs, and measures; with tracing also reports the
/// overhead and runs the per-layer suite.
fn drive<B: Bench>(args: &Args) -> Report {
    let (mut bench, setup_s) = set_up::<B>(args.seed);
    let mut plain = Report::default();
    bench.check(&mut plain);
    plain.set("setup_s", setup_s, "s");
    if !plain.correct() {
        plain.finish();
        return plain;
    }
    let epoch = Instant::now();
    if !args.trace {
        bench.measure(args.seconds, &mut Tracer::new(false, epoch), &mut plain);
        plain.finish();
        return plain;
    }

    // Untraced and traced quarters in the order A B B A, so a drift of
    // the host's speed over the run falls on both alike.
    let mut tracer = Tracer::new(true, epoch);
    let mut quarters: [Report; 4] = Default::default();
    for (q, r) in quarters.iter_mut().enumerate() {
        let mut off = Tracer::new(false, epoch);
        let tr = if q == 1 || q == 2 { &mut tracer } else { &mut off };
        bench.measure(args.seconds / 4.0, tr, r);
    }
    let [a1, b1, b2, a2] = quarters;
    let mut traced = Report { metrics: plain.metrics.clone(), ..Report::default() };
    for (into, (x, y)) in [(&mut plain, (&a1, &a2)), (&mut traced, (&b1, &b2))] {
        into.mean_of(x, y);
        into.finish();
    }
    println!("tracing overhead (end-to-end metric: untraced -> traced):");
    for (name, (base, unit)) in plain.metrics.iter().chain(&plain.extra) {
        let value = traced.metrics.get(name).or(traced.extra.get(name)).map_or(f64::NAN, |m| m.0);
        println!(
            "  {name:18} {base:>16.6} -> {value:>16.6} {unit} ({:+.1}%)",
            (value / base - 1.0) * 100.0
        );
    }
    let mut layers = Report::default();
    let cost = |r: &Report| r.metrics["cpu_us_per_op"].0;
    layers.set("trace.overhead", cost(&traced) / cost(&plain), "ratio");
    layers::run(args.seed, &mut tracer, &mut layers);
    if let Err(e) = trace::check_nesting(tracer.spans()) {
        layers.fail(format!("trace: {e}"));
    }
    write_spans(args, &tracer);
    layers.absorb_counts(&plain);
    layers.absorb_counts(&traced);
    layers
}

/// Writes the run's spans as JSON lines under `.bench_out/`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!("spans: {} written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            eprintln!("usage: e2e-bench --workload <table2-scalar|seed-sweep|eval-mix> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("stamp: {}", stamp(&args));
    let report = match args.workload.as_str() {
        "table2-scalar" => drive::<table2::Table2>(&args),
        "seed-sweep" => drive::<seed_sweep::SeedSweep>(&args),
        "eval-mix" => drive::<eval_mix::EvalMix>(&args),
        other => {
            eprintln!(
                "e2e-bench: unknown workload {other:?} (table2-scalar | seed-sweep | eval-mix)"
            );
            std::process::exit(2);
        }
    };
    for m in &report.mismatches {
        eprintln!("check failed: {m}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("  {name:34} {value:>16.6} {unit}");
    }
    for (name, (value, unit)) in &report.extra {
        println!("  {name:34} {value:>16.6} {unit} (not gated)");
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input a workload sends, rendered to bytes.
    fn inputs(seed: u64) -> [String; 3] {
        let mix = eval_mix::Inputs::generate(seed);
        let bodies: Vec<&str> = mix.bodies.iter().map(|b| b.json.as_str()).collect();
        [
            format!("{:?}", table2::batch(seed)),
            format!("{:?}", seed_sweep::batch(seed)),
            format!("{bodies:?}{:?}{:?}", mix.stream, mix.gaps),
        ]
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(inputs(7), inputs(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let (a, b) = (inputs(7), inputs(8));
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.set("setup_s", 0.25, "s");
        r.extra.insert("max_rps".into(), (10.0, "req/s"));
        r.attempted = 3;
        r.fail("wrong".into());
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
