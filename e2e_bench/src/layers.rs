//! The traced per-layer suite, run by every `--trace 1` run on that
//! run's seed. Each layer's public functions are called inside spans;
//! times come from the spans and counts from the results at the same
//! boundaries. Every traced result is checked against an untraced or
//! standalone run, so tracing provably leaves simulated counts alone.
//!
//! Layer → end-to-end metric it should move:
//! - `exec.*` (scalar `run_image` on the `table2-scalar` batch) →
//!   `sim_issues_per_s` on `table2-scalar`; the counts move
//!   `sr_sim_speedup`/`sr_simt_eff`.
//! - `sweep.*`, `mem.*`, `recon.*` (`run_sweep_image` at exact cohort
//!   widths, the tight-MSHR hierarchy, `warp-split`) →
//!   `sim_issues_per_s` on `seed-sweep`, nothing on `table2-scalar`.
//! - `ir.*`, `analysis.*`, `core.*`, `decode.us` (on the `eval-mix`
//!   inline kernels) → `eval-mix` latency, and `setup_s` of the batch
//!   workloads.
//! - `eval.cache.*`, `server.*`, `gen.lag_ms` → `eval-mix` latency and
//!   `cpu_us_per_op`.

use crate::eval_mix::{self, Inputs, Running, HIGH_RPS, LOW_RPS};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{seed_sweep, stats, table2, Report};
use simt_analysis::{BarrierLiveness, DomTree, LoopForest};
use simt_ir::{parse_and_link, verify_module};
use simt_sim::{
    run_image, run_sweep_image, CancelToken, DecodedImage, Metrics, SimConfig, SweepLaunch,
    SweepStats,
};
use specrecon_core::{compile, lint_errors, CompileOptions, RepairStrategy};
use specrecon_server::api;
use std::collections::BTreeMap;
use workloads::eval::Engine;

pub fn run(seed: u64, tr: &mut Tracer, r: &mut Report) {
    tr.span("layer.exec", 0, |tr| exec(seed, tr, r));
    tr.span("layer.sweep", 0, |tr| sweep(seed, tr, r));
    let mut inputs = Inputs::generate(seed);
    r.attempted += 1;
    if let Err(e) = inputs.check() {
        r.fail(e);
        return;
    }
    tr.span("layer.compile", 0, |tr| compile_layers(&inputs, tr, r));
    tr.span("layer.service", 0, |tr| service(&inputs, tr, r));
}

/// Host nanoseconds of the spans named `name` recorded since index
/// `from`, grouped by request id.
fn span_ns(tr: &Tracer, from: usize, name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in tr.spans()[from..].iter().filter(|s| s.name == name) {
        *out.entry(s.req).or_default() += s.ns();
    }
    out
}

fn total_ns(tr: &Tracer, from: usize, name: &str) -> f64 {
    span_ns(tr, from, name).values().sum::<u64>() as f64
}

/// Scalar runs of the `table2-scalar` batch.
fn exec(seed: u64, tr: &mut Tracer, r: &mut Report) {
    const PASSES: usize = 3;
    let ops = table2::batch(seed);
    let images = table2::images(&ops);
    let cfg = SimConfig::default();
    let reference: Vec<Metrics> = ops
        .iter()
        .zip(&images)
        .map(|(op, img)| {
            run_image(img, &cfg, &op.workload.launch).map(|o| o.metrics).unwrap_or_default()
        })
        .collect();
    let from = tr.spans().len();
    let n = ops.len();
    for pass in 0..PASSES {
        for (i, (op, img)) in ops.iter().zip(&images).enumerate() {
            let out = tr.span("exec.run_image", (pass * n + i) as u64, |_| {
                run_image(img, &cfg, &op.workload.launch)
            });
            r.attempted += 1;
            match out {
                Ok(o) if o.metrics == reference[i] => {}
                Ok(_) => {
                    r.fail(format!("exec: traced {} run changed its counts", op.workload.name))
                }
                Err(e) => r.fail(format!("exec: {}: {e}", op.workload.name)),
            }
        }
    }
    let ns = span_ns(tr, from, "exec.run_image");
    let mut per_kernel: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (&req, &t) in &ns {
        let i = req as usize % n;
        let e = per_kernel.entry(ops[i].workload.name).or_default();
        e.0 += t as f64;
        e.1 += reference[i].issues as f64;
    }
    for (name, (t, issues)) in &per_kernel {
        r.set(format!("exec.{name}.ns_per_issue"), t / issues, "ns");
    }
    let sum = |f: fn(&Metrics) -> u64| reference.iter().map(f).sum::<u64>();
    let secs = total_ns(tr, from, "exec.run_image") / 1e9;
    let passes = PASSES as f64;
    r.set("exec.ns_per_issue", secs * 1e9 / (passes * sum(|m| m.issues) as f64), "ns");
    r.set("exec.cycles_per_s", passes * sum(|m| m.cycles) as f64 / secs, "cycles/s");
    r.set("exec.lane_insts_per_s", passes * sum(|m| m.lane_insts) as f64 / secs, "insts/s");
    r.set("exec.issues", sum(|m| m.issues) as f64, "count");
    r.set("exec.lane_insts", sum(|m| m.lane_insts) as f64, "count");
    r.set("exec.cycles", sum(|m| m.cycles) as f64, "count");
    r.set("exec.barrier_ops", sum(|m| m.barrier_ops) as f64, "count");
    r.set("exec.stall_cycles", sum(|m| m.stall_cycles) as f64, "count");
}

/// The sweep engine at exact cohort widths, against the same seeds run
/// as independent scalar launches.
fn sweep(seed: u64, tr: &mut Tracer, r: &mut Report) {
    const SEEDS: u64 = 64;
    let ws = seed_sweep::workloads();
    let engine = Engine::new(1);
    let opts = RepairStrategy::Sr.options();
    let images: Vec<_> = ws
        .iter()
        .map(|w| engine.decoded(&w.module, Some(&opts)).expect("sweep workloads compile"))
        .collect();
    let mut rng = Rng::new(seed ^ 0x5EED_5EED);
    let los: Vec<u64> = ws.iter().map(|_| rng.next_u64() >> 16).collect();
    let mut req = 0u64;

    // Standalone scalar runs of every seed: the baseline of the flat
    // cohorts, and the reference every cohort's per-seed results must
    // equal.
    let mut scalar_refs: BTreeMap<(seed_sweep::Variant, usize), Vec<Metrics>> = BTreeMap::new();
    let scalar_from = tr.spans().len();
    let mut scalar_issues = 0u64;
    let mut cohorts = |name: &'static str,
                       variant: seed_sweep::Variant,
                       which: &[usize],
                       width: u64,
                       tr: &mut Tracer,
                       r: &mut Report| {
        let cfg = variant.config();
        let (mut issues, mut stats, mut seeds) = (0u64, SweepStats::default(), Vec::new());
        let from = tr.spans().len();
        for &w in which {
            let lo = los[w];
            let scalar = scalar_refs.entry((variant, w)).or_insert_with(|| {
                let span = if variant == seed_sweep::Variant::Flat {
                    "sweep.scalar"
                } else {
                    "sweep.scalar_check"
                };
                (lo..lo + SEEDS)
                    .map(|s| {
                        let mut launch = ws[w].launch.clone();
                        launch.seed = s;
                        let m = tr
                            .span(span, s, |_| run_image(&images[w], &cfg, &launch))
                            .map(|o| o.metrics)
                            .unwrap_or_default();
                        if variant == seed_sweep::Variant::Flat {
                            scalar_issues += m.issues;
                        }
                        m
                    })
                    .collect()
            });
            for j in 0..SEEDS / width {
                req += 1;
                let launch =
                    SweepLaunch::new(ws[w].launch.clone(), lo + j * width, lo + (j + 1) * width);
                r.attempted += 1;
                match tr.span(name, req, |_| run_sweep_image(&images[w], &cfg, &launch, None)) {
                    Ok(out) => {
                        stats.merge(&out.stats);
                        for (k, run) in out.runs.into_iter().enumerate() {
                            match run.result {
                                Ok(o) if o.metrics == scalar[(j * width) as usize + k] => {
                                    issues += o.metrics.issues;
                                    seeds.push(o.metrics);
                                }
                                _ => r.fail(format!(
                                    "{name}: {} seed {} differs from its scalar run",
                                    ws[w].name, run.seed
                                )),
                            }
                        }
                    }
                    Err(e) => r.fail(format!("{name}: {}: {e}", ws[w].name)),
                }
            }
        }
        r.set(
            format!("{name}.ns_per_issue"),
            total_ns(tr, from, name) / issues.max(1) as f64,
            "ns",
        );
        (stats, seeds, issues)
    };
    let all: Vec<usize> = (0..ws.len()).collect();
    use seed_sweep::Variant::{Flat, Hier, WarpSplit};
    cohorts("sweep.w2", Flat, &all, 2, tr, r);
    cohorts("sweep.w4", Flat, &all, 4, tr, r);
    cohorts("sweep.w32", Flat, &all, 32, tr, r);
    let (stats, _, issues) = cohorts("sweep.w64", Flat, &all, 64, tr, r);
    r.set("sweep.lockstep_share", stats.occupancy_sum as f64 / issues.max(1) as f64, "ratio");
    r.set("sweep.mean_occupancy", stats.mean_occupancy(), "slots");
    r.set("sweep.forks", stats.forks as f64, "count");
    r.set("sweep.merges", stats.merges as f64, "count");
    r.set("sweep.scalar_steps", stats.scalar_steps as f64, "count");
    r.set("sweep.peak_subcohorts", f64::from(stats.peak_subcohorts), "count");

    let (_, hier, _) = cohorts("sweep.hier", Hier, &[0, 1], 64, tr, r);
    let l1 = |f: fn(&simt_sim::MemLevelStats) -> u64| {
        hier.iter().map(|m| f(&m.mem.levels[0])).sum::<u64>() as f64
    };
    r.set(
        "mem.l1_hit_rate",
        l1(|l| l.hits) / (l1(|l| l.hits) + l1(|l| l.misses)).max(1.0),
        "ratio",
    );
    let stalls: u64 =
        hier.iter().flat_map(|m| m.mem.levels.iter().map(|l| l.mshr_stall_cycles)).sum();
    r.set("mem.mshr_stalls", stalls as f64, "cycles");

    let (_, split, _) = cohorts("sweep.warp_split", WarpSplit, &[2, 5], 16, tr, r);
    r.set(
        "sweep.scalar.ns_per_issue",
        total_ns(tr, scalar_from, "sweep.scalar") / scalar_issues.max(1) as f64,
        "ns",
    );
    r.set("recon.splits", split.iter().map(|m| m.recon.splits).sum::<u64>() as f64, "count");
    r.set("recon.fusions", split.iter().map(|m| m.recon.fusions).sum::<u64>() as f64, "count");
}

const COMPILE_SPANS: [(&str, RepairStrategy); 5] = [
    ("core.compile.pdom", RepairStrategy::Pdom),
    ("core.compile.sr", RepairStrategy::Sr),
    ("core.compile.meld", RepairStrategy::Meld),
    ("core.compile.sr_meld", RepairStrategy::SrMeld),
    ("core.compile.auto", RepairStrategy::Auto),
];

/// Parse, verify, print, analyses, every repair's compile, lint and
/// decode, per inline kernel of the `eval-mix` pool.
fn compile_layers(inputs: &Inputs, tr: &mut Tracer, r: &mut Report) {
    const PASSES: usize = 3;
    let from = tr.spans().len();
    let n = inputs.pool.len();
    for pass in 0..PASSES {
        for (k, kernel) in inputs.pool.iter().enumerate() {
            let req = (pass * n + k) as u64;
            let Ok(module) = tr.span("ir.parse", req, |_| parse_and_link(&kernel.source)) else {
                r.fail(format!("ir: pool kernel {k} no longer parses"));
                continue;
            };
            if tr.span("ir.verify", req, |_| verify_module(&module)).is_err() {
                r.fail(format!("ir: pool kernel {k} no longer verifies"));
            }
            if tr.span("ir.print", req, |_| module.to_string()) != kernel.source {
                r.fail(format!("ir: pool kernel {k} does not print back to its source"));
            }
            let mut auto = None;
            for (name, repair) in COMPILE_SPANS {
                let opts = CompileOptions { lint: false, ..repair.options() };
                match tr.span(name, req, |_| compile(&module, &opts)) {
                    Ok(c) if repair == RepairStrategy::Auto => auto = Some(c),
                    Ok(_) => {}
                    Err(e) => r.fail(format!("{name}: pool kernel {k}: {e}")),
                }
            }
            let Some(compiled) = auto else { continue };
            if !tr.span("core.lint", req, |_| lint_errors(&compiled)).is_empty() {
                r.fail(format!("core.lint: pool kernel {k} has lint errors"));
            }
            std::hint::black_box(
                tr.span("decode", req, |_| DecodedImage::decode(&compiled.module)),
            );
            for (_, f) in compiled.module.functions.iter() {
                let dom = tr.span("analysis.dom", req, |_| DomTree::dominators(f));
                std::hint::black_box(
                    tr.span("analysis.postdom", req, |_| DomTree::post_dominators(f)),
                );
                std::hint::black_box(tr.span("analysis.loops", req, |_| LoopForest::new(f, &dom)));
                std::hint::black_box(
                    tr.span("analysis.barrier_liveness", req, |_| BarrierLiveness::analyze(f)),
                );
            }
        }
    }
    let per_kernel_us = |name: &str| total_ns(tr, from, name) / (PASSES * n.max(1)) as f64 / 1e3;
    for (metric, span) in [
        ("ir.parse_us", "ir.parse"),
        ("ir.verify_us", "ir.verify"),
        ("ir.print_us", "ir.print"),
        ("analysis.dom_us", "analysis.dom"),
        ("analysis.postdom_us", "analysis.postdom"),
        ("analysis.loops_us", "analysis.loops"),
        ("analysis.barrier_liveness_us", "analysis.barrier_liveness"),
        ("core.lint_us", "core.lint"),
        ("decode.us", "decode"),
    ] {
        r.set(metric, per_kernel_us(span), "us");
    }
    // Metric names take no `+`: `sr+meld` reports as `sr_meld`.
    for (name, _) in COMPILE_SPANS {
        let repair = name.trim_start_matches("core.compile.");
        r.set(format!("core.compile_us.{repair}"), per_kernel_us(name), "us");
    }
}

/// The engine's image cache, the service's request functions called
/// in-process, and the same bodies over HTTP.
fn service(inputs: &Inputs, tr: &mut Tracer, r: &mut Report) {
    const PHASE_S: f64 = 2.0;
    // Cache hits: the named workloads' images, decoded once, then looked
    // up again.
    let engine = Engine::with_capacity(1, 128);
    let named: Vec<_> = [
        workloads::srad::build(&workloads::srad::Params::default()),
        workloads::seedstorm::build(&workloads::seedstorm::Params::default()),
    ]
    .into_iter()
    .flat_map(|w| RepairStrategy::ALL.map(|rep| (w.module.clone(), rep.options())))
    .collect();
    for (m, o) in &named {
        let _ = engine.decoded(m, Some(o));
    }
    let from = tr.spans().len();
    for i in 0..2000 {
        let (m, o) = &named[i % named.len()];
        let _ = tr.span("eval.cache.hit", i as u64, |_| engine.decoded(m, Some(o)));
    }
    r.set("eval.cache.hit_us", total_ns(tr, from, "eval.cache.hit") / 2000.0 / 1e3, "us");

    // In-process: the bodies the `low` phase below sends, through the
    // service's own parse/execute/render on a fresh bounded engine.
    let (_, which) = inputs.schedule(0, LOW_RPS, PHASE_S);
    let engine = Engine::with_capacity(1, 128);
    let token = CancelToken::new();
    let from = tr.spans().len();
    let mut in_process_us = Vec::with_capacity(which.len());
    for (i, &b) in which.iter().enumerate() {
        let body = &inputs.bodies[b];
        let req = i as u64;
        let start = tr.spans().len();
        let parse = if body.json.starts_with("{\"kernel\"") {
            "server.parse_request.inline"
        } else {
            "server.parse_request.named"
        };
        let rendered = tr.span("server.request", req, |tr| {
            let request = tr.span(parse, req, |_| api::parse_request(body.json.as_bytes())).ok()?;
            let json = tr
                .span("server.execute", req, |_| api::execute(&engine, &request, &token, None))
                .ok()?;
            Some(tr.span("server.render", req, |_| json.render()))
        });
        r.attempted += 1;
        if !rendered.is_some_and(|text| inputs.matches(b, text.as_bytes())) {
            r.fail(format!("server: in-process answer to body {b} differs from its expectation"));
        }
        in_process_us.push(tr.spans()[start].ns() as f64 / 1e3);
    }
    let count =
        |name: &str| tr.spans()[from..].iter().filter(|s| s.name == name).count().max(1) as f64;
    for (metric, span) in [
        ("server.parse_request_us.named", "server.parse_request.named"),
        ("server.parse_request_us.inline", "server.parse_request.inline"),
        ("server.execute_us", "server.execute"),
        ("server.render_us", "server.render"),
    ] {
        r.set(metric, total_ns(tr, from, span) / count(span) / 1e3, "us");
    }

    // Over HTTP after a warm-up: the same bodies at `low`, then a `high`
    // phase; queue and status counters come from `GET /metrics`.
    let server = Running::start();
    let warm = &mut Tracer::new(false, std::time::Instant::now());
    eval_mix::phase(
        inputs,
        server.addr,
        3 << 12,
        LOW_RPS,
        PHASE_S / 2.0,
        warm,
        &mut Report::default(),
    );
    let low = eval_mix::phase(inputs, server.addr, 0, LOW_RPS, PHASE_S, tr, r);
    let high = eval_mix::phase(inputs, server.addr, 1 << 12, HIGH_RPS, PHASE_S, tr, r);
    for (rate, ph) in [("low", &low), ("high", &high)] {
        r.attempted += ph.attempted;
        r.failed += ph.failed;
        r.set(format!("server.p50_ms.{rate}"), stats::median(&ph.lat_ms), "ms");
        r.set(format!("server.p99_ms.{rate}"), ph.p99(), "ms");
    }
    r.set(
        "server.http_overhead_us",
        (stats::median(&low.lat_ms) * 1e3 - stats::median(&in_process_us)).max(0.0),
        "us",
    );
    r.set("gen.lag_ms", stats::quantile(&high.lag_ms, 0.99), "ms");
    r.set("server.queue_peak", server.scrape("specrecon_queue_depth_peak"), "count");
    r.set("server.status_503", server.scrape("specrecon_requests_total{code=\"503\"}"), "count");
    r.set("server.status_504", server.scrape("specrecon_requests_total{code=\"504\"}"), "count");
    r.set("eval.cache.hit_rate", server.scrape("specrecon_cache_hit_rate"), "ratio");
}
