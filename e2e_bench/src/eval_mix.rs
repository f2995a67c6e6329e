//! `eval-mix`: an open-loop Poisson stream of `/v1/eval` requests
//! against an in-process `Server` (`nproc` workers, default queue and
//! cache), sent over at most `nproc` keep-alive connections, at the
//! fixed `low` and `high` offered rates plus a search for the highest
//! rate that holds the p99 limit.
//!
//! The mix: ~40% named small kernels (one warp, varying repair and
//! policy), ~40% inline kernels from the synthetic corpus, drawn with a
//! Zipf skew from more distinct (kernel, repair) images than the
//! 128-entry image cache holds, ~15% carrying a `mem_hier` or
//! `recon_model` knob, ~5% 8-seed ranges. Every response's per-seed
//! `cycles` and `simt_efficiency` must equal an in-process expectation
//! computed from the same inputs with the compiler and simulator
//! libraries directly, after set-up and outside its timing.

use crate::http::{open_loop, Conn, Sent};
use crate::rng::{Rng, Zipf};
use crate::trace::Tracer;
use crate::{stats, Bench, Report};
use simt_ir::{parse_and_link, verify_module, FuncKind, Module, Value};
use simt_sim::{
    run_image, DecodedImage, Launch, MemHierarchy, ReconvergenceModel, SchedulerPolicy, SimConfig,
};
use specrecon_core::{compile, RepairStrategy};
use specrecon_server::json::Json;
use specrecon_server::{ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Fixed offered rates and the latency limit. `low` leaves the service
/// mostly idle; `high` keeps it busy without a growing backlog on a
/// 2-vCPU host, where the mix saturates at roughly 2,500–4,500 req/s.
pub const LOW_RPS: f64 = 400.0;
pub const HIGH_RPS: f64 = 1000.0;
/// p99 latency limit, timed from when each request was due.
pub const LIMIT_MS: f64 = 50.0;

/// Corpus kernels generated per seed; those that compile, lint and run
/// in-process form the inline pool.
const CORPUS: usize = 320;
/// Least share of the generated bodies the in-process checks must keep;
/// below it the run counts as incorrect instead of quietly sending a
/// thinner mix.
const MIN_KEPT: f64 = 0.5;
const NAMED: [&str; 4] = ["srad", "microbench", "seed-storm", "pathtracer"];
const POLICIES: [&str; 5] = ["greedy", "minpc", "maxpc", "mostthreads", "roundrobin"];
const REPAIRS: [RepairStrategy; 5] = RepairStrategy::ALL;
const RECON: [&str; 3] = ["ipdom-stack", "warp-split", "warp-split:window=4,compact"];
const MEM_HIER: &str = crate::seed_sweep::TIGHT_MSHR;
const RANGE_SEEDS: u64 = 8;
/// Corpus kernels carry no `Predict` annotations, so speculative
/// reconvergence reaches them through automatic detection.
const INLINE_REPAIRS: [RepairStrategy; 2] = [RepairStrategy::Pdom, RepairStrategy::Auto];
/// Request classes and their shares of the traffic.
const CLASS_SHARE: [(Class, f64); 4] =
    [(Class::Named, 0.40), (Class::Inline, 0.40), (Class::Knob, 0.15), (Class::Range, 0.05)];
/// Length of the request stream and of the arrival-gap sequence; phases
/// start at different offsets and wrap around.
const STREAM: usize = 1 << 14;
/// Distinct bodies of the knob and range classes: enough that a seed's
/// traffic averages over many kernels instead of a few heavy ones.
const KNOB_BODIES: usize = 256;
const RANGE_BODIES: usize = 128;
/// Zipf exponent of inline-kernel popularity: about half the inline
/// traffic falls outside the hottest 128 images.
const ZIPF_S: f64 = 0.7;
/// Alternating `low`/`high` block pairs per run.
const BLOCKS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Class {
    Named,
    Inline,
    Knob,
    Range,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Target {
    Named(usize),
    Inline(usize),
}

/// An inline kernel of the pool: its source text and launch.
#[derive(Clone, Debug)]
pub struct PoolKernel {
    pub source: String,
    module: Module,
    entry: String,
    warps: usize,
    mem: usize,
    /// Launch seed of the corpus entry, at which the pool check runs it.
    seed: u64,
}

/// One distinct request body and the per-seed results it must return.
#[derive(Clone, Debug)]
pub struct Body {
    pub json: String,
    spec: Spec,
    /// `(seed, cycles, simt_efficiency)` per run, in response order; set
    /// by [`Inputs::check`].
    pub expect: Vec<(u64, u64, f64)>,
    /// Simulated warp-issues the request performs; set by
    /// [`Inputs::check`].
    pub issues: u64,
}

/// Everything the workload sends, generated from the seed.
pub struct Inputs {
    pub pool: Vec<PoolKernel>,
    pub bodies: Vec<Body>,
    /// Body index of every request in the stream.
    pub stream: Vec<usize>,
    /// Unit-mean exponential inter-arrival gaps.
    pub gaps: Vec<f64>,
}

/// What [`Inputs::check`] found.
#[derive(Debug)]
pub struct Checked {
    /// Geomean PDOM ÷ SR (automatic detection) simulated cycles over the
    /// kept pool.
    pub sr_speedup: f64,
    /// Mean SR (automatic detection) SIMT efficiency over the kept pool.
    pub sr_eff: f64,
    /// Corpus kernels kept in the pool, of those generated.
    pub kernels: (usize, usize),
    /// Bodies kept in the stream, of those generated.
    pub bodies: (usize, usize),
}

fn policy(name: &str) -> SchedulerPolicy {
    match name {
        "minpc" => SchedulerPolicy::MinPc,
        "maxpc" => SchedulerPolicy::MaxPc,
        "mostthreads" => SchedulerPolicy::MostThreads,
        "roundrobin" => SchedulerPolicy::RoundRobin,
        _ => SchedulerPolicy::Greedy,
    }
}

fn named_workloads() -> Vec<workloads::Workload> {
    let pathtracer =
        workloads::registry().into_iter().find(|w| w.name == "pathtracer").expect("pathtracer");
    vec![
        workloads::srad::build(&workloads::srad::Params::default()),
        workloads::microbench::build_common_call(&workloads::microbench::Params::default()),
        workloads::seedstorm::build(&workloads::seedstorm::Params::default()),
        pathtracer,
    ]
}

/// The knobs of one request.
#[derive(Clone, Copy, Debug)]
struct Spec {
    target: Target,
    repair: RepairStrategy,
    policy: usize,
    mem_hier: bool,
    recon: Option<usize>,
    seed: u64,
    range: bool,
}

/// Expected `(seed, cycles, simt_efficiency)` per run, and the total
/// simulated warp-issues.
type Expected = (Vec<(u64, u64, f64)>, u64);

/// Computes expected results in-process, with the compiler and the
/// simulator called directly (not through the service's request code).
struct Oracle {
    named: Vec<workloads::Workload>,
    images: HashMap<(Target, RepairStrategy), Arc<DecodedImage>>,
}

impl Oracle {
    fn image(
        &mut self,
        target: Target,
        module: &Module,
        repair: RepairStrategy,
    ) -> Result<Arc<DecodedImage>, String> {
        if let Some(img) = self.images.get(&(target, repair)) {
            return Ok(Arc::clone(img));
        }
        let opts = specrecon_core::CompileOptions { lint: true, ..repair.options() };
        let compiled = compile(module, &opts).map_err(|e| e.to_string())?;
        let img = Arc::new(DecodedImage::decode(&compiled.module));
        self.images.insert((target, repair), Arc::clone(&img));
        Ok(img)
    }

    fn expect(&mut self, spec: &Spec, pool: &[PoolKernel]) -> Result<Expected, String> {
        let (module, mut launch) = match spec.target {
            Target::Named(i) => {
                let w = &self.named[i];
                let mut launch = w.launch.clone();
                launch.num_warps = 1;
                (w.module.clone(), launch)
            }
            Target::Inline(i) => {
                let k = &pool[i];
                let mut launch = Launch::new(k.entry.clone(), k.warps);
                launch.global_mem = vec![Value::I64(0); k.mem];
                (k.module.clone(), launch)
            }
        };
        let image = self.image(spec.target, &module, spec.repair)?;
        let mut cfg =
            SimConfig { scheduler: policy(POLICIES[spec.policy]), ..SimConfig::default() };
        if spec.mem_hier {
            cfg.mem = Some(MemHierarchy::parse(MEM_HIER, &cfg.latency)?);
        }
        if let Some(r) = spec.recon {
            cfg.recon = ReconvergenceModel::parse(RECON[r])?;
        }
        let seeds =
            if spec.range { spec.seed..spec.seed + RANGE_SEEDS } else { spec.seed..spec.seed + 1 };
        let mut out = Vec::new();
        let mut issues = 0;
        for seed in seeds {
            launch.seed = seed;
            let m = run_image(&image, &cfg, &launch).map_err(|e| e.to_string())?.metrics;
            issues += m.issues;
            out.push((seed, m.cycles, m.simt_efficiency()));
        }
        Ok((out, issues))
    }
}

fn body_json(spec: &Spec, pool: &[PoolKernel]) -> String {
    let mut fields = Vec::new();
    match spec.target {
        Target::Named(i) => {
            fields.push(("workload".to_string(), Json::str(NAMED[i])));
            fields.push(("warps".to_string(), Json::u64(1)));
        }
        Target::Inline(i) => {
            let k = &pool[i];
            fields.push(("kernel".to_string(), Json::str(k.source.clone())));
            fields.push(("warps".to_string(), Json::u64(k.warps as u64)));
            fields.push(("mem".to_string(), Json::u64(k.mem as u64)));
        }
    }
    fields.push(("repair".to_string(), Json::str(spec.repair.spec())));
    fields.push(("policy".to_string(), Json::str(POLICIES[spec.policy])));
    if spec.mem_hier {
        fields.push(("mem_hier".to_string(), Json::str(MEM_HIER)));
    }
    if let Some(r) = spec.recon {
        fields.push(("recon_model".to_string(), Json::str(RECON[r])));
    }
    if spec.range {
        fields.push((
            "seeds".to_string(),
            Json::Arr(vec![Json::u64(spec.seed), Json::u64(spec.seed + RANGE_SEEDS)]),
        ));
    } else {
        fields.push(("seed".to_string(), Json::u64(spec.seed)));
    }
    Json::Obj(fields).render()
}

impl Inputs {
    /// Generates the pool, the distinct bodies and the stream from the
    /// seed. Nothing is compiled or run here: [`Inputs::check`] computes
    /// the expected results and drops what does not run in-process.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);

        // Candidate inline kernels: corpus kernels that print, parse and
        // verify.
        let mut pool = Vec::new();
        for entry in workloads::corpus::generate(CORPUS, rng.next_u64()) {
            let source = entry.workload.module.to_string();
            let Ok(module) = parse_and_link(&source) else { continue };
            if verify_module(&module).is_err() {
                continue;
            }
            let Some(entry_name) = module
                .functions
                .iter()
                .find(|(_, f)| f.kind == FuncKind::Kernel)
                .map(|(_, f)| f.name.clone())
            else {
                continue;
            };
            let launch = &entry.workload.launch;
            pool.push(PoolKernel {
                source,
                module,
                entry: entry_name,
                warps: launch.num_warps,
                mem: launch.global_mem.len(),
                seed: launch.seed,
            });
        }

        // Distinct request bodies per class.
        let n_pool = pool.len();
        let mut bodies = Vec::new();
        let mut classes: Vec<(Class, Vec<usize>)> = Vec::new();
        let mut add = |spec: Spec, members: &mut Vec<usize>| {
            bodies.push(Body {
                json: body_json(&spec, &pool),
                spec,
                expect: Vec::new(),
                issues: 0,
            });
            members.push(bodies.len() - 1);
        };
        let mut named = Vec::new();
        for t in 0..NAMED.len() {
            for repair in REPAIRS {
                for policy in 0..POLICIES.len() {
                    let spec = Spec {
                        target: Target::Named(t),
                        repair,
                        policy,
                        mem_hier: false,
                        recon: None,
                        seed: rng.next_u64() >> 32,
                        range: false,
                    };
                    add(spec, &mut named);
                }
            }
        }
        classes.push((Class::Named, named));
        let mut inline = Vec::new();
        for k in 0..n_pool {
            for repair in INLINE_REPAIRS {
                let spec = Spec {
                    target: Target::Inline(k),
                    repair,
                    policy: rng.below(POLICIES.len()),
                    mem_hier: false,
                    recon: None,
                    seed: rng.next_u64() >> 32,
                    range: false,
                };
                add(spec, &mut inline);
            }
        }
        classes.push((Class::Inline, inline));
        let target = |rng: &mut Rng| {
            if rng.unit() < 0.5 {
                Target::Named(rng.below(NAMED.len()))
            } else {
                Target::Inline(rng.below(n_pool))
            }
        };
        let mut knob = Vec::new();
        for _ in 0..KNOB_BODIES {
            let mem_hier = rng.unit() < 0.5;
            let recon = (!mem_hier).then(|| rng.below(RECON.len()));
            let spec = Spec {
                target: target(&mut rng),
                repair: *rng.pick(&INLINE_REPAIRS),
                policy: rng.below(POLICIES.len()),
                mem_hier,
                recon,
                seed: rng.next_u64() >> 32,
                range: false,
            };
            add(spec, &mut knob);
        }
        classes.push((Class::Knob, knob));
        let mut range = Vec::new();
        for _ in 0..RANGE_BODIES {
            let spec = Spec {
                target: Target::Inline(rng.below(n_pool)),
                repair: *rng.pick(&INLINE_REPAIRS),
                policy: 0,
                mem_hier: false,
                recon: None,
                seed: rng.next_u64() >> 32,
                range: true,
            };
            add(spec, &mut range);
        }
        classes.push((Class::Range, range));

        // The stream: a class by its share, then a body. Inline bodies
        // are drawn by Zipf rank (ranks in pool order, which the seed
        // draws) so the bounded image cache both hits and misses; the
        // small classes are drawn uniformly, so no single heavy body
        // dominates a seed's traffic.
        let inline_zipf = Zipf::new(classes[1].1.len(), ZIPF_S);
        let mut stream = Vec::with_capacity(STREAM);
        let mut gaps = Vec::with_capacity(STREAM);
        for _ in 0..STREAM {
            let mut u = rng.unit();
            let c = CLASS_SHARE.iter().position(|&(_, share)| {
                u -= share;
                u < 0.0
            });
            let (class, members) = &classes[c.unwrap_or(CLASS_SHARE.len() - 1)];
            let pick = if *class == Class::Inline {
                inline_zipf.sample(&mut rng)
            } else {
                rng.below(members.len())
            };
            stream.push(members[pick]);
            gaps.push(rng.exp(1.0));
        }
        Inputs { pool, bodies, stream, gaps }
    }

    /// Computes every body's expected results in-process, with the
    /// compiler and simulator called directly (not through the service's
    /// request code). Pool kernels that do not compile (linted) and run
    /// at their own launch under PDOM and under SR by automatic detection
    /// leave the pool with every body that targets them, as do bodies
    /// whose own runs fail; the stream skips what left. Fewer than
    /// `MIN_KEPT` of the bodies kept is an error.
    pub fn check(&mut self) -> Result<Checked, String> {
        let mut oracle = Oracle { named: named_workloads(), images: HashMap::new() };
        let mut kept_kernel = vec![false; self.pool.len()];
        let (mut speedups, mut effs) = (Vec::new(), Vec::new());
        for (i, k) in self.pool.iter().enumerate() {
            let spec = |repair| Spec {
                target: Target::Inline(i),
                repair,
                policy: 0,
                mem_hier: false,
                recon: None,
                seed: k.seed,
                range: false,
            };
            if let (Ok((p, _)), Ok((s, _))) = (
                oracle.expect(&spec(RepairStrategy::Pdom), &self.pool),
                oracle.expect(&spec(RepairStrategy::Auto), &self.pool),
            ) {
                speedups.push(p[0].1 as f64 / s[0].1 as f64);
                effs.push(s[0].2);
                kept_kernel[i] = true;
            }
        }
        let mut kept_body = vec![false; self.bodies.len()];
        for (b, body) in self.bodies.iter_mut().enumerate() {
            if let Target::Inline(i) = body.spec.target {
                if !kept_kernel[i] {
                    continue;
                }
            }
            if let Ok((expect, issues)) = oracle.expect(&body.spec, &self.pool) {
                (body.expect, body.issues) = (expect, issues);
                kept_body[b] = true;
            }
        }
        self.stream.retain(|&b| kept_body[b]);
        let checked = Checked {
            sr_speedup: stats::geomean(&speedups),
            sr_eff: stats::mean(&effs),
            kernels: (speedups.len(), self.pool.len()),
            bodies: (kept_body.iter().filter(|&&k| k).count(), self.bodies.len()),
        };
        let mut i = 0;
        self.pool.retain(|_| (kept_kernel[i], i += 1).0);
        if (checked.bodies.0 as f64) < MIN_KEPT * checked.bodies.1 as f64 || self.stream.is_empty()
        {
            return Err(format!(
                "eval-mix: only {} of {} bodies run in-process",
                checked.bodies.0, checked.bodies.1
            ));
        }
        Ok(checked)
    }

    /// The due times (ns from phase start) and body indices of a phase
    /// at `rate` requests per second, starting at stream `offset`.
    pub fn schedule(&self, offset: usize, rate: f64, seconds: f64) -> (Vec<u64>, Vec<usize>) {
        let mut t = 0.0;
        let (mut due, mut which) = (Vec::new(), Vec::new());
        for j in 0.. {
            t += self.gaps[(offset + j) % self.gaps.len()] / rate;
            if t >= seconds {
                break;
            }
            due.push((t * 1e9) as u64);
            which.push(self.stream[(offset + j) % self.stream.len()]);
        }
        (due, which)
    }

    /// Whether a response carries exactly the expected per-seed results.
    pub fn matches(&self, body: usize, response: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(response) else { return false };
        let Ok(doc) = Json::parse(text) else { return false };
        let Some(runs) = doc.get("runs").and_then(Json::as_arr) else { return false };
        let expect = &self.bodies[body].expect;
        runs.len() == expect.len()
            && runs.iter().zip(expect).all(|(run, &(seed, cycles, eff))| {
                run.get("seed").and_then(Json::as_u64) == Some(seed)
                    && run.get("cycles").and_then(Json::as_u64) == Some(cycles)
                    && run.get("simt_efficiency").and_then(Json::as_f64) == Some(eff)
            })
    }
}

/// An in-process server running its accept loop on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<specrecon_server::DrainReport>>>,
}

impl Running {
    /// Starts a server with `nproc` workers and default queue, cache and
    /// deadline settings, request logging off.
    pub fn start() -> Running {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: crate::nproc(),
            log: false,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).expect("bind a loopback port");
        let (addr, handle) = (server.addr(), server.handle());
        let thread = std::thread::Builder::new()
            .name("accept".into())
            .spawn(move || server.run())
            .expect("spawn server");
        Running { addr, handle, thread: Some(thread) }
    }

    /// Scrapes one unlabelled or labelled sample from `GET /metrics`.
    pub fn scrape(&self, series: &str) -> f64 {
        let text = Conn::connect(self.addr)
            .and_then(|mut c| c.request("GET", "/metrics", ""))
            .map(|(_, body)| String::from_utf8_lossy(&body).into_owned())
            .unwrap_or_default();
        text.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One generator connection and its spans.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    pub tracer: Tracer,
}

impl Client {
    pub fn new(addr: SocketAddr, tracer: Tracer) -> Client {
        Client { addr, conn: Conn::connect(addr).ok(), tracer }
    }

    /// Sends one body; a transport error answers status 0 and the next
    /// request reconnects.
    pub fn send(&mut self, body: &str, req: u64) -> (u16, Vec<u8>) {
        let Client { addr, conn, tracer } = self;
        tracer.span("http.eval", req, |_| {
            if conn.is_none() {
                *conn = Conn::connect(*addr).ok();
            }
            let Some(c) = conn.as_mut() else { return (0, Vec::new()) };
            c.request("POST", "/v1/eval", body).unwrap_or_else(|_| {
                *conn = None;
                (0, Vec::new())
            })
        })
    }
}

/// Outcome of one open-loop phase.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub lat_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    /// Errors, non-2xx answers, wrong outputs and answers over the limit.
    pub failed: u64,
    /// Simulated warp-issues of the requests answered correctly.
    pub issues: u64,
    /// From the phase start to its last answer (at least the schedule's
    /// length).
    pub seconds: f64,
    /// Host CPU seconds the whole process (server and generator) used
    /// while the requests were in flight.
    pub cpu_s: f64,
}

impl PhaseOut {
    pub fn p99(&self) -> f64 {
        stats::quantile(&self.lat_ms, 0.99)
    }

    /// Whether the generator fell further behind over the phase: the
    /// median lag of the last quarter of requests exceeds the first
    /// quarter's by more than a millisecond.
    pub fn backlog_grows(&self) -> bool {
        let q = self.lag_ms.len() / 4;
        if q == 0 {
            return false;
        }
        stats::median(&self.lag_ms[self.lag_ms.len() - q..])
            > stats::median(&self.lag_ms[..q]) + 1.0
    }

    /// Holds the limit: p99 within it and no growing backlog.
    pub fn sustained(&self) -> bool {
        self.p99() <= LIMIT_MS && !self.backlog_grows() && self.failed == 0
    }
}

/// An answer's HTTP status (0 for a transport error), and `Ok` if it is
/// a 2xx carrying the expected results, else its body.
type Answer = (u16, Result<(), Vec<u8>>);

/// Runs one open-loop phase against `addr` and checks every answer.
/// Wrong outputs and error statuses other than 503/504 are recorded in
/// `r` as incorrect.
pub fn phase(
    inputs: &Inputs,
    addr: SocketAddr,
    offset: usize,
    rate: f64,
    seconds: f64,
    tracer: &mut Tracer,
    r: &mut Report,
) -> PhaseOut {
    let (due, which) = inputs.schedule(offset, rate, seconds);
    let clients: Vec<Client> =
        (0..crate::nproc()).map(|_| Client::new(addr, tracer.sibling())).collect();
    let req0 = (offset as u64) << 32;
    let cpu_start = crate::cpu_s();
    // Each answer is judged on arrival, so a phase holds no response
    // bodies.
    let (sent, clients) = open_loop(&due, clients, |c, i| -> Answer {
        let (status, body) = c.send(&inputs.bodies[which[i]].json, req0 + i as u64);
        let ok = (200..300).contains(&status) && inputs.matches(which[i], &body);
        (status, if ok { Ok(()) } else { Err(body) })
    });
    let cpu_s = crate::cpu_s() - cpu_start;
    for c in clients {
        tracer.absorb(c.tracer);
    }
    let end_s =
        sent.iter().map(|s| (due[s.idx] + s.latency_ns) as f64 / 1e9).fold(seconds, f64::max);
    PhaseOut { cpu_s, ..judge(inputs, &which, &sent, end_s, r) }
}

fn judge(
    inputs: &Inputs,
    which: &[usize],
    sent: &[Sent<Answer>],
    seconds: f64,
    r: &mut Report,
) -> PhaseOut {
    let mut out = PhaseOut { seconds, ..PhaseOut::default() };
    for s in sent {
        let body = which[s.idx];
        let lat = s.latency_ns as f64 / 1e6;
        out.lat_ms.push(lat);
        out.lag_ms.push(s.lag_ns as f64 / 1e6);
        out.attempted += 1;
        let ok = match &s.out {
            (_, Ok(())) => true,
            (0 | 503 | 504, _) => false,
            (status, Err(answer)) => {
                if r.mismatches.len() < 32 {
                    r.mismatches.push(format!(
                        "eval-mix: status {status} with a wrong answer to {:.120}: {}",
                        inputs.bodies[body].json,
                        String::from_utf8_lossy(answer)
                    ));
                }
                false
            }
        };
        if ok {
            out.issues += inputs.bodies[body].issues;
        }
        if !ok || lat > LIMIT_MS {
            out.failed += 1;
        }
    }
    out
}

pub struct EvalMix {
    inputs: Inputs,
    server: Running,
}

impl Bench for EvalMix {
    fn setup(seed: u64) -> Self {
        let inputs = Inputs::generate(seed);
        EvalMix { inputs, server: Running::start() }
    }

    /// Computes the expected answers and records the simulated SR
    /// effect on the inline pool.
    fn check(&mut self, r: &mut Report) {
        r.attempted += 1;
        match self.inputs.check() {
            Ok(c) => {
                println!(
                    "eval-mix: {} of {} corpus kernels and {} of {} bodies run in-process",
                    c.kernels.0, c.kernels.1, c.bodies.0, c.bodies.1
                );
                r.set("sr_sim_speedup", c.sr_speedup, "ratio");
                r.set("sr_simt_eff", c.sr_eff, "ratio");
            }
            Err(e) => r.fail(e),
        }
    }

    fn measure(&mut self, seconds: f64, tracer: &mut Tracer, r: &mut Report) {
        let (inputs, addr) = (&self.inputs, self.server.addr);
        // Warm-up at `low`: fills the image cache with the popular
        // kernels, as a running service has; not counted.
        let untraced = &mut Tracer::new(false, Instant::now());
        phase(
            inputs,
            addr,
            STREAM - STREAM / 8,
            LOW_RPS,
            seconds * 0.05,
            untraced,
            &mut Report::default(),
        );

        // `low` and `high` in alternating blocks of ~500 requests each
        // (at 20 s), so slow spells of the host fall on both rates; p99 is
        // the median of the blocks' p99s.
        let (mut low, mut high) = (Vec::new(), Vec::new());
        let stride = STREAM / (2 * BLOCKS);
        for b in 0..BLOCKS {
            let (lo_s, hi_s) = (seconds * 0.5 / BLOCKS as f64, seconds * 0.2 / BLOCKS as f64);
            low.push(phase(inputs, addr, b * stride, LOW_RPS, lo_s, tracer, r));
            high.push(phase(inputs, addr, (b + BLOCKS) * stride, HIGH_RPS, hi_s, tracer, r));
        }
        for (rate, blocks) in [("low", &low), ("high", &high)] {
            let lat: Vec<f64> = blocks.iter().flat_map(|b| b.lat_ms.iter().copied()).collect();
            let p99s: Vec<f64> = blocks.iter().map(PhaseOut::p99).collect();
            r.set_extra(format!("p50_ms.{rate}"), stats::median(&lat), "ms");
            r.set_extra(format!("p99_ms.{rate}"), stats::median(&p99s), "ms");
            for b in blocks {
                r.attempted += b.attempted;
                r.failed += b.failed;
            }
        }
        // Host cost per block pair, median over the pairs: at a fixed
        // offered rate the issues answered per wall-clock second are set
        // by the mix, not by the program, so throughput is per CPU second.
        let (mut us_per_op, mut issues_per_s) = (Vec::new(), Vec::new());
        for (l, h) in low.iter().zip(&high) {
            let cpu = l.cpu_s + h.cpu_s;
            us_per_op.push(cpu * 1e6 / (l.attempted + h.attempted) as f64);
            issues_per_s.push((l.issues + h.issues) as f64 / cpu);
        }
        let pairs: Vec<String> = us_per_op.iter().map(|u| format!("{u:.0}")).collect();
        println!("eval-mix: CPU us per request by block pair: {}", pairs.join(" "));
        r.set("cpu_us_per_op", stats::median(&us_per_op), "us");
        r.set("sim_issues_per_s", stats::median(&issues_per_s), "issues/s");

        // Highest sustained rate: measure the saturated throughput with
        // a burst far above it, then step down from just below it until
        // a probe holds the limit.
        let burst = phase(inputs, addr, STREAM / 2, 50_000.0, seconds * 0.0015, untraced, r);
        let saturated = burst.attempted as f64 / burst.seconds;
        let mut max_rps = HIGH_RPS;
        for step in 1..=6 {
            let rate = saturated * (1.0 - 0.05 * step as f64);
            if rate <= HIGH_RPS {
                break;
            }
            let out =
                phase(inputs, addr, STREAM / 2 + step * 1024, rate, seconds * 0.04, tracer, r);
            if out.sustained() {
                max_rps = rate;
                break;
            }
        }
        r.set_extra("max_rps", max_rps, "req/s");
    }
}
