//! Socket-level integration tests for the eval service: real TCP
//! connections against a server running in-process, covering the
//! acceptance contract from ISSUE: bounded queue admission, 503
//! backpressure with `Retry-After`, deadline expiry, and graceful
//! drain with no silent drops.

use specrecon_server::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a fresh connection and reads the reply.
fn request(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, method, path, body);
    read_reply(&mut stream)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
}

fn read_reply(stream: &mut TcpStream) -> Reply {
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set client read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header line");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().expect("content-length");
            }
            headers.push((k, v));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Reply { status, headers, body: String::from_utf8_lossy(&body).into_owned() }
}

fn start(
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    specrecon_server::ServerHandle,
    std::thread::JoinHandle<std::io::Result<specrecon_server::DrainReport>>,
) {
    let server = Server::start(cfg).expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

fn local(queue_depth: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        log: false,
        ..ServeConfig::default()
    }
}

/// An inline kernel whose single warp spins `iters` times over a
/// `work`-heavy loop body — the knob the slow-request tests turn.
fn spin_kernel(iters: u64) -> String {
    format!(
        "kernel @spin(params=0, regs=4, barriers=0, entry=bb0) {{\n\
         bb0:\n  %r0 = mov 0\n  %r1 = mov {iters}\n  jmp bb1\n\
         bb1:\n  work 20\n  %r2 = mov 1\n  %r0 = add %r0, %r2\n  %r3 = lt %r0, %r1\n  br %r3, bb1, bb2\n\
         bb2:\n  exit\n}}\n"
    )
}

fn spin_body(iters: u64, deadline_ms: u64) -> String {
    format!(r#"{{"kernel":{:?},"warps":1,"deadline_ms":{deadline_ms}}}"#, spin_kernel(iters))
}

#[test]
#[ignore = "calibration probe, run manually with --ignored --nocapture"]
fn calibrate_spin_kernel() {
    let (addr, handle, runner) = start(local(8, 2));
    for iters in [10_000u64, 100_000, 1_000_000] {
        let t0 = Instant::now();
        let r = request(&addr, "POST", "/v1/eval", &spin_body(iters, 120_000));
        println!("iters={iters}: status={} in {:?}", r.status, t0.elapsed());
    }
    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn healthz_metrics_and_eval_round_trip() {
    let (addr, handle, runner) = start(local(8, 2));

    let health = request(&addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let eval =
        request(&addr, "POST", "/v1/eval", r#"{"workload":"microbench","warps":2,"seeds":2}"#);
    assert_eq!(eval.status, 200, "eval failed: {}", eval.body);
    assert_eq!(eval.header("Content-Type"), Some("application/json"));
    for key in ["\"workload\":\"microbench\"", "\"runs\"", "\"aggregate\"", "\"cache\""] {
        assert!(eval.body.contains(key), "missing {key} in {}", eval.body);
    }

    // A second identical request must hit the compiled-image cache.
    let again =
        request(&addr, "POST", "/v1/eval", r#"{"workload":"microbench","warps":2,"seeds":2}"#);
    assert_eq!(again.status, 200);

    let metrics = request(&addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    for key in [
        "specrecon_requests_total{code=\"200\"}",
        "specrecon_queue_depth_peak",
        "specrecon_cache_hits_total",
        "specrecon_eval_latency_seconds_bucket",
    ] {
        assert!(metrics.body.contains(key), "missing {key} in metrics:\n{}", metrics.body);
    }
    assert!(!metrics.body.contains("specrecon_cache_hits_total 0\n"), "cache hit not counted");

    handle.shutdown();
    let report = runner.join().unwrap().unwrap();
    assert!(report.ok >= 3, "expected >=3 2xx, got {report:?}");
}

#[test]
fn sweep_requests_export_fork_merge_counters() {
    let (addr, handle, runner) = start(local(8, 2));

    // Seed-storm diverges on nearly every round of a seed sweep, so the
    // fork/merge counters must move; the range form triggers the sweep
    // engine.
    let eval = request(&addr, "POST", "/v1/eval", r#"{"workload":"seed-storm","seeds":[0,16]}"#);
    assert_eq!(eval.status, 200, "sweep eval failed: {}", eval.body);
    for key in ["\"sweep\"", "\"forks\"", "\"merges\"", "\"mean_occupancy\"", "\"scalar_steps\""] {
        assert!(eval.body.contains(key), "missing {key} in {}", eval.body);
    }

    let metrics = request(&addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(
        scrape_gauge(&metrics.body, "specrecon_sweep_forks_total") > 0.0,
        "seed-storm sweep must fork:\n{}",
        metrics.body
    );
    assert!(
        scrape_gauge(&metrics.body, "specrecon_sweep_merges_total") > 0.0,
        "forked sub-cohorts must merge:\n{}",
        metrics.body
    );
    assert_eq!(
        scrape_gauge(&metrics.body, "specrecon_sweep_scalar_steps_total"),
        0.0,
        "2^warps classes fit the sub-cohort cap:\n{}",
        metrics.body
    );
    assert!(
        scrape_gauge(&metrics.body, "specrecon_sweep_mean_occupancy") > 1.0,
        "divergent sweep still issues multiple slots per instruction:\n{}",
        metrics.body
    );

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn error_statuses_are_mapped() {
    let (addr, handle, runner) = start(local(8, 2));

    assert_eq!(request(&addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(&addr, "GET", "/v1/eval", "").status, 405);
    assert_eq!(request(&addr, "POST", "/v1/eval", "{not json").status, 400);
    let unknown = request(&addr, "POST", "/v1/eval", r#"{"workload":"nope"}"#);
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("unknown workload"));
    let both = request(&addr, "POST", "/v1/eval", r#"{"workload":"microbench","kernel":"kernel"}"#);
    assert_eq!(both.status, 400);
    // Inline source that parses as JSON but not as kernel IR → 400 with
    // the compiler's message.
    let bad_kernel = request(&addr, "POST", "/v1/eval", r#"{"kernel":"kernel @broken"}"#);
    assert_eq!(bad_kernel.status, 400);

    // Body over the 1 MiB cap → 413, connection closed.
    let huge = format!(r#"{{"kernel":"{}"}}"#, "x".repeat(2 * 1024 * 1024));
    let oversized = request(&addr, "POST", "/v1/eval", &huge);
    assert_eq!(oversized.status, 413);

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

/// Satellite regression pin: a body-limit rejection answers 413 *and*
/// tears the connection down. The unread body bytes are still on the
/// socket, so keeping the connection open would desynchronize the
/// parser (the next "request line" would be kernel text).
#[test]
fn oversized_body_closes_the_connection() {
    let (addr, handle, runner) = start(local(8, 2));

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Declare an oversized body but never send it — the server must
    // reject on the Content-Length alone.
    let head = format!(
        "POST /v1/eval HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        3 * 1024 * 1024
    );
    stream.write_all(head.as_bytes()).expect("write head");
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, 413);
    assert_eq!(reply.header("Connection"), Some("close"), "413 must advertise close");
    // The server actually closed: the next read reaches EOF rather than
    // hanging on a half-open keep-alive connection.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("read to end");
    assert_eq!(n, 0, "socket must be closed after a 413, got {n} extra bytes");

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

/// Seed ranges wider than one 64-slot cohort used to be rejected at the
/// API boundary even though the engine chunks arbitrary ranges. A
/// 200-seed range must now answer — bit-identically to 200 scalar
/// per-seed runs of the same workload.
#[test]
fn two_hundred_seed_range_matches_scalar_runs() {
    let (addr, handle, runner) = start(local(8, 2));

    let sweep = request(
        &addr,
        "POST",
        "/v1/eval",
        r#"{"workload":"microbench","mode":"baseline","warps":1,"seeds":[0,200]}"#,
    );
    assert_eq!(sweep.status, 200, "wide range rejected: {}", sweep.body);
    let scalar = request(
        &addr,
        "POST",
        "/v1/eval",
        r#"{"workload":"microbench","mode":"baseline","warps":1,"seed":0,"seeds":200}"#,
    );
    assert_eq!(scalar.status, 200, "scalar batch failed: {}", scalar.body);

    let runs = |body: &str| -> String {
        let start = body.find("\"runs\":").expect("runs field");
        let end = body[start..].find("],").map(|i| start + i + 1).expect("runs array end");
        body[start..end].to_string()
    };
    let (sweep_runs, scalar_runs) = (runs(&sweep.body), runs(&scalar.body));
    assert_eq!(sweep_runs.matches("\"seed\"").count(), 200, "one entry per seed");
    assert_eq!(sweep_runs, scalar_runs, "sweep and scalar per-seed metrics must be bit-identical");

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

/// Hierarchy-model requests surface per-level counters in `/metrics`.
#[test]
fn mem_hierarchy_counters_reach_prometheus() {
    let (addr, handle, runner) = start(local(8, 2));

    let eval = request(
        &addr,
        "POST",
        "/v1/eval",
        r#"{"workload":"microbench","warps":1,"mem_hier":"l1:lines=16,cells=16,lat=2;dram:lat=24,extra=2"}"#,
    );
    assert_eq!(eval.status, 200, "hierarchy eval failed: {}", eval.body);
    assert!(eval.body.contains("\"mem\""), "response carries a mem object: {}", eval.body);

    let metrics = request(&addr, "GET", "/metrics", "");
    let l1_traffic = scrape_gauge(&metrics.body, "specrecon_mem_hits_total{level=\"L1\"}")
        + scrape_gauge(&metrics.body, "specrecon_mem_misses_total{level=\"L1\"}");
    assert!(l1_traffic > 0.0, "L1 counters must move:\n{}", metrics.body);

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn queue_full_sheds_with_retry_after() {
    // One worker, queue of one: at most two requests in the system.
    let (addr, handle, runner) = start(local(1, 1));

    let body = spin_body(300_000, 120_000);
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || request(&addr, "POST", "/v1/eval", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let ok = replies.iter().filter(|r| r.status == 200).count();
    let shed = replies.iter().filter(|r| r.status == 503).count();
    // The queue admits at most one job plus the one the worker already
    // popped — between one and two of six clients can win the race, and
    // everyone else is shed immediately.
    assert_eq!(ok + shed, 6, "unexpected statuses: {:?}", statuses(&replies));
    assert!((1..=2).contains(&ok), "worker+queue bound violated: {:?}", statuses(&replies));
    assert!(shed >= 4);
    for r in replies.iter().filter(|r| r.status == 503) {
        assert_eq!(r.header("Retry-After"), Some("1"), "503 without Retry-After");
    }

    // The bound was never exceeded.
    let metrics = request(&addr, "GET", "/metrics", "");
    let peak = scrape_gauge(&metrics.body, "specrecon_queue_depth_peak");
    assert!(peak <= 1.0, "queue peak {peak} exceeded depth 1");

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn deadline_expiry_returns_504_and_cancels() {
    let (addr, handle, runner) = start(local(4, 1));

    let t0 = Instant::now();
    let r = request(&addr, "POST", "/v1/eval", &spin_body(30_000_000, 150));
    assert_eq!(r.status, 504, "expected deadline expiry: {}", r.body);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "504 should arrive at the deadline, took {:?}",
        t0.elapsed()
    );

    // Cancellation must leave the engine usable: the worker aborts the
    // cancelled run promptly and serves the next request normally.
    let next = request(&addr, "POST", "/v1/eval", r#"{"workload":"microbench"}"#);
    assert_eq!(next.status, 200, "engine unusable after cancellation: {}", next.body);

    let metrics = request(&addr, "GET", "/metrics", "");
    assert!(metrics.body.contains("specrecon_requests_total{code=\"504\"} 1"));

    handle.shutdown();
    runner.join().unwrap().unwrap();
}

#[test]
fn shutdown_mid_flight_drains_accepted_work() {
    let (addr, handle, runner) = start(local(4, 1));

    // Park one slow-but-finite request (about two seconds) in the
    // worker. Its length is sized from a timed short request, so it
    // stays long next to the 200 ms head start however fast this build
    // simulates.
    let probe = 20_000;
    let t0 = Instant::now();
    let r = request(&addr, "POST", "/v1/eval", &spin_body(probe, 120_000));
    assert_eq!(r.status, 200, "{}", r.body);
    let per_iter = t0.elapsed().as_secs_f64() / probe as f64;
    let iters = ((2.0 / per_iter) as u64).clamp(probe, 100_000_000);
    let body = spin_body(iters, 120_000);
    let in_flight = std::thread::spawn(move || request(&addr, "POST", "/v1/eval", &body));
    // Give it time to be admitted and picked up.
    std::thread::sleep(Duration::from_millis(200));

    handle.shutdown();
    let report = runner.join().unwrap().unwrap();

    // The in-flight request was not silently dropped: it still got a
    // real, successful response after shutdown began.
    let reply = in_flight.join().expect("client thread");
    assert_eq!(reply.status, 200, "drained request failed: {}", reply.body);
    assert_eq!(report.drained, 1, "drain report missed the in-flight job: {report:?}");
}

/// The ISSUE acceptance scenario: `--queue-depth 4`, 32 concurrent
/// clients. The server never holds more than the bound, excess load is
/// shed with 503, and every accepted request completes (or times out by
/// its deadline) — nothing hangs.
#[test]
fn thirty_two_clients_against_queue_depth_four() {
    let (addr, handle, runner) = start(local(4, 2));

    let body = spin_body(50_000, 30_000);
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || request(&addr, "POST", "/v1/eval", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let ok = replies.iter().filter(|r| r.status == 200).count();
    let shed = replies.iter().filter(|r| r.status == 503).count();
    let timed_out = replies.iter().filter(|r| r.status == 504).count();
    assert_eq!(ok + shed + timed_out, 32, "unexpected statuses: {:?}", statuses(&replies));
    assert!(ok >= 2, "at least worker-count requests must succeed: {:?}", statuses(&replies));
    assert!(shed >= 1, "32 clients against depth 4 must shed: {:?}", statuses(&replies));

    let metrics = request(&addr, "GET", "/metrics", "");
    let peak = scrape_gauge(&metrics.body, "specrecon_queue_depth_peak");
    assert!(peak <= 4.0, "queue peak {peak} exceeded the configured depth 4");

    handle.shutdown();
    let report = runner.join().unwrap().unwrap();
    assert_eq!(report.ok as usize, ok + 1, "metrics disagree with client-observed 2xx");
}

fn statuses(replies: &[Reply]) -> Vec<u16> {
    replies.iter().map(|r| r.status).collect()
}

/// Pulls a single gauge value out of Prometheus text exposition.
fn scrape_gauge(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("gauge {name} not found in:\n{metrics}"))
}
