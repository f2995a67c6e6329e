//! End-to-end tests of the real `specrecon serve` binary: the ISSUE
//! acceptance scenario (32 concurrent clients against `--queue-depth 4`
//! — bound never exceeded, excess shed with 503, accepted work completes
//! or times out by its deadline) and a SIGTERM delivered mid-flight
//! (process drains and exits 0, nothing silently dropped).

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Boots `specrecon serve` on a free port and parses the bound address
/// from its `listening on ADDR` banner.
fn spawn_server(extra: &[&str]) -> (Child, BufReader<std::process::ChildStdout>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_specrecon"))
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn specrecon serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .expect("parse bound address");
    (child, stdout, addr)
}

/// Sends SIGTERM (std's `Child::kill` is SIGKILL, which would defeat the
/// graceful-drain assertion).
fn sigterm(child: &Child) {
    let status =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

/// Waits for exit with a timeout so a drain bug fails the test instead
/// of hanging it.
fn wait_with_timeout(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        assert!(t0.elapsed() < limit, "server did not exit within {limit:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One full HTTP exchange on a fresh connection; returns (status, body).
fn post_eval(addr: &SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let head =
        format!("POST /v1/eval HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("write");
    stream.write_all(body.as_bytes()).expect("write");
    read_reply(&mut stream)
}

fn get(addr: &SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let head = format!("GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write");
    read_reply(&mut stream)
}

fn read_reply(stream: &mut TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("header");
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8_lossy(&body).into_owned())
}

/// An inline single-warp kernel spinning `iters` loop iterations —
/// roughly 7µs per iteration in debug builds.
fn spin_body(iters: u64, deadline_ms: u64) -> String {
    let kernel = format!(
        "kernel @spin(params=0, regs=4, barriers=0, entry=bb0) {{\n\
         bb0:\n  %r0 = mov 0\n  %r1 = mov {iters}\n  jmp bb1\n\
         bb1:\n  work 20\n  %r2 = mov 1\n  %r0 = add %r0, %r2\n  %r3 = lt %r0, %r1\n  br %r3, bb1, bb2\n\
         bb2:\n  exit\n}}\n"
    );
    format!(r#"{{"kernel":{kernel:?},"warps":1,"deadline_ms":{deadline_ms}}}"#)
}

#[test]
fn thirty_two_clients_queue_depth_four_then_sigterm() {
    let (mut child, mut stdout, addr) = spawn_server(&["--queue-depth", "4", "--workers", "2"]);

    // 32 concurrent clients, each one slow-ish request. With two workers
    // and four queue slots at most six are in the system at once.
    let body = spin_body(50_000, 30_000);
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..32)
            .map(|_| {
                let body = body.clone();
                s.spawn(move || post_eval(&addr, &body).0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    let timed_out = statuses.iter().filter(|&&s| s == 504).count();
    assert_eq!(ok + shed + timed_out, 32, "every client must get 200/503/504, got {statuses:?}");
    assert!(ok >= 2, "accepted requests must complete: {statuses:?}");
    assert!(shed >= 1, "overload must shed with 503: {statuses:?}");

    // The queue bound was never exceeded (peak gauge from /metrics).
    let (ms, metrics) = get(&addr, "/metrics");
    assert_eq!(ms, 200);
    let peak: f64 = metrics
        .lines()
        .find(|l| l.starts_with("specrecon_queue_depth_peak"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("peak gauge present");
    assert!(peak <= 4.0, "queue peak {peak} exceeded --queue-depth 4");

    // Graceful SIGTERM: exit code 0 and a drain banner.
    sigterm(&child);
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "serve exited {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain output");
    assert!(rest.contains("shutdown: drained"), "missing drain banner in {rest:?}");
}

#[test]
fn recon_model_knob_round_trips_and_reaches_metrics() {
    let (mut child, _stdout, addr) = spawn_server(&["--workers", "1"]);

    // The knob round-trips: the canonical spec is echoed and the
    // hardware model's counters ride along in the response body.
    let (code, reply) = post_eval(
        &addr,
        r#"{"workload":"microbench","mode":"baseline","warps":1,"recon_model":"ipdom-stack"}"#,
    );
    assert_eq!(code, 200, "{reply}");
    assert!(reply.contains(r#""recon_model":"ipdom-stack""#), "{reply}");
    assert!(reply.contains(r#""stack_pushes":"#), "{reply}");

    let (code, reply) = post_eval(
        &addr,
        r#"{"workload":"microbench","mode":"baseline","warps":1,
            "recon_model":"warp-split:window=4,compact"}"#,
    );
    assert_eq!(code, 200, "{reply}");
    assert!(reply.contains(r#""recon_model":"warp-split:window=4,compact""#), "{reply}");
    assert!(reply.contains(r#""splits":"#), "{reply}");

    // Unknown model names answer 400 with the parser's reason.
    let (code, reply) = post_eval(&addr, r#"{"workload":"microbench","recon_model":"volta"}"#);
    assert_eq!(code, 400, "{reply}");
    assert!(reply.contains("recon_model"), "{reply}");

    // The counters land in the Prometheus exposition.
    let (ms, metrics) = get(&addr, "/metrics");
    assert_eq!(ms, 200);
    for series in ["specrecon_recon_stack_pushes_total", "specrecon_recon_splits_total"] {
        let value: f64 = metrics
            .lines()
            .find(|l| l.starts_with(series))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{series} missing from /metrics"));
        assert!(value > 0.0, "{series} stayed zero after hardware-model runs");
    }

    sigterm(&child);
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "serve exited {status:?}");
}

#[test]
fn sigterm_mid_flight_drains_without_dropping() {
    let (mut child, mut stdout, addr) = spawn_server(&["--workers", "1"]);

    // Park a long request (about two seconds of simulation) in the
    // worker, then deliver SIGTERM while it is running. Its length is
    // sized from a timed short request, so it stays long next to the
    // 300 ms head start however fast this build simulates.
    let probe = 20_000;
    let start = Instant::now();
    let (code, reply) = post_eval(&addr, &spin_body(probe, 120_000));
    assert_eq!(code, 200, "{reply}");
    let per_iter = start.elapsed().as_secs_f64() / probe as f64;
    let iters = ((2.0 / per_iter) as u64).clamp(probe, 100_000_000);
    let body = spin_body(iters, 120_000);
    let in_flight = std::thread::spawn(move || post_eval(&addr, &body));
    std::thread::sleep(Duration::from_millis(300));

    sigterm(&child);
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    assert!(status.success(), "serve exited {status:?}");

    // The accepted request was finished during the drain, not dropped.
    let (code, reply) = in_flight.join().expect("client");
    assert_eq!(code, 200, "in-flight request lost during drain: {reply}");

    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain output");
    assert!(rest.contains("drained 1 in-flight request(s)"), "drain banner disagrees: {rest:?}");
}
