//! A keep-alive HTTP/1.1 client and the open-loop request generator.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive connection to the service.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        // Small latency-bound exchanges: Nagle would add delayed-ACK stalls.
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(frame.as_bytes())?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut out = vec![0u8; len];
        self.reader.read_exact(&mut out)?;
        Ok((status, out))
    }
}

/// The outcome of one open-loop request, timed from when it was due.
#[derive(Clone, Debug)]
pub struct Sent<R> {
    /// Index into the schedule.
    pub idx: usize,
    /// How late the generator sent it (send time − due time).
    pub lag_ns: u64,
    /// Completion time − due time: includes any wait a stall imposed.
    pub latency_ns: u64,
    /// What `send` answered.
    pub out: R,
}

/// Sends request `i` of a schedule at `start + due_ns[i]`, one thread
/// per client state in `clients` (each sends one request at a time, so
/// at most `clients.len()` are in flight). A request that cannot be
/// sent on time is sent late and keeps its due time: the lateness shows
/// in both its `lag_ns` and its `latency_ns`, never hidden by a shifted
/// schedule. `send` answers the request's outcome, which comes back
/// with its timing. The client states come back for their spans.
pub fn open_loop<C, R, S>(due_ns: &[u64], clients: Vec<C>, send: S) -> (Vec<Sent<R>>, Vec<C>)
where
    C: Send,
    R: Send,
    S: Fn(&mut C, usize) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let (cursor, send) = (&cursor, &send);
    let per_client: Vec<(Vec<Sent<R>>, C)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = due_ns.get(idx) else { break };
                        let due_at = start + Duration::from_nanos(due);
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent_at = Instant::now();
                        let answer = send(&mut client, idx);
                        out.push(Sent {
                            idx,
                            lag_ns: sent_at.saturating_duration_since(due_at).as_nanos() as u64,
                            latency_ns: due_at.elapsed().as_nanos() as u64,
                            out: answer,
                        });
                    }
                    (out, client)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("generator thread panicked")).collect()
    });
    let mut sent = Vec::with_capacity(due_ns.len());
    let mut states = Vec::with_capacity(per_client.len());
    for (s, c) in per_client {
        sent.extend(s);
        states.push(c);
    }
    sent.sort_by_key(|s| s.idx);
    (sent, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_late_generator_shows_in_lag_and_latency() {
        // One connection, a request due every 1 ms, each taking 3 ms:
        // the generator falls further behind with every request.
        let due: Vec<u64> = (0..40).map(|i| i * 1_000_000).collect();
        let (sent, _) = open_loop(&due, vec![()], |_, _| {
            std::thread::sleep(Duration::from_millis(3));
            200
        });
        assert_eq!(sent.len(), 40);
        let last = sent.last().expect("requests ran");
        assert!(last.lag_ns >= 60_000_000, "lag {} ns is reported", last.lag_ns);
        assert!(last.latency_ns >= last.lag_ns + 3_000_000);
        let lags: Vec<f64> = sent.iter().map(|s| s.lag_ns as f64 / 1e6).collect();
        assert!(crate::stats::quantile(&lags, 0.99) > 50.0);
    }

    #[test]
    fn an_idle_generator_sends_on_time() {
        let due: Vec<u64> = (0..20).map(|i| i * 2_000_000).collect();
        let (sent, _) = open_loop(&due, vec![(), ()], |_, _| 200);
        let worst = sent.iter().map(|s| s.lag_ns).max().expect("requests ran");
        assert!(worst < 10_000_000, "worst lag {worst} ns");
        assert!(sent.iter().all(|s| s.out == 200));
    }
}
