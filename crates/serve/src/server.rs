//! The daemon's concurrency shell: bounded job queue, worker pool, and the
//! stdin/TCP front-ends.
//!
//! Every front-end connection is a producer: it reads one line, enqueues a
//! `Job` with a reply channel, waits for the response, writes it back,
//! and only then reads the next line — so responses stay in request order
//! *per connection* while distinct connections run concurrently across the
//! worker pool. The queue is bounded; a full queue blocks producers
//! (back-pressure) rather than buffering without limit. Request lines are
//! bounded too: every front-end reads through `next_request`, which
//! answers an over-long or non-UTF-8 line with an error and keeps serving.
//!
//! Shutdown is cooperative, because the workspace forbids `unsafe` and
//! carries no signal-handling dependency: a `shutdown` request (or stdin
//! EOF when no TCP listener was configured) closes the queue, workers
//! drain what was already accepted, and `run` joins them and returns.
//! Producers that race the closing receive a `"shutting down"` error
//! response. The TCP acceptor polls with a non-blocking listener so it can
//! notice the flag within [`ACCEPT_POLL`].

use crate::engine::Engine;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often the TCP acceptor re-checks the shutdown flag.
pub const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// The longest request line the daemon accepts, in bytes before the
/// newline: 16 MiB, about 140 times the `load` of a 5.5k-statement
/// program. A longer line is answered with an error; its bytes are read
/// and dropped, never buffered.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// What a front-end read next from its client.
#[derive(Debug, PartialEq, Eq)]
enum Incoming {
    /// A non-blank request line, without its line ending.
    Line(String),
    /// A line that cannot be a request, answered with this reply.
    Reject(&'static str),
    /// End of input, or a read error: the client is gone.
    End,
}

const NOT_UTF8: &str = r#"{"ok":false,"error":"request is not valid UTF-8"}"#;
const TOO_LONG: &str = r#"{"ok":false,"error":"request line exceeds 16777216 bytes"}"#;

/// Reads the next request from `r`, skipping blank lines and stripping a
/// trailing `\n` or `\r\n`. A line longer than `cap` bytes is consumed up
/// to its newline and rejected. A last line without a newline still
/// counts.
fn next_request(r: &mut impl BufRead, cap: usize) -> Incoming {
    loop {
        let mut line = Vec::new();
        // One byte past the cap tells an over-long line from one that
        // fills it exactly.
        match r.by_ref().take(cap as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return Incoming::End,
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > cap {
            return match skip_line(r) {
                Ok(()) => Incoming::Reject(TOO_LONG),
                Err(_) => Incoming::End,
            };
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        match String::from_utf8(line) {
            Ok(s) if s.trim().is_empty() => continue,
            Ok(s) => return Incoming::Line(s),
            Err(_) => return Incoming::Reject(NOT_UTF8),
        }
    }
}

/// Consumes input up to and including the next newline (or to the end),
/// one buffer at a time.
fn skip_line(r: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        let (used, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        r.consume(used);
        if done {
            return Ok(());
        }
    }
}

/// Tunables for [`run`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests (min 1).
    pub workers: usize,
    /// Queue slots before producers block (min 1).
    pub queue: usize,
    /// TCP listen address (e.g. `127.0.0.1:7878`); `None` for stdin-only.
    pub listen: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue: 64,
            listen: None,
        }
    }
}

/// One request in flight: the raw line and where the response goes.
struct Job {
    line: String,
    reply: mpsc::Sender<String>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A minimal bounded MPMC queue (std has only unbounded mpsc).
struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks while full; `false` if the queue closed (job not accepted).
    fn push(&self, job: Job) -> bool {
        let mut g = self.inner.lock().expect("queue lock");
        while g.jobs.len() >= self.cap && !g.closed {
            g = self.not_full.wait(g).expect("queue lock");
        }
        if g.closed {
            return false;
        }
        g.jobs.push_back(job);
        drop(g);
        self.not_empty.notify_one();
        true
    }

    /// Blocks while empty; `None` once closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut g = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = g.jobs.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(job);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue lock");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Enqueues `line` and waits for its response. `None` means the daemon is
/// shutting down.
fn round_trip(queue: &JobQueue, line: String) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    if !queue.push(Job { line, reply: tx }) {
        return None;
    }
    // A worker always sends exactly one reply per popped job; a recv error
    // can only mean the pool is tearing down.
    rx.recv().ok()
}

/// Runs the daemon until shutdown: spawns the worker pool, serves stdin on
/// the calling thread, and (optionally) accepts TCP connections.
///
/// Returns once every worker has drained. With no TCP listener, stdin EOF
/// also shuts the daemon down — the pipe is its only client.
pub fn run(engine: Arc<Engine>, config: &ServerConfig) -> std::io::Result<()> {
    let queue = Arc::new(JobQueue::new(config.queue));
    std::thread::scope(|scope| -> std::io::Result<()> {
        for w in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn_scoped(scope, move || {
                    while let Some(job) = queue.pop() {
                        let resp = engine.handle_line(&job.line);
                        // A dropped receiver (client hung up mid-request)
                        // only wastes the answer; nothing to do about it.
                        let _ = job.reply.send(resp);
                        if engine.shutdown_requested() {
                            queue.close();
                        }
                    }
                })
                .expect("spawn worker");
        }

        if let Some(addr) = &config.listen {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            eprintln!("jumpslice-serve: listening on {}", listener.local_addr()?);
            let queue_for_accept = Arc::clone(&queue);
            let engine_for_accept = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("serve-accept".to_owned())
                .spawn_scoped(scope, move || {
                    accept_loop(listener, queue_for_accept, engine_for_accept, scope)
                })
                .expect("spawn acceptor");
        }

        serve_stdin(&queue);
        // Stdin is gone. Without TCP there can be no further requests;
        // with TCP, the acceptor owns the daemon's lifetime and we just
        // wait for a `shutdown` request to close the queue.
        if config.listen.is_none() {
            queue.close();
        }
        Ok(())
    })
}

/// Runs an engine against stdin/stdout without any threads — the
/// single-threaded fallback used by `--workers 0` and handy under test.
pub fn run_inline(engine: &Engine) {
    let mut input = std::io::stdin().lock();
    let mut out = std::io::stdout().lock();
    loop {
        let resp = match next_request(&mut input, MAX_REQUEST_BYTES) {
            Incoming::Line(line) => engine.handle_line(&line),
            Incoming::Reject(reply) => reply.to_owned(),
            Incoming::End => break,
        };
        if write_response(&mut out, resp).is_err() {
            break;
        }
        if engine.shutdown_requested() {
            break;
        }
    }
}

/// An in-process daemon: the same bounded queue and worker pool [`run`]
/// builds, but owned as a value with no stdin/TCP front-end. This is how
/// the chaos harness (and any embedder) drives real cross-thread
/// contention — every request crosses the queue to a genuine worker
/// thread — while keeping startup, draining, and shutdown under test
/// control.
pub struct Pool {
    engine: Arc<Engine>,
    queue: Arc<JobQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads (min 1) draining a queue of `queue_cap`
    /// slots against `engine`.
    pub fn start(engine: Arc<Engine>, workers: usize, queue_cap: usize) -> Pool {
        let queue = Arc::new(JobQueue::new(queue_cap));
        let workers = (0..workers.max(1))
            .map(|w| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("serve-pool-{w}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let resp = engine.handle_line(&job.line);
                            let _ = job.reply.send(resp);
                            if engine.shutdown_requested() {
                                queue.close();
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            engine,
            queue,
            workers,
        }
    }

    /// The shared engine the pool executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Enqueues one request line and waits for its reply. `None` means the
    /// pool is shutting down (the queue closed before the job was
    /// accepted).
    ///
    /// A fault hook may reject the enqueue — the queue-full decision point
    /// under injection — in which case the caller gets a structured
    /// `"queue full"` error (still exactly one response per request)
    /// instead of back-pressure.
    pub fn round_trip(&self, line: &str) -> Option<String> {
        if self.engine.fault_reject_enqueue() {
            return Some(
                r#"{"ok":false,"error":"queue full: request rejected under load; retry"}"#
                    .to_owned(),
            );
        }
        round_trip(&self.queue, line.to_owned())
    }

    /// Closes the queue and joins every worker. `true` when all workers
    /// drained and exited cleanly (no worker thread panicked) — the
    /// clean-shutdown invariant the chaos driver asserts after every plan.
    pub fn shutdown(mut self) -> bool {
        self.queue.close();
        let mut clean = true;
        for h in self.workers.drain(..) {
            clean &= h.join().is_ok();
        }
        clean
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The refusal a producer gets when the queue closed before its request
/// was accepted.
const SHUTTING_DOWN: &str = r#"{"ok":false,"error":"shutting down"}"#;

/// Frames one response on the wire: the body and its `\n` leave in a
/// single `write_all`. Writing them separately lets Nagle's algorithm hold
/// the newline back on a TCP socket until the client's delayed ACK fires,
/// which costs a plain client 40 ms or more per response.
fn write_response(out: &mut impl Write, mut body: String) -> std::io::Result<()> {
    body.push('\n');
    out.write_all(body.as_bytes())?;
    out.flush()
}

fn serve_stdin(queue: &JobQueue) {
    serve_connection(
        queue,
        &mut std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
    );
}

/// Answers one client's requests in order until it hangs up or the daemon
/// shuts down.
fn serve_connection(queue: &JobQueue, input: &mut impl BufRead, out: &mut impl Write) {
    loop {
        let resp = match next_request(input, MAX_REQUEST_BYTES) {
            Incoming::Line(line) => round_trip(queue, line),
            Incoming::Reject(reply) => Some(reply.to_owned()),
            Incoming::End => return,
        };
        let Some(resp) = resp else {
            let _ = write_response(out, SHUTTING_DOWN.to_owned());
            return;
        };
        if write_response(out, resp).is_err() {
            return;
        }
    }
}

fn accept_loop<'scope>(
    listener: TcpListener,
    queue: Arc<JobQueue>,
    engine: Arc<Engine>,
    scope: &'scope std::thread::Scope<'scope, '_>,
) {
    loop {
        if engine.shutdown_requested() {
            queue.close();
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Responses leave in one write each, so Nagle has nothing
                // to hold back; without NODELAY the tail segment of a
                // response larger than one segment would still wait for
                // the client's delayed ACK. A socket that refuses the
                // option only loses latency, so the error is ignored.
                let _ = stream.set_nodelay(true);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn_scoped(scope, move || {
                        let Ok(reader) = stream.try_clone() else {
                            return;
                        };
                        let mut stream = stream;
                        serve_connection(&queue, &mut BufReader::new(reader), &mut stream);
                    })
                    .expect("spawn connection");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept errors (aborted handshakes) — keep going.
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_obs::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// Boots a real TCP daemon on an ephemeral port and connects a client.
    ///
    /// Stdin in `cargo test` is the test harness's, and `run` may park on
    /// it, so the daemon thread is detached: tests end the daemon with a
    /// `shutdown` request over TCP and assert the draining through the
    /// socket rather than by joining `run`.
    fn boot_tcp_daemon() -> (Arc<Engine>, TcpStream) {
        // Bind first so the port is known before `run` spawns.
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
        let addr = probe.local_addr().expect("addr").to_string();
        drop(probe);

        let engine = Arc::new(Engine::new(usize::MAX));
        let config = ServerConfig {
            workers: 2,
            queue: 8,
            listen: Some(addr.clone()),
        };
        let engine_for_run = Arc::clone(&engine);
        std::thread::spawn(move || run(engine_for_run, &config).expect("daemon runs"));

        // The acceptor may not be listening yet; retry briefly.
        for _ in 0..100 {
            match TcpStream::connect(&addr) {
                Ok(conn) => return (engine, conn),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("daemon accepts within 2s");
    }

    /// Drives a real TCP daemon over a socket and shuts it down —
    /// exercising the queue, the pool, the acceptor, and cooperative
    /// shutdown end to end.
    #[test]
    fn tcp_round_trip_and_cooperative_shutdown() {
        let (engine, mut conn) = boot_tcp_daemon();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut send = |line: &str| -> Json {
            writeln!(conn, "{line}").expect("write");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            Json::parse(&resp).expect("valid response JSON")
        };

        let loaded = send(r#"{"op":"load","source":"read(x); write(x);"}"#);
        assert_eq!(loaded.get("ok").and_then(Json::as_bool), Some(true));
        let key = loaded
            .get("program")
            .and_then(Json::as_str)
            .expect("key")
            .to_owned();
        let sliced = send(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":2}}]}}"#
        ));
        assert_eq!(sliced.get("ok").and_then(Json::as_bool), Some(true));

        let bye = send(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
        // After shutdown the daemon must refuse (or close) promptly rather
        // than hang: either response is acceptable, but not a stall.
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        writeln!(conn, r#"{{"op":"stats"}}"#).ok();
        let mut tail = String::new();
        let _ = reader.read_line(&mut tail); // "" (closed) or a shutting-down error
        if !tail.trim().is_empty() {
            let j = Json::parse(&tail).expect("tail is JSON");
            // Drained requests may still be answered; refusals say so.
            assert!(j.get("ok").is_some());
        }
        drop(conn);
        assert!(engine.shutdown_requested());
    }

    /// A plain client — each request in one write, delayed ACKs left on
    /// (no `TCP_QUICKACK`) — must never wait for its own ACK timer. Linux's
    /// shortest delayed-ACK timeout is 40 ms, so a median round trip under
    /// 20 ms shows no response is held back by Nagle's algorithm.
    #[cfg(target_os = "linux")]
    #[test]
    fn plain_client_round_trips_do_not_wait_for_delayed_ack() {
        let (_engine, mut conn) = boot_tcp_daemon();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut round_trips = Vec::new();
        for _ in 0..25 {
            let start = std::time::Instant::now();
            conn.write_all(b"{\"op\":\"stats\"}\n").expect("write");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            round_trips.push(start.elapsed());
            let j = Json::parse(&resp).expect("valid response JSON");
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "median stats round trip {median:?}: responses wait for the client's delayed ACK"
        );
    }

    /// Every request the reader yields from `input` until the end.
    fn requests(input: &[u8], cap: usize) -> Vec<Incoming> {
        let mut r = input;
        std::iter::from_fn(|| match next_request(&mut r, cap) {
            Incoming::End => None,
            got => Some(got),
        })
        .collect()
    }

    #[test]
    fn reader_rejects_bad_lines_and_keeps_reading() {
        let line = |s: &str| Incoming::Line(s.to_owned());
        // Non-UTF-8 is one error reply; blank lines are skipped and a
        // trailing `\r\n` is stripped.
        assert_eq!(
            requests(b"\xff\n\n  \r\n{\"op\":1}\r\n", 16),
            vec![Incoming::Reject(NOT_UTF8), line("{\"op\":1}")]
        );
        // Exactly the cap is a request; one byte more is rejected, and the
        // line after it is read normally.
        assert_eq!(requests(b"12345678\n", 8), vec![line("12345678")]);
        assert_eq!(
            requests(b"123456789\nabc\n", 8),
            vec![Incoming::Reject(TOO_LONG), line("abc")]
        );
        // An over-cap line much longer than one read is dropped in pieces.
        let mut long = vec![b'x'; 100_000];
        long.extend_from_slice(b"\nabc\n");
        assert_eq!(
            requests(&long, 8),
            vec![Incoming::Reject(TOO_LONG), line("abc")]
        );
        // A last line without a newline still counts.
        assert_eq!(requests(b"a\nlast", 8), vec![line("a"), line("last")]);
        assert!(TOO_LONG.contains(&MAX_REQUEST_BYTES.to_string()));
    }

    /// Sends raw bytes, then reads one reply line per expected `ok` value.
    fn expect_replies(conn: &mut TcpStream, reader: &mut impl BufRead, oks: &[bool]) {
        for &ok in oks {
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            let j = Json::parse(&resp).expect("valid response JSON");
            assert_eq!(j.get("ok").and_then(Json::as_bool), Some(ok), "{resp}");
        }
        conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
    }

    #[test]
    fn tcp_non_utf8_line_gets_an_error_and_the_connection_stays_open() {
        let (_engine, mut conn) = boot_tcp_daemon();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        conn.write_all(b"\xff\n{\"op\":\"stats\"}\n")
            .expect("write");
        expect_replies(&mut conn, &mut reader, &[false, true]);
    }

    #[test]
    fn tcp_over_cap_line_gets_one_error_and_the_next_request_is_served() {
        let (_engine, mut conn) = boot_tcp_daemon();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let chunk = vec![b'x'; 1 << 16];
        let mut sent = 0;
        while sent <= MAX_REQUEST_BYTES + (1 << 20) {
            conn.write_all(&chunk).expect("write");
            sent += chunk.len();
        }
        conn.write_all(b"\n{\"op\":\"stats\"}\n").expect("write");
        expect_replies(&mut conn, &mut reader, &[false, true]);
    }

    #[test]
    fn queue_refuses_after_close() {
        let q = JobQueue::new(2);
        q.close();
        let (tx, _rx) = mpsc::channel();
        assert!(!q.push(Job {
            line: String::new(),
            reply: tx
        }));
        assert!(q.pop().is_none());
    }
}
