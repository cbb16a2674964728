//! The daemon's concurrency shell: one admission gate and the stdin/TCP
//! front-ends.
//!
//! Every request runs on its client's own thread: stdin's, each TCP
//! connection's, or the caller of [`Pool::round_trip`]. A client reads a
//! line, takes it down the one request path (`serve_request`), writes the
//! reply and only then reads the next line, so replies stay in order per
//! client while clients run concurrently. The gate bounds how many
//! requests run at once (`--workers` slots); a request holds a slot only
//! while [`Engine::handle_line`] runs, never while its reply is written.
//! Every front-end reads through `next_request`, which answers an
//! over-long or non-UTF-8 line with an error and keeps serving.
//!
//! Shutdown is a property of the gate (the workspace forbids `unsafe`, so
//! there is no signal handling). A `shutdown` request, or stdin EOF with
//! no TCP listener, closes it. A closed gate admits nothing: a reply
//! written after `shutdown` (the `shutdown` reply included) is its
//! client's last, and a request that finds the gate closed gets a
//! `"shutting down"` refusal. Once every admitted request is answered,
//! [`run`] returns, even while clients are still connected; the front-end
//! threads are detached.

use crate::engine::Engine;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The acceptor's pause after a failed `accept` or thread spawn, so a
/// failure that repeats at once (out of file descriptors) does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

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
    /// Requests that run at once (min 1; 0 runs as 1).
    pub workers: usize,
    /// TCP listen address (e.g. `127.0.0.1:7878`); `None` for stdin-only.
    pub listen: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            listen: None,
        }
    }
}

/// The admission gate every client shares: at most `slots` requests run at
/// once, and a closed gate admits nothing.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    slots: usize,
}

#[derive(Default)]
struct GateState {
    /// Requests holding a slot.
    running: usize,
    /// Requests admitted whose reply is not yet delivered.
    in_flight: usize,
    /// Requests that panicked inside their slot.
    escaped: usize,
    closed: bool,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            changed: Condvar::new(),
            slots: slots.max(1),
        }
    }

    /// Every update writes one counter or flag, so the state stays valid
    /// even if a panic poisoned the lock; `Ticket::drop` must not panic.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_while(&self, cond: impl FnMut(&mut GateState) -> bool) -> MutexGuard<'_, GateState> {
        let s = self.changed.wait_while(self.lock(), cond);
        s.unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one request, or `None` once closed. The request is in
    /// flight until the ticket drops.
    fn admit(&self) -> Option<Ticket<'_>> {
        let mut s = self.lock();
        if s.closed {
            return None;
        }
        s.in_flight += 1;
        Some(Ticket(self))
    }

    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Blocks until the gate is closed and nothing is in flight. `true`
    /// when no request escaped its slot by panicking.
    fn wait_drained(&self) -> bool {
        self.wait_while(|s| !s.closed || s.in_flight > 0).escaped == 0
    }
}

/// One admitted request; dropping it, on any path, ends its flight.
struct Ticket<'g>(&'g Gate);

impl Ticket<'_> {
    /// Runs `f` in a slot, waiting for a free one. `None` when `f`
    /// panicked: the slot is freed either way and the escape counted.
    fn run<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let gate = self.0;
        gate.wait_while(|s| s.running >= gate.slots).running += 1;
        let out = catch_unwind(AssertUnwindSafe(f));
        let mut s = gate.lock();
        // Requests wait for a slot only while every slot is taken, so an
        // uncontended request makes no wake-up call.
        if s.running == gate.slots {
            gate.changed.notify_all();
        }
        s.running -= 1;
        s.escaped += usize::from(out.is_err());
        out.ok()
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.in_flight -= 1;
        // Only `wait_drained` waits on this count, for a closed gate.
        if s.closed && s.in_flight == 0 {
            self.0.changed.notify_all();
        }
    }
}

const QUEUE_FULL: &str = r#"{"ok":false,"error":"queue full: request rejected under load; retry"}"#;
const ESCAPED: &str = r#"{"ok":false,"error":"internal error: request panicked"}"#;
const SHUTTING_DOWN: &str = r#"{"ok":false,"error":"shutting down"}"#;

/// The one path from a request line to its reply, taken on the client's
/// own thread: admit, run [`Engine::handle_line`] in a slot, close the
/// gate after a `shutdown`, and `deliver` the reply outside the slot but
/// still in flight. `None` when the gate is closed.
fn serve_request<R>(
    engine: &Engine,
    gate: &Gate,
    line: &str,
    deliver: impl FnOnce(String) -> R,
) -> Option<R> {
    // The chaos admission fault, asked once per request before the gate,
    // so a recorded plan's `enqueue#N` still names the Nth request.
    if engine.fault_reject_enqueue() {
        return Some(deliver(QUEUE_FULL.to_owned()));
    }
    let ticket = gate.admit()?;
    let resp = ticket
        .run(|| engine.handle_line(line))
        .unwrap_or_else(|| ESCAPED.to_owned());
    if engine.shutdown_requested() {
        gate.close();
    }
    Some(deliver(resp))
}

/// Runs the daemon until shutdown: serves stdin, and TCP when
/// `config.listen` is set, each client on a thread of its own. Returns
/// once the gate is closed and every admitted request is answered. With
/// no TCP listener, stdin EOF closes the gate: the pipe is the only client.
pub fn run(engine: Arc<Engine>, config: &ServerConfig) -> std::io::Result<()> {
    let gate = Arc::new(Gate::new(config.workers));
    if let Some(addr) = &config.listen {
        let listener = TcpListener::bind(addr)?;
        eprintln!("jumpslice-serve: listening on {}", listener.local_addr()?);
        let (engine, gate) = (Arc::clone(&engine), Arc::clone(&gate));
        std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &engine, &gate))?;
    }
    let stdin_only = config.listen.is_none();
    let stdin_gate = Arc::clone(&gate);
    std::thread::Builder::new()
        .name("serve-stdin".to_owned())
        .spawn(move || {
            // Stdout is locked per write, not while waiting for input.
            let mut out = std::io::stdout();
            serve_connection(&engine, &stdin_gate, &mut std::io::stdin().lock(), &mut out);
            if stdin_only {
                stdin_gate.close();
            }
        })?;
    gate.wait_drained();
    Ok(())
}

/// An in-process daemon without front-ends: each caller of
/// [`Pool::round_trip`] is a client, its request run on its own thread
/// through the gate and request path [`run`] uses. The chaos harness
/// drives real cross-thread contention through it.
pub struct Pool {
    engine: Arc<Engine>,
    gate: Gate,
}

impl Pool {
    /// A pool that runs at most `workers` requests at once (min 1).
    /// Requests wait for a slot, not in a queue, so `_queue_cap` is
    /// ignored.
    pub fn start(engine: Arc<Engine>, workers: usize, _queue_cap: usize) -> Pool {
        Pool {
            engine,
            gate: Gate::new(workers),
        }
    }

    /// The shared engine the pool executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Runs one request line on the calling thread and returns its reply;
    /// `None` once the pool is shut down. A fault hook may refuse the
    /// admission: the reply is then a structured `"queue full"` error.
    pub fn round_trip(&self, line: &str) -> Option<String> {
        serve_request(&self.engine, &self.gate, line, |resp| resp)
    }

    /// Closes the pool and waits for every admitted request. `true` when
    /// no request panicked past [`Engine::handle_line`]'s own containment.
    pub fn shutdown(self) -> bool {
        self.gate.close();
        self.gate.wait_drained()
    }
}

/// Frames one response on the wire: the body and its `\n` leave in a
/// single `write_all`. Writing them separately lets Nagle's algorithm hold
/// the newline back on a TCP socket until the client's delayed ACK fires,
/// which costs a plain client 40 ms or more per response.
fn write_response(out: &mut impl Write, mut body: String) -> std::io::Result<()> {
    body.push('\n');
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// Answers one client's requests in order until it hangs up or the daemon
/// shuts down (see the module docs).
fn serve_connection(engine: &Engine, gate: &Gate, input: &mut impl BufRead, out: &mut impl Write) {
    loop {
        let written = match next_request(input, MAX_REQUEST_BYTES) {
            Incoming::Line(line) => {
                serve_request(engine, gate, &line, |resp| write_response(out, resp))
            }
            Incoming::Reject(reply) => Some(write_response(out, reply.to_owned())),
            Incoming::End => return,
        };
        match written {
            Some(Ok(())) if !engine.shutdown_requested() => {}
            Some(_) => return,
            None => {
                let _ = write_response(out, SHUTTING_DOWN.to_owned());
                return;
            }
        }
    }
}

/// Accepts TCP clients, one thread each, until the process ends.
fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, gate: &Arc<Gate>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        // Responses leave in one write each, so Nagle has nothing to hold
        // back; without NODELAY the tail segment of a response larger than
        // one segment would still wait for the client's delayed ACK. A
        // socket that refuses the option only loses latency, so the error
        // is ignored.
        let _ = stream.set_nodelay(true);
        let (engine, gate) = (Arc::clone(engine), Arc::clone(gate));
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_owned())
            .spawn(move || {
                let Ok(reader) = stream.try_clone() else {
                    return;
                };
                let mut stream = stream;
                serve_connection(&engine, &gate, &mut BufReader::new(reader), &mut stream);
            });
        if spawned.is_err() {
            std::thread::sleep(ACCEPT_BACKOFF); // that client sees EOF
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_obs::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::Barrier;
    use std::thread::JoinHandle;

    /// Boots a real TCP daemon, `run` on a thread of its own, and connects
    /// a client. The stdin front-end reads the test process's stdin, which
    /// may stay open: `run` returns without it.
    fn boot_tcp_daemon() -> (Arc<Engine>, TcpStream, JoinHandle<std::io::Result<()>>) {
        // Bind first so the port is known before `run` spawns.
        let probe = TcpListener::bind("127.0.0.1:0").expect("bind probe");
        let addr = probe.local_addr().expect("addr").to_string();
        drop(probe);

        let engine = Arc::new(Engine::new(usize::MAX));
        let config = ServerConfig {
            workers: 2,
            listen: Some(addr.clone()),
        };
        let engine_for_run = Arc::clone(&engine);
        let daemon = std::thread::spawn(move || run(engine_for_run, &config));

        // The acceptor may not be listening yet; retry briefly.
        for _ in 0..100 {
            match TcpStream::connect(&addr) {
                Ok(conn) => return (engine, conn, daemon),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("daemon accepts within 2s");
    }

    /// Drives a real TCP daemon over a socket and shuts it down —
    /// exercising the gate, the acceptor, and cooperative shutdown end to
    /// end.
    #[test]
    fn tcp_round_trip_and_cooperative_shutdown() {
        let (engine, mut conn, _) = boot_tcp_daemon();
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
        let (_engine, mut conn, _) = boot_tcp_daemon();
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
        let (_engine, mut conn, _) = boot_tcp_daemon();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        conn.write_all(b"\xff\n{\"op\":\"stats\"}\n")
            .expect("write");
        expect_replies(&mut conn, &mut reader, &[false, true]);
    }

    #[test]
    fn tcp_over_cap_line_gets_one_error_and_the_next_request_is_served() {
        let (_engine, mut conn, _) = boot_tcp_daemon();
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

    /// `run` returns once the gate is closed and drained, although another
    /// client is still connected and idle.
    #[test]
    fn run_returns_after_tcp_shutdown_while_another_client_idles() {
        let (_engine, idle, daemon) = boot_tcp_daemon();
        let mut conn = TcpStream::connect(idle.peer_addr().expect("addr")).expect("connect");
        conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
        let mut bye = String::new();
        BufReader::new(&conn).read_line(&mut bye).expect("read");
        assert!(bye.contains(r#""shutting_down":true"#), "{bye}");
        let ran = within_5s(move || daemon.join()).expect("run did not panic");
        ran.expect("run is Ok");
    }

    /// Runs `f` on a thread of its own and fails the test if `f` takes over
    /// 5 s, so a gate that never wakes a waiter cannot hang the suite.
    fn within_5s<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let h = std::thread::spawn(f);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !h.is_finished() {
            assert!(std::time::Instant::now() < deadline, "blocked for 5 s");
            std::thread::sleep(Duration::from_millis(5));
        }
        h.join().expect("no panic")
    }

    #[test]
    fn one_slot_runs_one_request_at_a_time() {
        let gate = Arc::new(Gate::new(1));
        let hold = Arc::new(Barrier::new(2));
        let first = {
            let (gate, hold) = (gate.clone(), hold.clone());
            std::thread::spawn(move || {
                gate.admit().expect("open").run(|| {
                    hold.wait();
                    hold.wait();
                })
            })
        };
        hold.wait(); // the first request holds the only slot
        let second_ran = Arc::new(AtomicBool::new(false));
        let second = {
            let (gate, ran) = (gate.clone(), second_ran.clone());
            std::thread::spawn(move || gate.admit().expect("open").run(|| ran.store(true, SeqCst)))
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(!second_ran.load(SeqCst), "ran beside the first request");
        hold.wait(); // the first request returns
        within_5s(move || (first.join().unwrap(), second.join().unwrap()));
        assert!(second_ran.load(SeqCst));
    }

    #[test]
    fn closed_gate_refuses_and_drains_to_zero() {
        let gate = Gate::new(2);
        let ticket = gate.admit().expect("open");
        gate.close();
        assert!(gate.admit().is_none(), "a closed gate admits nothing");
        assert_eq!(ticket.run(|| 7), Some(7), "an admitted request still runs");
        assert_eq!(gate.lock().in_flight, 1);
        drop(ticket);
        assert_eq!(gate.lock().in_flight, 0);
        assert!(gate.wait_drained());
    }

    #[test]
    fn a_panic_in_a_slot_frees_it_and_is_counted() {
        let gate = Arc::new(Gate::new(1));
        let ticket = gate.admit().expect("open");
        assert_eq!(ticket.run(|| -> u8 { panic!("request escaped") }), None);
        drop(ticket);
        let g = gate.clone();
        let next = within_5s(move || g.admit().expect("open").run(|| 7));
        assert_eq!(next, Some(7), "the slot was freed");
        gate.close();
        let s = gate.lock();
        assert_eq!((s.escaped, s.in_flight), (1, 0));
        drop(s);
        assert!(!gate.wait_drained(), "the escape is reported");
    }
}
