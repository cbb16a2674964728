//! The load generator: starts the daemon, connects two clients, and sends a
//! [`Plan`] through them in a closed loop (each client sends its next
//! request only after the previous response arrived, as IDE and CI callers
//! do).

use crate::stats::MIN_FOR_MEDIAN;
use crate::workload::{Class, Op, Phase, Plan, Shape};
use jumpslice_obs::Json;
use jumpslice_serve::{Engine, Pool};
use jumpslice_store::SnapshotStore;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, one thread each.
pub const CLIENTS: usize = 2;
/// The daemon's `--workers`.
pub const WORKERS: usize = 2;
/// The daemon's default `--cache-bytes` and `--store-bytes`, for the
/// engines this process builds itself.
pub const CACHE_BYTES: usize = 256 << 20;
pub const STORE_BYTES: u64 = 1 << 30;
/// A response slower than this counts as missing.
const READ_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the daemon may take to announce its port, and to exit after
/// `shutdown`.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Where requests go.
pub enum Backend {
    /// The real `jumpslice-serve` binary, over TCP.
    Binary(PathBuf),
    /// The daemon's engine and worker pool in this process (tests).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

impl Backend {
    pub fn start(&self, store_dir: Option<&Path>) -> Result<Server, String> {
        match self {
            Backend::Binary(bin) => Daemon::spawn(bin, store_dir).map(Server::Process),
            Backend::InProcess => {
                let mut engine = Engine::new(CACHE_BYTES);
                if let Some(dir) = store_dir {
                    let store = SnapshotStore::open(dir, STORE_BYTES)
                        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
                    engine = engine.with_store(store);
                }
                Ok(Server::Pool(Arc::new(Pool::start(
                    Arc::new(engine),
                    WORKERS,
                    64,
                ))))
            }
        }
    }
}

/// A running daemon process. Dropping it kills the process if it is still
/// running and always waits for it.
pub struct Daemon {
    child: Child,
    addr: String,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(bin: &Path, store_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--workers", &WORKERS.to_string()]);
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        // The daemon logs its bound port to stderr; a thread keeps draining
        // the pipe afterwards so the daemon never blocks on a full buffer.
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if let Some(addr) = line.trim().strip_prefix("jumpslice-serve: listening on ") {
                    let _ = tx.send(addr.to_owned());
                    break;
                }
                line.clear();
            }
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        // Built before the port is known, so that dropping it on the error
        // path below still reaps the child.
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        daemon.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| format!("{} never announced a listening port", bin.display()))?;
        Ok(daemon)
    }

    /// `VmHWM`: the process's peak resident set, in MiB.
    fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Waits for the process to exit on its own; `false` on timeout.
    fn wait_exit(&mut self) -> bool {
        let give_up = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

pub enum Server {
    Process(Daemon),
    Pool(Arc<Pool>),
}

/// When a client acknowledges the bytes of a response.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Acks {
    /// Right away (`TCP_QUICKACK` before every read), as the measured
    /// clients do. The daemon writes each response and its newline in two
    /// `write` calls on a socket without `TCP_NODELAY`, so Nagle holds the
    /// newline until the client acknowledges the response body; a client
    /// that delays that ACK waits 40-200 ms per response, a delay set by
    /// the kernel's adaptive ACK timer rather than by the daemon's work.
    Immediate,
    /// When the kernel's delayed-ACK timer fires: a plain client, as every
    /// real caller is. The transport probe uses it, so that the stall is a
    /// gated metric (`plain_client_stats_p50_ms`) of every run.
    Delayed,
}

impl Server {
    pub fn connect(&self, acks: Acks) -> Result<Conn, String> {
        match self {
            Server::Process(d) => {
                let stream = TcpStream::connect(&d.addr)
                    .map_err(|e| format!("cannot connect to {}: {e}", d.addr))?;
                stream
                    .set_nodelay(true)
                    .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
                    .map_err(|e| format!("cannot configure the socket: {e}"))?;
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("cannot clone the socket: {e}"))?,
                );
                Ok(Conn::Tcp {
                    reader,
                    writer: stream,
                    acks,
                })
            }
            Server::Pool(p) => Ok(Conn::Pool(Arc::clone(p))),
        }
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        match self {
            Server::Process(d) => d.peak_rss_mib(),
            Server::Pool(_) => None,
        }
    }

    /// Sends `shutdown`, closes every connection and waits for the daemon
    /// to drain and exit. `false` if it had to be killed.
    pub fn stop(self, mut conns: Vec<Conn>) -> bool {
        let acked = conns
            .first_mut()
            .and_then(|c| c.round_trip(r#"{"op":"shutdown"}"#))
            .is_some();
        drop(conns);
        match self {
            Server::Process(mut d) => acked && d.wait_exit(),
            // The pool joins its workers when the last handle drops.
            Server::Pool(_) => acked,
        }
    }
}

/// One client connection.
pub enum Conn {
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        acks: Acks,
    },
    Pool(Arc<Pool>),
}

impl Conn {
    /// Sends one request line and waits for its response; `None` when the
    /// connection is gone or the response timed out.
    pub fn round_trip(&mut self, line: &str) -> Option<String> {
        match self {
            Conn::Tcp {
                reader,
                writer,
                acks,
            } => {
                let mut msg = String::with_capacity(line.len() + 1);
                msg.push_str(line);
                msg.push('\n');
                writer.write_all(msg.as_bytes()).ok()?;
                // Sending re-arms delayed ACKs, so quick-ack mode is set
                // again for every response.
                if *acks == Acks::Immediate {
                    ack_immediately(writer);
                }
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(n) if n > 0 && resp.ends_with('\n') => {
                        resp.pop();
                        Some(resp)
                    }
                    _ => None,
                }
            }
            Conn::Pool(p) => p.round_trip(line),
        }
    }
}

/// Puts the socket in quick-ack mode: the next segments it receives are
/// acknowledged at once instead of after the delayed-ACK timeout.
#[cfg(target_os = "linux")]
fn ack_immediately(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the call;
    // `value` points to a live `i32` and `len` is its size. A failure only
    // leaves the socket in its default ACK mode, so the result is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&one as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn ack_immediately(_: &TcpStream) {}

/// One executed op: how long it took and what came back. A response is
/// `None` when it never arrived; the op stops at the first missing one.
pub struct Record {
    pub phase: Phase,
    pub round: usize,
    pub conn: usize,
    pub op: usize,
    pub ms: f64,
    pub responses: Vec<Option<String>>,
}

pub struct RoundStats {
    /// Daemon spawn to the start of the measured phase (store fill,
    /// preloads and warm-ups included).
    pub setup_s: f64,
    /// Start of the measured phase to the last measured response.
    pub window_s: f64,
    pub measured_ops: usize,
    pub rss_mib: Option<f64>,
    /// The daemon's `stats` response at the end of the round.
    pub stats: Option<Json>,
    pub clean_exit: bool,
}

pub struct Outcome {
    pub records: Vec<Record>,
    pub rounds: Vec<RoundStats>,
    /// Median `stats` round trip of a plain client and of a measured one,
    /// probed at the end of the last round (daemon process only).
    pub transport_ms: Option<(f64, f64)>,
}

pub struct DriveConfig {
    pub rounds: usize,
    /// Measured time per round.
    pub window: Duration,
    /// Scratch space for snapshot stores.
    pub work_dir: PathBuf,
}

/// Runs `cfg.rounds` rounds, each on a fresh daemon: (store fill,) setup,
/// then the measured stream until the round's window closes. The last
/// round keeps going past its window until every shape of the workload's
/// primary class has enough samples for a median.
pub fn drive(plan: &Plan, backend: &Backend, cfg: &DriveConfig) -> Result<Outcome, String> {
    let counts: [AtomicUsize; 4] = Default::default();
    let mut outcome = Outcome {
        records: Vec::new(),
        rounds: Vec::new(),
        transport_ms: None,
    };
    for round in 0..cfg.rounds {
        let stats = run_round(plan, backend, cfg, round, &counts, &mut outcome)?;
        outcome.rounds.push(stats);
    }
    Ok(outcome)
}

fn run_round(
    plan: &Plan,
    backend: &Backend,
    cfg: &DriveConfig,
    round: usize,
    counts: &[AtomicUsize; 4],
    outcome: &mut Outcome,
) -> Result<RoundStats, String> {
    let store_dir = plan
        .workload
        .uses_store()
        .then(|| cfg.work_dir.join(format!("store-{round}")));
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let start = Instant::now();
    if plan.fill.iter().any(|ops| !ops.is_empty()) {
        let filler = backend.start(store_dir.as_deref())?;
        let mut conns = connect(&filler)?;
        outcome
            .records
            .extend(run_phase(&mut conns, plan, Phase::Fill, round, None));
        filler.stop(conns);
    }
    let server = backend.start(store_dir.as_deref())?;
    let mut conns = connect(&server)?;
    outcome
        .records
        .extend(run_phase(&mut conns, plan, Phase::Setup, round, None));

    let window_start = Instant::now();
    let stop = Stop {
        deadline: window_start + cfg.window,
        min: if round + 1 == cfg.rounds {
            MIN_FOR_MEDIAN
        } else {
            0
        },
        counts,
        primary: plan.workload.primary(),
    };
    let measured = run_phase(&mut conns, plan, Phase::Measured, round, Some(&stop));
    let end = Instant::now();
    if round + 1 == cfg.rounds {
        outcome.transport_ms = probe_transport(&server);
    }
    let stats = conns[0]
        .round_trip(r#"{"op":"stats"}"#)
        .and_then(|r| Json::parse(&r).ok());
    let rss_mib = server.peak_rss_mib();
    let clean_exit = server.stop(conns);
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let stats = RoundStats {
        setup_s: (window_start - start).as_secs_f64(),
        window_s: (end - window_start).as_secs_f64(),
        measured_ops: measured.len(),
        rss_mib,
        stats,
        clean_exit,
    };
    outcome.records.extend(measured);
    Ok(stats)
}

fn connect(server: &Server) -> Result<Vec<Conn>, String> {
    (0..CLIENTS)
        .map(|_| server.connect(Acks::Immediate))
        .collect()
}

/// How long each client of the transport probe sends `stats` requests.
/// A fixed time rather than a fixed count, so that once the stall is gone
/// the median rests on thousands of round trips instead of a handful.
const PROBE_TIME: Duration = Duration::from_millis(500);

/// Median `stats` round trip from a plain client and from one that
/// acknowledges immediately: each sends for [`PROBE_TIME`], and at least
/// as many requests as a median needs.
fn probe_transport(server: &Server) -> Option<(f64, f64)> {
    let Server::Process(_) = server else {
        return None;
    };
    let p50 = |acks| -> Option<f64> {
        let mut conn = server.connect(acks).ok()?;
        let mut ms = Vec::new();
        let begin = Instant::now();
        while ms.len() < MIN_FOR_MEDIAN || begin.elapsed() < PROBE_TIME {
            let start = Instant::now();
            conn.round_trip(r#"{"op":"stats"}"#)?;
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        crate::stats::percentile(&crate::stats::sorted(&ms), 50)
    };
    Some((p50(Acks::Delayed)?, p50(Acks::Immediate)?))
}

/// When a connection stops sending measured ops.
struct Stop<'a> {
    deadline: Instant,
    /// Samples each served shape of the primary class must reach before a
    /// connection may stop (0: stop at the deadline).
    min: usize,
    /// Completed primary-class ops per shape, over all rounds.
    counts: &'a [AtomicUsize; 4],
    primary: Class,
}

impl Stop<'_> {
    fn done(&self, serves: &[Shape]) -> bool {
        Instant::now() >= self.deadline
            && serves
                .iter()
                .all(|s| self.counts[s.index()].load(Ordering::SeqCst) >= self.min)
    }
}

/// Runs one phase's ops on every connection at once, one thread each.
fn run_phase(
    conns: &mut [Conn],
    plan: &Plan,
    phase: Phase,
    round: usize,
    stop: Option<&Stop>,
) -> Vec<Record> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let ops = plan.ops(phase, c);
                s.spawn(move || drive_conn(conn, ops, phase, round, c, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

fn drive_conn(
    conn: &mut Conn,
    ops: &[Op],
    phase: Phase,
    round: usize,
    c: usize,
    stop: Option<&Stop>,
) -> Vec<Record> {
    let primary = stop.map(|s| s.primary);
    let mut serves: Vec<Shape> = ops
        .iter()
        .filter(|op| Some(op.class) == primary)
        .map(|op| op.shape)
        .collect();
    serves.sort();
    serves.dedup();
    let mut out = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if stop.is_some_and(|s| s.done(&serves)) {
            break;
        }
        let start = Instant::now();
        let mut responses = Vec::with_capacity(op.reqs.len());
        for req in &op.reqs {
            let resp = conn.round_trip(&req.line);
            let lost = resp.is_none();
            responses.push(resp);
            if lost {
                break;
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let lost = responses.last().is_none_or(Option::is_none);
        if let Some(s) = stop {
            if Some(op.class) == primary && !lost {
                s.counts[op.shape.index()].fetch_add(1, Ordering::SeqCst);
            }
        }
        out.push(Record {
            phase,
            round,
            conn: c,
            op: i,
            ms,
            responses,
        });
        if lost {
            eprintln!("jsbench: connection {c} lost in round {round}; it stops here");
            break;
        }
    }
    if stop.is_some() && out.len() == ops.len() {
        eprintln!("jsbench: connection {c} exhausted its planned stream in round {round}");
    }
    out
}
