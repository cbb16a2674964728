//! End-to-end tests against the real `jumpslice-serve` binary and against
//! the in-process engine where byte-budget behavior is easier to pin.
//!
//! The daemon test is the ISSUE's acceptance scenario: two programs, well
//! over a hundred mixed slice/edit requests over stdin/stdout JSON-lines,
//! a cache hit-rate check through `stats`, a deterministic
//! deadline-degradation check, and a clean shutdown.

use jumpslice_obs::Json;
use jumpslice_serve::engine::Engine;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One stdin/stdout JSON-lines conversation with the spawned daemon.
struct Daemon {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_jumpslice-serve"))
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and reads its one response line. Per-line
    /// lockstep keeps the pipes from filling in either direction.
    fn send(&mut self, line: &str) -> Json {
        let raw = self.send_raw(line);
        Json::parse(&raw).unwrap_or_else(|e| panic!("bad response {raw:?}: {e}"))
    }

    /// Like [`Daemon::send`] but returns the raw response line (without
    /// the trailing newline) — for byte-identity assertions.
    fn send_raw(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "daemon closed mid-conversation");
        resp.truncate(resp.trim_end().len());
        resp
    }

    fn send_ok(&mut self, line: &str) -> Json {
        let j = self.send(line);
        assert_eq!(
            j.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {line:?} failed: {j:?}"
        );
        j
    }

    /// Closes stdin and waits (bounded) for a clean exit.
    fn finish(mut self) {
        drop(self.stdin);
        expect_exit(
            &mut self.child,
            Duration::from_secs(10),
            "stdin EOF + shutdown",
        );
    }
}

/// Waits up to `limit` for `child` to exit successfully; kills it and
/// fails the test if it is still running then.
fn expect_exit(child: &mut Child, limit: Duration, after: &str) {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("daemon did not exit within {limit:?} of {after}");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn load(d: &mut Daemon, source: &str) -> (String, usize) {
    let req = Json::Obj(vec![
        ("op".to_owned(), Json::Str("load".to_owned())),
        ("source".to_owned(), Json::Str(source.to_owned())),
    ])
    .write_compact();
    let j = d.send_ok(&req);
    (
        j.get("program")
            .and_then(Json::as_str)
            .expect("key")
            .to_owned(),
        j.get("stmts").and_then(Json::as_num).expect("stmts") as usize,
    )
}

fn slice_lines(
    d: &mut Daemon,
    key: &str,
    algo: &str,
    line: usize,
    deadline_ms: Option<u64>,
) -> (Vec<usize>, bool) {
    let deadline = deadline_ms.map_or(String::new(), |ms| format!(r#","deadline_ms":{ms}"#));
    let j = d.send_ok(&format!(
        r#"{{"op":"slice","program":"{key}","algo":"{algo}","criteria":[{{"line":{line}}}]{deadline}}}"#
    ));
    let lines = j.get("slices").and_then(Json::as_arr).expect("slices")[0]
        .get("lines")
        .and_then(Json::as_arr)
        .expect("lines")
        .iter()
        .filter_map(Json::as_num)
        .map(|n| n as usize)
        .collect();
    let degraded = j
        .get("degraded")
        .and_then(Json::as_bool)
        .expect("degraded flag");
    (lines, degraded)
}

/// The acceptance scenario, verbatim from the ISSUE: two programs, ≥100
/// mixed requests, cache hit-rate > 0, deadline degradation superset,
/// clean shutdown.
#[test]
fn daemon_end_to_end_over_stdin() {
    let mut d = Daemon::spawn(&["--workers", "2"]);

    // Program A: structured (Figure 14) — fig13 ⊇ fig7 is pinned here, so
    // degradation supersets are checkable. Program B: unstructured (goto).
    let src_a = jumpslice_lang::print_program(&jumpslice_core::corpus::fig14());
    let src_b = jumpslice_lang::print_program(&jumpslice_core::corpus::fig8());
    let (mut key_a, stmts_a) = load(&mut d, &src_a);
    let (mut key_b, stmts_b) = load(&mut d, &src_b);
    assert_ne!(key_a, key_b);

    // Re-loading identical source is a cache hit and returns the same key.
    let (key_a2, _) = load(&mut d, &src_a);
    assert_eq!(key_a2, key_a);

    let mut requests = 3usize;
    let algos = ["fig7", "conventional", "fig13"];
    for i in 0..80 {
        let (key, stmts) = if i % 2 == 0 {
            (&mut key_a, stmts_a)
        } else {
            (&mut key_b, stmts_b)
        };
        let line = 1 + (i * 3) % stmts;
        let (lines, degraded) = slice_lines(&mut d, key, algos[i % algos.len()], line, None);
        assert!(!degraded);
        assert!(
            lines.iter().all(|&l| l >= 1),
            "lines are 1-based: {lines:?}"
        );
        requests += 1;

        if i % 10 == 3 {
            // Mixed in: an edit that changes content, re-keying the entry.
            let j = d.send_ok(&format!(
                r#"{{"op":"edit","program":"{key}","edit":{{"kind":"insert","path":[["body",0]],"stmt":{{"kind":"assign","var":"zz","expr":"{i}"}}}}}}"#
            ));
            let new_key = j.get("program").and_then(Json::as_str).expect("new key");
            assert_ne!(new_key, key.as_str(), "insert changes the content key");
            *key = new_key.to_owned();
            requests += 1;
            // The edited program answers immediately under its new key.
            let (_, degraded) = slice_lines(&mut d, key, "fig7", 1, None);
            assert!(!degraded);
            requests += 1;
        }
    }

    // Deadline degradation, deterministic via deadline_ms: 0, on the
    // structured program (where the fig7 ⊆ fig13 superset is guaranteed).
    let (precise, was_degraded) = slice_lines(&mut d, &key_a, "fig7", stmts_a, None);
    assert!(!was_degraded);
    let (degraded, was_degraded) = slice_lines(&mut d, &key_a, "fig7", stmts_a, Some(0));
    assert!(was_degraded, "deadline_ms:0 must force degradation");
    assert!(
        precise.iter().all(|l| degraded.contains(l)),
        "degraded {degraded:?} must contain precise {precise:?}"
    );
    requests += 2;

    let stats = d.send_ok(r#"{"op":"stats"}"#);
    let cache = stats.get("cache").expect("cache stats");
    let hits = cache.get("hits").and_then(Json::as_num).expect("hits");
    assert!(hits > 0.0, "cache hit-rate must be positive: {stats:?}");
    assert!(
        stats
            .get("requests")
            .and_then(Json::as_num)
            .expect("requests")
            >= (requests + 1) as f64,
        "daemon counted every request"
    );
    assert!(
        stats
            .get("degraded")
            .and_then(Json::as_num)
            .expect("degraded")
            >= 1.0,
        "the degraded request was counted"
    );
    assert!(
        requests + 1 >= 100,
        "the scenario sends ≥100 requests, sent {}",
        requests + 1
    );

    let bye = d.send_ok(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
    d.finish();
}

/// Hostile inputs over the real pipe: the daemon answers an error for each
/// and stays alive for valid traffic afterwards.
#[test]
fn daemon_survives_hostile_lines() {
    let mut d = Daemon::spawn(&["--workers", "1"]);
    for bad in [
        "garbage",
        r#"{"op":"load","source":"x = ;"}"#,
        r#"{"op":"load","source":"L: x = 1; goto L; write(x);"}"#,
        r#"{"op":"slice","program":"ffffffffffffffff","algo":"fig7","criteria":[{"line":1}]}"#,
        r#"{"op":"explain","program":"ffffffffffffffff","line":1}"#,
        r#"[]"#,
    ] {
        let j = d.send(bad);
        assert_eq!(
            j.get("ok").and_then(Json::as_bool),
            Some(false),
            "{bad:?} must error, got {j:?}"
        );
        assert!(j.get("error").and_then(Json::as_str).is_some());
    }
    let (key, stmts) = load(&mut d, "read(x); y = x + 1; write(y);");
    let (lines, _) = slice_lines(&mut d, &key, "fig7", stmts, None);
    assert_eq!(lines, vec![1, 2, 3]);
    d.send_ok(r#"{"op":"shutdown"}"#);
    d.finish();
}

/// Source nested past the parser's bound over the real pipe: each `load`
/// gets a typed `{"ok":false}` answer, and the worker that parsed it lives
/// on to answer the next request. Each of these used to overflow the
/// worker's stack, which aborts the whole process.
#[test]
fn daemon_rejects_over_deep_source_and_keeps_serving() {
    let mut d = Daemon::spawn(&["--workers", "1"]);
    let sum = vec!["y"; 100_000].join(" + ");
    for src in [
        format!("x = {}1{};", "(".repeat(100_000), ")".repeat(100_000)),
        "if (x) {".repeat(20_000),
        format!("x = {sum};"),
    ] {
        let req = Json::Obj(vec![
            ("op".to_owned(), Json::Str("load".to_owned())),
            ("source".to_owned(), Json::Str(src)),
        ])
        .write_compact();
        let j = d.send(&req);
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false), "{j:?}");
        let err = j.get("error").and_then(Json::as_str).expect("error");
        assert!(err.contains("nesting deeper than"), "{err}");
        d.send_ok(r#"{"op":"stats"}"#);
    }
    d.send_ok(r#"{"op":"shutdown"}"#);
    d.finish();
}

/// `--workers 0` still starts (it runs one request at a time, like
/// `--workers 1`) and speaks the same protocol.
#[test]
fn inline_mode_round_trips() {
    let mut d = Daemon::spawn(&["--workers", "0"]);
    let (key, _) = load(&mut d, "read(a); b = a; write(b);");
    let (lines, _) = slice_lines(&mut d, &key, "fig12", 3, None);
    assert_eq!(lines, vec![1, 2, 3]);
    d.send_ok(r#"{"op":"shutdown"}"#);
    d.finish();
}

/// A `shutdown` over stdin ends the daemon although stdin stays open: the
/// daemon answers it, then exits without waiting for EOF.
#[test]
fn stdin_shutdown_exits_while_stdin_stays_open() {
    for workers in ["2", "0"] {
        let mut d = Daemon::spawn(&["--workers", workers]);
        d.send_ok(r#"{"op":"stats"}"#);
        let bye = d.send_ok(r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
        expect_exit(
            &mut d.child,
            Duration::from_secs(5),
            &format!("a stdin shutdown with --workers {workers} and stdin open"),
        );
    }
}

/// A `shutdown` from one TCP client ends a `--listen` daemon while
/// another client idles and stdin stays open.
#[test]
fn tcp_shutdown_exits_while_another_client_idles_and_stdin_stays_open() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_jumpslice-serve"))
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let _stdin = child.stdin.take().expect("piped stdin");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read stderr");
    let addr = banner
        .trim()
        .strip_prefix("jumpslice-serve: listening on ")
        .unwrap_or_else(|| panic!("no listening line: {banner:?}"))
        .to_owned();

    let _idle = std::net::TcpStream::connect(&addr).expect("idle client connects");
    let mut conn = std::net::TcpStream::connect(&addr).expect("client connects");
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
    let mut bye = String::new();
    BufReader::new(&conn)
        .read_line(&mut bye)
        .expect("shutdown is answered");
    assert!(bye.contains(r#""shutting_down":true"#), "{bye}");
    expect_exit(
        &mut child,
        Duration::from_secs(5),
        "a TCP shutdown with an idle client and stdin open",
    );
}

/// Byte-budget eviction through the protocol: with a budget that holds
/// roughly one program, loading a second evicts the first, `stats` records
/// the eviction, and the evicted key answers with a re-loadable error.
#[test]
fn cache_eviction_under_byte_budget() {
    // A budget below any entry's estimate: the cache still keeps the
    // newest entry (it never evicts down to zero), so each load evicts
    // exactly the previous program.
    let e = Engine::new(1);
    let load = |e: &Engine, src: &str| -> String {
        let j = Json::parse(
            &e.handle_line(
                &Json::Obj(vec![
                    ("op".to_owned(), Json::Str("load".to_owned())),
                    ("source".to_owned(), Json::Str(src.to_owned())),
                ])
                .write_compact(),
            ),
        )
        .expect("valid json");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        j.get("program")
            .and_then(Json::as_str)
            .expect("key")
            .to_owned()
    };
    let k1 = load(&e, "read(a); write(a);");
    let k2 = load(&e, "read(b); write(b);");
    assert_ne!(k1, k2);
    let stats = e.cache_stats();
    assert!(stats.evictions >= 1, "budget forced an eviction: {stats:?}");
    assert_eq!(stats.entries, 1, "only the newest survives the tiny budget");

    // The evicted program now misses, with an error telling the client to
    // re-load — and re-loading works.
    let j = Json::parse(&e.handle_line(&format!(
        r#"{{"op":"slice","program":"{k1}","algo":"fig7","criteria":[{{"line":1}}]}}"#
    )))
    .expect("valid json");
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
    let msg = j.get("error").and_then(Json::as_str).expect("error");
    assert!(
        msg.contains("load"),
        "error should hint at re-loading: {msg}"
    );
    let k1b = load(&e, "read(a); write(a);");
    assert_eq!(k1b, k1, "content key is stable across eviction");
}

/// The tentpole acceptance scenario end-to-end: a daemon with
/// `--store-dir` persists analyses behind slices; a *new process* over
/// the same directory restores them (`restored: true`, a store hit in
/// `stats`) and serves byte-identical responses; a corrupted record
/// degrades to the from-source build — still byte-identical, counted,
/// never fatal.
#[test]
fn daemon_restart_restores_from_store_and_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("jumpslice-store-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store_args = ["--workers", "0", "--store-dir", dir.to_str().expect("utf8")];
    let src = jumpslice_lang::print_program(&jumpslice_core::corpus::fig8());

    // Cold run: nothing on disk, load builds from source, slice persists.
    let mut cold = Daemon::spawn(&store_args);
    let (key, stmts) = load(&mut cold, &src);
    let slice_req = format!(
        r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":{stmts}}}]}}"#
    );
    let cold_resp = cold.send_raw(&slice_req);
    let stats = cold.send_ok(r#"{"op":"stats"}"#);
    let store = stats.get("store").expect("store stats present");
    assert_eq!(store.get("writes").and_then(Json::as_num), Some(1.0));
    assert_eq!(store.get("hits").and_then(Json::as_num), Some(0.0));
    cold.send_ok(r#"{"op":"shutdown"}"#);
    cold.finish();

    // Restart over the same directory: the snapshot is the analysis.
    let mut warm = Daemon::spawn(&store_args);
    let req = Json::Obj(vec![
        ("op".to_owned(), Json::Str("load".to_owned())),
        ("source".to_owned(), Json::Str(src.clone())),
    ])
    .write_compact();
    let j = warm.send_ok(&req);
    assert_eq!(
        j.get("restored").and_then(Json::as_bool),
        Some(true),
        "warm load must restore from the store: {j:?}"
    );
    let warm_resp = warm.send_raw(&slice_req);
    assert_eq!(warm_resp, cold_resp, "restored slice is byte-identical");
    let stats = warm.send_ok(r#"{"op":"stats"}"#);
    let store = stats.get("store").expect("store stats present");
    assert_eq!(store.get("hits").and_then(Json::as_num), Some(1.0));
    assert_eq!(store.get("corrupt").and_then(Json::as_num), Some(0.0));
    warm.send_ok(r#"{"op":"shutdown"}"#);
    warm.finish();

    // Flip a payload bit on disk. The next restart must detect it, fall
    // back to building from source, and still answer identically.
    let record = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("one snapshot record");
    let mut bytes = std::fs::read(&record).expect("read record");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&record, &bytes).expect("corrupt record");

    let mut hurt = Daemon::spawn(&store_args);
    let j = hurt.send_ok(&req);
    assert_eq!(
        j.get("restored").and_then(Json::as_bool),
        Some(false),
        "corrupt snapshot must not restore: {j:?}"
    );
    let hurt_resp = hurt.send_raw(&slice_req);
    assert_eq!(hurt_resp, cold_resp, "fallback slice is byte-identical");
    let stats = hurt.send_ok(r#"{"op":"stats"}"#);
    let store = stats.get("store").expect("store stats present");
    assert_eq!(store.get("corrupt").and_then(Json::as_num), Some(1.0));
    assert_eq!(
        store.get("writes").and_then(Json::as_num),
        Some(1.0),
        "the slice re-persisted a replacement record"
    );
    hurt.send_ok(r#"{"op":"shutdown"}"#);
    hurt.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Store-backed replay: the first pass writes a snapshot per artifact,
/// the second pass (a fresh process) restores every one of them — and
/// both agree with the library on every slice.
#[test]
fn replay_mode_restores_from_the_store_on_the_second_pass() {
    let base = std::env::temp_dir().join(format!("jumpslice-replay-store-{}", std::process::id()));
    let progs = base.join("progs");
    let store = base.join("store");
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&progs).expect("mkdir");
    for (name, prog, _) in jumpslice_core::corpus::all() {
        std::fs::write(
            progs.join(format!("{name}.prog.txt")),
            jumpslice_lang::print_program(&prog),
        )
        .expect("write artifact");
    }
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_jumpslice-serve"))
            .args([
                "--replay-dir",
                progs.to_str().expect("utf8"),
                "--store-dir",
                store.to_str().expect("utf8"),
            ])
            .output()
            .expect("replay runs");
        assert!(
            out.status.success(),
            "replay failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert!(first.contains("0 mismatches"), "{first}");
    assert!(first.contains("replay store: 0 restored"), "{first}");
    let second = run();
    assert!(second.contains("0 mismatches"), "{second}");
    let programs = jumpslice_core::corpus::all().len();
    assert!(
        second.contains(&format!("replay store: {programs} restored")),
        "every artifact restores on the second pass: {second}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The replay mode cross-checks served slices against direct library
/// calls on a directory of program artifacts.
#[test]
fn replay_mode_agrees_with_the_library() {
    let dir = std::env::temp_dir().join(format!("jumpslice-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, prog, _) in jumpslice_core::corpus::all() {
        std::fs::write(
            dir.join(format!("{name}.prog.txt")),
            jumpslice_lang::print_program(&prog),
        )
        .expect("write artifact");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_jumpslice-serve"))
        .args(["--replay-dir", dir.to_str().expect("utf8 tmpdir")])
        .output()
        .expect("replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replay found mismatches:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 mismatches"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
