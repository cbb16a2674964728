//! The `jumpslice-serve` binary.
//!
//! ```text
//! jumpslice-serve [--listen ADDR] [--workers N]
//!                 [--cache-bytes N] [--store-dir DIR] [--store-bytes N]
//!                 [--replay-dir DIR]
//! ```
//!
//! By default the daemon serves JSON-lines on stdin/stdout;
//! `--listen 127.0.0.1:7878` adds a TCP front-end speaking the same
//! protocol. Each client's requests run on that client's own thread, and
//! `--workers N` bounds how many run at once (default 2; 0 runs as 1).
//! Shut down with a `{"op":"shutdown"}` request, or by closing stdin when
//! there is no `--listen`: the daemon answers every request it admitted
//! and exits, even while other clients stay connected.
//!
//! `--store-dir DIR` attaches the persistent snapshot store (DESIGN.md
//! §11): each program that served a slice is written behind the response
//! as a versioned, checksummed record of its source and parsed form, and a
//! restarted daemon pointed at the same directory loads a known program
//! without parsing it. The restored session is the one a cold load opens,
//! and its first slice builds the analysis.
//! `--store-bytes N` caps the directory (LRU by mtime; default 1 GiB).
//!
//! `--replay-dir DIR` is not a daemon mode at all: it replays every
//! difftest program artifact (`*.prog.txt`) in DIR through the serve
//! engine and cross-checks each Figure-7 answer against a direct
//! [`jumpslice_core::agrawal_slice`] call, exiting non-zero on any
//! mismatch. The nightly fuzz workflow uses it to prove the daemon layer
//! adds no behavior on top of the slicers.

use jumpslice_obs::Json;
use jumpslice_serve::engine::Engine;
use jumpslice_serve::server::{run, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;

/// 256 MiB default cache budget — a few hundred medium programs.
const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// 1 GiB default on-disk snapshot budget (`--store-bytes`).
const DEFAULT_STORE_BYTES: u64 = 1 << 30;

struct Options {
    config: ServerConfig,
    cache_bytes: usize,
    replay_dir: Option<String>,
    store_dir: Option<String>,
    store_bytes: u64,
}

fn usage() -> &'static str {
    "usage: jumpslice-serve [--listen ADDR] [--workers N] \
     [--cache-bytes N] [--store-dir DIR] [--store-bytes N] [--replay-dir DIR]\n\
     JSON-lines slice daemon; see DESIGN.md §10 for the protocol and §11 \
     for the snapshot store."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: ServerConfig::default(),
        cache_bytes: DEFAULT_CACHE_BYTES,
        replay_dir: None,
        store_dir: None,
        store_bytes: DEFAULT_STORE_BYTES,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--listen" => {
                opts.config.listen = Some(value(i)?.clone());
                i += 2;
            }
            "--workers" => {
                opts.config.workers = value(i)?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_owned())?;
                i += 2;
            }
            "--cache-bytes" => {
                opts.cache_bytes = value(i)?
                    .parse()
                    .map_err(|_| "--cache-bytes needs an integer".to_owned())?;
                i += 2;
            }
            "--store-dir" => {
                opts.store_dir = Some(value(i)?.clone());
                i += 2;
            }
            "--store-bytes" => {
                opts.store_bytes = value(i)?
                    .parse()
                    .map_err(|_| "--store-bytes needs an integer".to_owned())?;
                i += 2;
            }
            "--replay-dir" => {
                opts.replay_dir = Some(value(i)?.clone());
                i += 2;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let engine = match build_engine(&opts) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("jumpslice-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(dir) = &opts.replay_dir {
        return replay(dir, &engine);
    }

    match run(Arc::new(engine), &opts.config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("jumpslice-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn build_engine(opts: &Options) -> Result<Engine, String> {
    let mut engine = Engine::new(opts.cache_bytes);
    if let Some(dir) = &opts.store_dir {
        let store = jumpslice_store::SnapshotStore::open(dir, opts.store_bytes)
            .map_err(|e| format!("cannot open snapshot store {dir}: {e}"))?;
        engine = engine.with_store(store);
    }
    Ok(engine)
}

/// Replays difftest program artifacts through the engine and cross-checks
/// every line's Figure-7 slice against a direct library call. With
/// `--store-dir` the engine is store-backed, so a second replay over the
/// same directory restores every program from its snapshot — the nightly
/// workflow runs exactly that pair and the summary line's restore count
/// proves the warm path served the same answers.
fn replay(dir: &str, engine: &Engine) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("jumpslice-serve: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".prog.txt"))
        })
        .collect();
    paths.sort();

    let (mut programs, mut checked, mut skipped, mut mismatches) = (0usize, 0usize, 0usize, 0usize);
    let mut restored = 0usize;
    for path in &paths {
        let Ok(source) = std::fs::read_to_string(path) else {
            skipped += 1;
            continue;
        };
        let loaded = Json::parse(
            &engine.handle_line(
                &Json::Obj(vec![
                    ("op".to_owned(), Json::Str("load".to_owned())),
                    ("source".to_owned(), Json::Str(source.clone())),
                ])
                .write_compact(),
            ),
        )
        .expect("engine responses are valid JSON");
        if loaded.get("ok").and_then(Json::as_bool) != Some(true) {
            // Shrunk difftest artifacts can be unanalyzable fragments; the
            // daemon refusing them cleanly is itself the contract.
            skipped += 1;
            continue;
        }
        let key = loaded
            .get("program")
            .and_then(Json::as_str)
            .expect("load responses carry the key")
            .to_owned();
        if loaded.get("restored").and_then(Json::as_bool) == Some(true) {
            restored += 1;
        }
        let prog = jumpslice_lang::parse(&source).expect("engine accepted it");
        let analysis = jumpslice_core::Analysis::new(&prog);
        programs += 1;
        for line in 1..=prog.len() {
            let resp = Json::parse(&engine.handle_line(&format!(
                r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":{line}}}]}}"#
            )))
            .expect("engine responses are valid JSON");
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                eprintln!(
                    "REPLAY MISMATCH {}:{line}: request failed: {resp:?}",
                    path.display()
                );
                mismatches += 1;
                continue;
            }
            let served: Vec<usize> = resp.get("slices").and_then(Json::as_arr).expect("slices")[0]
                .get("lines")
                .and_then(Json::as_arr)
                .expect("lines")
                .iter()
                .filter_map(Json::as_num)
                .map(|n| n as usize)
                .collect();
            let direct = jumpslice_core::agrawal_slice(
                &analysis,
                &jumpslice_core::Criterion::at_stmt(prog.at_line(line)),
            )
            .lines(&prog);
            if served != direct {
                eprintln!(
                    "REPLAY MISMATCH {}:{line}: served {served:?} != direct {direct:?}",
                    path.display()
                );
                mismatches += 1;
            }
            checked += 1;
        }
    }
    println!(
        "replay: {programs} programs, {checked} slices checked, {skipped} skipped, {mismatches} mismatches"
    );
    if let Some(store) = engine.store() {
        let s = store.stats();
        println!(
            "replay store: {restored} restored, {} hits, {} misses, {} writes, {} corrupt, {} records on disk",
            s.hits, s.misses, s.writes, s.corrupt, s.records
        );
    }
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
