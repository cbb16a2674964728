//! The chaos driver: replay difftest corpora through a faulted daemon and
//! hold every response to the library's direct answer.
//!
//! One [`run_plan`] call is one experiment: generate a program corpus from
//! the plan's seed (the same three [`jumpslice_difftest::Family`]
//! generators the differential suite fuzzes with), bring up a real daemon
//! — the serve binary's admission gate and request path, a byte-budgeted
//! cache, a snapshot store on a scratch directory — wire the [`FaultPlan`]
//! into it, and drive requests while checking after **every** response:
//!
//! * a non-degraded `slice` response is **byte-identical** to the answer a
//!   pristine, fault-free engine gives for the same request;
//! * a `"degraded":true` response carries exactly the direct Figure-13
//!   conservative answer for the same criteria, and on structured programs
//!   its lines are a superset of the precise Figure-7 slice (the paper's
//!   §4 contract);
//! * an error response is one the plan *caused* (injected worker panic,
//!   scheduled admission rejection) or one the daemon's contract allows
//!   (`unknown program` after eviction or a panic-dropped entry), in which
//!   case re-sending `load` and retrying must fully recover — anything
//!   else is a violation;
//! * the cache's lease-event stream (observed under the cache lock by the
//!   [`ChaosHook`]) never shows a double lease, an eviction of a leased
//!   entry, or a panic-poisoned entry served without re-registration;
//! * the snapshot store never serves a corrupt record: after a daemon
//!   restart over the same (fault-torn) directory, every restored program
//!   still slices byte-identically to the oracle;
//! * shutdown always drains: after every phase the gate closes with no
//!   request that panicked past the engine's own containment.
//!
//! The sequential and restart phases are fully deterministic — faults are
//! addressed by call counts, cancellation by checkpoint fuel — so a
//! violating plan replays. The concurrency-stress phase admits scheduling
//! nondeterminism but validates each response locally against the same
//! closed set of acceptable outcomes, so any interleaving must satisfy the
//! invariants.
//!
//! [`run_chaos`] samples many plans, shrinks each violating plan to a
//! 1-minimal schedule ([`crate::shrink_plan`]), and emits ready-to-paste
//! regression tests. [`self_test_lease_eviction_detected`] and
//! [`self_test_forged_snapshot_detected`] prove the harness *can* detect
//! lease and corruption violations by injecting known bugs and demanding
//! the detectors fire.

use crate::hook::ChaosHook;
use crate::io::FaultIo;
use crate::plan::{regression_test, shrink_plan, FaultPlan};
use jumpslice_difftest::{DiffConfig, Family};
use jumpslice_lang::print_program;
use jumpslice_obs::{self as obs, Json};
use jumpslice_serve::{content_hash, Engine, Pool};
use jumpslice_store::SnapshotStore;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Chaos-session knobs.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// First plan seed (inclusive); seed `n` generates both the `n`-th
    /// [`FaultPlan`] and the `n`-th program corpus.
    pub start_seed: u64,
    /// Number of fault plans to run.
    pub plans: u64,
    /// Approximate statements per generated program.
    pub target_stmts: usize,
    /// Programs per plan, drawn round-robin from the three difftest
    /// families.
    pub programs_per_plan: usize,
    /// Approximate cache capacity in *entries* (the byte budget is derived
    /// from the corpus). Kept below `programs_per_plan` so eviction and
    /// store-restore churn is constant.
    pub cache_slots: usize,
    /// Snapshot-store byte budget.
    pub store_budget: u64,
    /// Requests the daemon runs at once (its `--workers`).
    pub workers: usize,
    /// Concurrent clients in the stress phase (0 or 1 disables it).
    pub stress_clients: usize,
    /// Requests per stress client.
    pub stress_rounds: usize,
    /// Whether to minimize violating plans before reporting.
    pub shrink: bool,
    /// Stop after this many violating plans.
    pub max_findings: usize,
}

impl ChaosConfig {
    /// The fixed-seed smoke configuration CI runs: small corpora, every
    /// fault class reachable, a couple of minutes end to end.
    pub fn smoke() -> ChaosConfig {
        ChaosConfig {
            start_seed: 0,
            plans: 8,
            target_stmts: 20,
            programs_per_plan: 3,
            cache_slots: 2,
            store_budget: 1 << 20,
            workers: 2,
            stress_clients: 3,
            stress_rounds: 12,
            shrink: true,
            max_findings: 4,
        }
    }
}

/// What one plan's run produced.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Seed the corpus was generated from.
    pub program_seed: u64,
    /// Requests the daemon(s) handled (from the `stats` op).
    pub requests: u64,
    /// Slice cases checked against the oracle.
    pub cases: usize,
    /// `"degraded":true` responses observed (and verified).
    pub degraded: u64,
    /// Injected worker panics observed (and recovered from).
    pub panics: u64,
    /// `unknown program` recoveries (eviction/abort churn, re-loaded).
    pub reloads: u64,
    /// Enqueues rejected by the plan.
    pub rejected: u64,
    /// Snapshot restores observed (store round trips that worked).
    pub restored: u64,
    /// IO faults that actually fired, in order.
    pub io_fired: Vec<String>,
    /// Invariant violations. Empty is the passing verdict.
    pub violations: Vec<String>,
}

/// One violating plan, minimized and rendered as a regression test.
#[derive(Clone, Debug)]
pub struct ChaosFinding {
    /// Corpus seed.
    pub program_seed: u64,
    /// The plan as sampled.
    pub plan: FaultPlan,
    /// The 1-minimal plan that still violates.
    pub shrunk: FaultPlan,
    /// The violations the original run observed.
    pub violations: Vec<String>,
    /// Ready-to-paste `#[test]` replaying the shrunk plan.
    pub regression_test: String,
}

/// Aggregate over a whole chaos session.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Plans run.
    pub plans: u64,
    /// Total requests handled.
    pub requests: u64,
    /// Total oracle-checked slice cases.
    pub cases: usize,
    /// Verified degraded responses.
    pub degraded: u64,
    /// Injected panics recovered from.
    pub panics: u64,
    /// Eviction/abort reload recoveries.
    pub reloads: u64,
    /// Scheduled queue rejections served.
    pub rejected: u64,
    /// Snapshot restores.
    pub restored: u64,
    /// IO faults fired.
    pub io_faults_fired: usize,
    /// Violating plans (shrunk, with regression tests).
    pub findings: Vec<ChaosFinding>,
}

impl ChaosReport {
    fn absorb(&mut self, o: &PlanOutcome) {
        self.plans += 1;
        self.requests += o.requests;
        self.cases += o.cases;
        self.degraded += o.degraded;
        self.panics += o.panics;
        self.reloads += o.reloads;
        self.rejected += o.rejected;
        self.restored += o.restored;
        self.io_faults_fired += o.io_fired.len();
    }

    /// Human summary for CLI and CI logs.
    pub fn summary(&self) -> String {
        format!(
            "chaos: {} plans, {} requests, {} cases checked, {} degraded verified, \
             {} panics recovered, {} reloads, {} rejections, {} restores, {} io faults fired, \
             {} violating plans",
            self.plans,
            self.requests,
            self.cases,
            self.degraded,
            self.panics,
            self.reloads,
            self.rejected,
            self.restored,
            self.io_faults_fired,
            self.findings.len()
        )
    }
}

struct Prog {
    key: String,
    stmts: usize,
    structured: bool,
    load_req: String,
}

struct Case {
    req: String,
    oracle_resp: String,
    /// `write_compact` of the oracle's direct fig13 `slices` value.
    fig13_slices: String,
    /// Per-criterion precise (requested-algo) line sets, for the superset
    /// check on degraded answers.
    precise_lines: Vec<Vec<u64>>,
    /// Whether fig13 ⊇ precise must hold (structured program, fig7 ask).
    superset: bool,
    load_req: String,
    key: String,
}

#[derive(Default)]
struct Counts {
    degraded: AtomicU64,
    panics: AtomicU64,
    reloads: AtomicU64,
}

fn rundir(tag: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("jumpslice-chaos-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir
}

fn load_request(source: &str) -> String {
    Json::Obj(vec![
        ("op".to_owned(), Json::Str("load".to_owned())),
        ("source".to_owned(), Json::Str(source.to_owned())),
    ])
    .write_compact()
}

fn slice_request(key: &str, algo: &str, line: usize) -> String {
    format!(r#"{{"op":"slice","program":"{key}","algo":"{algo}","criteria":[{{"line":{line}}}]}}"#)
}

/// Generates the plan's corpus and registers it with the oracle, skipping
/// anything the engine rejects (the generators occasionally produce
/// programs outside the analyzable fragment; both engines reject them
/// identically, so there is nothing to compare).
fn corpus(cfg: &ChaosConfig, program_seed: u64, oracle: &Engine) -> Vec<Prog> {
    let diff_cfg = DiffConfig {
        target_stmts: cfg.target_stmts,
        ..DiffConfig::smoke()
    };
    let mut progs = Vec::new();
    let mut seed = program_seed;
    let mut rounds = 0;
    while progs.len() < cfg.programs_per_plan && rounds < 4 {
        for family in Family::ALL {
            if progs.len() >= cfg.programs_per_plan {
                break;
            }
            let source = print_program(&family.generate(seed, &diff_cfg));
            let load_req = load_request(&source);
            let resp = oracle.handle_line(&load_req);
            let Ok(j) = Json::parse(&resp) else { continue };
            if j.get("ok").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let (Some(key), Some(stmts)) = (
                j.get("program").and_then(Json::as_str),
                j.get("stmts").and_then(Json::as_num),
            ) else {
                continue;
            };
            progs.push(Prog {
                key: key.to_owned(),
                stmts: stmts as usize,
                structured: !matches!(family, Family::Unstructured),
                load_req,
            });
        }
        seed = seed.wrapping_add(1);
        rounds += 1;
    }
    progs
}

fn make_case(oracle: &Engine, p: &Prog, algo: &str, line: usize) -> Case {
    let req = slice_request(&p.key, algo, line);
    let oracle_resp = oracle.handle_line(&req);
    let fig13_resp = oracle.handle_line(&slice_request(&p.key, "fig13", line));
    let fig13_slices = Json::parse(&fig13_resp)
        .ok()
        .and_then(|j| j.get("slices").map(Json::write_compact))
        .unwrap_or_default();
    let precise_lines = Json::parse(&oracle_resp)
        .ok()
        .and_then(|j| {
            j.get("slices").and_then(Json::as_arr).map(|slices| {
                slices
                    .iter()
                    .map(|s| {
                        s.get("lines")
                            .and_then(Json::as_arr)
                            .map(|ls| {
                                ls.iter()
                                    .filter_map(Json::as_num)
                                    .map(|n| n as u64)
                                    .collect()
                            })
                            .unwrap_or_default()
                    })
                    .collect()
            })
        })
        .unwrap_or_default();
    Case {
        req,
        oracle_resp,
        fig13_slices,
        precise_lines,
        superset: p.structured && algo == "fig7",
        load_req: p.load_req.clone(),
        key: p.key.clone(),
    }
}

/// Re-registers a case's program after eviction or a panic-dropped entry.
fn reload(pool: &Pool, case: &Case, violations: &mut Vec<String>) {
    for _ in 0..6 {
        let Some(resp) = pool.round_trip(&case.load_req) else {
            violations.push("daemon refused a reload before shutdown".to_owned());
            return;
        };
        if resp.contains(r#""error":"queue full"#) {
            continue;
        }
        let Ok(j) = Json::parse(&resp) else {
            violations.push(format!("unparseable reload response: {resp}"));
            return;
        };
        if j.get("ok").and_then(Json::as_bool) != Some(true) {
            violations.push(format!("reload failed: {resp}"));
        } else if j.get("program").and_then(Json::as_str) != Some(case.key.as_str()) {
            violations.push(format!(
                "reload produced the wrong program key (want {}): {resp}",
                case.key
            ));
        }
        return;
    }
    violations.push("reload never got past queue rejections".to_owned());
}

/// Sends one oracle-checked slice request and classifies the response
/// against the closed set of acceptable outcomes. Returns the violations.
fn expect_slice(pool: &Pool, case: &Case, counts: &Counts, panic_allowed: bool) -> Vec<String> {
    let mut violations = Vec::new();
    for _ in 0..8 {
        let Some(resp) = pool.round_trip(&case.req) else {
            violations.push("daemon refused a request before shutdown".to_owned());
            return violations;
        };
        if resp == case.oracle_resp {
            return violations; // byte-identical to the direct library answer
        }
        if resp.contains('\n') {
            violations.push(format!("response is not a single line: {resp:?}"));
            return violations;
        }
        let Ok(j) = Json::parse(&resp) else {
            violations.push(format!("unparseable response: {resp}"));
            return violations;
        };
        match j.get("ok").and_then(Json::as_bool) {
            Some(true) if j.get("degraded").and_then(Json::as_bool) == Some(true) => {
                counts.degraded.fetch_add(1, Ordering::SeqCst);
                let got = j.get("slices").map(Json::write_compact).unwrap_or_default();
                if got != case.fig13_slices {
                    violations.push(format!(
                        "degraded response differs from the direct fig13 answer\n  got:  {got}\n  want: {}",
                        case.fig13_slices
                    ));
                } else if case.superset {
                    check_superset(&j, case, &mut violations);
                }
                return violations;
            }
            Some(true) => {
                violations.push(format!(
                    "non-degraded response differs from the direct library slice\n  got:  {resp}\n  want: {}",
                    case.oracle_resp
                ));
                return violations;
            }
            Some(false) => {
                let msg = j.get("error").and_then(Json::as_str).unwrap_or("");
                if msg.starts_with("queue full") {
                    continue; // scheduled rejection; the retry is the client contract
                }
                if msg.contains("injected fault: worker panic") {
                    counts.panics.fetch_add(1, Ordering::SeqCst);
                    if !panic_allowed {
                        violations.push(format!("worker panic nobody injected: {resp}"));
                        return violations;
                    }
                    // The panicked request dropped its entry; re-register
                    // and retry — full recovery is the invariant.
                    reload(pool, case, &mut violations);
                    continue;
                }
                if msg.contains("unknown program") {
                    // Evicted (tiny cache) or dropped by a panic abort;
                    // the daemon's contract is `re-send load`.
                    counts.reloads.fetch_add(1, Ordering::SeqCst);
                    reload(pool, case, &mut violations);
                    continue;
                }
                violations.push(format!("unexpected error for {}: {resp}", case.req));
                return violations;
            }
            None => {
                violations.push(format!("response without ok field: {resp}"));
                return violations;
            }
        }
    }
    violations.push(format!(
        "request never settled after 8 attempts: {}",
        case.req
    ));
    violations
}

fn check_superset(j: &Json, case: &Case, violations: &mut Vec<String>) {
    let Some(slices) = j.get("slices").and_then(Json::as_arr) else {
        return;
    };
    for (got, want) in slices.iter().zip(&case.precise_lines) {
        let got: HashSet<u64> = got
            .get("lines")
            .and_then(Json::as_arr)
            .map(|ls| {
                ls.iter()
                    .filter_map(Json::as_num)
                    .map(|n| n as u64)
                    .collect()
            })
            .unwrap_or_default();
        if let Some(missing) = want.iter().find(|l| !got.contains(l)) {
            violations.push(format!(
                "degraded slice is not a superset of the precise slice on a structured \
                 program: line {missing} missing ({})",
                case.req
            ));
        }
    }
}

fn ensure_loaded(pool: &Pool, p: &Prog, violations: &mut Vec<String>) {
    for _ in 0..6 {
        let Some(resp) = pool.round_trip(&p.load_req) else {
            violations.push("daemon refused a load before shutdown".to_owned());
            return;
        };
        if resp.contains(r#""error":"queue full"#) {
            continue;
        }
        let Ok(j) = Json::parse(&resp) else {
            violations.push(format!("unparseable load response: {resp}"));
            return;
        };
        if j.get("ok").and_then(Json::as_bool) != Some(true) {
            violations.push(format!("load failed under faults: {resp}"));
        } else {
            if j.get("program").and_then(Json::as_str) != Some(p.key.as_str()) {
                violations.push(format!(
                    "load produced the wrong key (want {}): {resp}",
                    p.key
                ));
            }
            if j.get("stmts").and_then(Json::as_num) != Some(p.stmts as f64) {
                violations.push(format!(
                    "load produced the wrong statement count (want {}): {resp}",
                    p.stmts
                ));
            }
        }
        return;
    }
    violations.push("load never got past queue rejections".to_owned());
}

fn pool_requests(pool: &Pool) -> u64 {
    for _ in 0..4 {
        let Some(resp) = pool.round_trip(r#"{"op":"stats"}"#) else {
            return 0;
        };
        if resp.contains(r#""error":"queue full"#) {
            continue;
        }
        return Json::parse(&resp)
            .ok()
            .and_then(|j| j.get("requests").and_then(Json::as_num))
            .map(|n| n as u64)
            .unwrap_or(0);
    }
    0
}

/// Runs one plan over one corpus and returns the full outcome. See the
/// module docs for the phase structure and the invariant catalogue.
pub fn run_plan(cfg: &ChaosConfig, program_seed: u64, plan: &FaultPlan) -> PlanOutcome {
    let mut violations = Vec::new();
    let oracle = Engine::new(usize::MAX);
    let progs = corpus(cfg, program_seed, &oracle);
    let mut cases = Vec::new();
    for p in &progs {
        let mut lines = vec![1, p.stmts.div_ceil(2), p.stmts];
        lines.dedup();
        for (i, line) in lines.into_iter().enumerate() {
            cases.push(make_case(&oracle, p, "fig7", line));
            if i == 1 {
                cases.push(make_case(&oracle, p, "fig13", line));
            }
        }
    }
    let panic_allowed = plan.slice_faults.iter().any(|f| f.cancel_fuel.is_none());

    // Cache budget: roughly `cache_slots` of the corpus's largest entry,
    // so eviction (and therefore store-restore churn) is constant.
    let max_entry = progs
        .iter()
        .map(|p| jumpslice_serve::cache::estimate_bytes(p.load_req.len(), p.stmts))
        .max()
        .unwrap_or(1 << 16);
    let cache_bytes = max_entry * cfg.cache_slots.max(1) + max_entry / 2;

    let dir = rundir(program_seed);
    let io = Arc::new(FaultIo::new(plan));
    let hook = Arc::new(ChaosHook::new(plan));
    let counts = Counts::default();
    let mut requests = 0;

    // Phase 1+2: sequential replay, then concurrency stress.
    {
        let mut engine = Engine::new(cache_bytes);
        match SnapshotStore::open_with_io(&dir, cfg.store_budget, io.clone()) {
            Ok(store) => engine = engine.with_store(store),
            Err(e) => violations.push(format!("store failed to open on a clean dir: {e}")),
        }
        let engine = engine.with_fault_hook(hook.clone());
        let pool = Pool::start(Arc::new(engine), cfg.workers, 0);
        io.arm();

        for p in &progs {
            ensure_loaded(&pool, p, &mut violations);
        }
        for case in &cases {
            violations.extend(expect_slice(&pool, case, &counts, panic_allowed));
        }

        if cfg.stress_clients > 1 && !cases.is_empty() {
            // Program affinity: each client sticks to one program's cases,
            // so reload-after-eviction always converges for that client
            // even while the others churn the tiny cache.
            let mut keys: Vec<&str> = cases.iter().map(|c| c.key.as_str()).collect();
            keys.dedup();
            let shared = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for c in 0..cfg.stress_clients {
                    let pool = &pool;
                    let cases = &cases;
                    let counts = &counts;
                    let shared = &shared;
                    let my_key = keys[c % keys.len()];
                    scope.spawn(move || {
                        let mine: Vec<&Case> =
                            cases.iter().filter(|case| case.key == my_key).collect();
                        let mut local = Vec::new();
                        for r in 0..cfg.stress_rounds {
                            let case = mine[r % mine.len()];
                            local.extend(expect_slice(pool, case, counts, panic_allowed));
                        }
                        shared.lock().expect("stress lock").append(&mut local);
                    });
                }
            });
            violations.append(&mut shared.into_inner().expect("stress lock"));
        }

        requests += pool_requests(&pool);
        if !pool.shutdown() {
            violations.push("workers did not drain cleanly at shutdown".to_owned());
        }
    }

    // Phase 3: restart over the same (possibly fault-torn) directory. A
    // corrupt record served here would surface as a slice mismatch.
    {
        match SnapshotStore::open_with_io(&dir, cfg.store_budget, io.clone()) {
            Ok(store) => {
                let engine = Engine::new(cache_bytes)
                    .with_store(store)
                    .with_fault_hook(hook.clone());
                let pool = Pool::start(Arc::new(engine), cfg.workers, 0);
                for p in &progs {
                    ensure_loaded(&pool, p, &mut violations);
                }
                for case in cases.iter().step_by(2) {
                    violations.extend(expect_slice(&pool, case, &counts, panic_allowed));
                }
                requests += pool_requests(&pool);
                if !pool.shutdown() {
                    violations.push("workers did not drain cleanly after restart".to_owned());
                }
            }
            Err(e) => violations.push(format!("store failed to reopen after the run: {e}")),
        }
    }

    violations.extend(hook.tracker().violations());
    std::fs::remove_dir_all(&dir).ok();

    PlanOutcome {
        plan: plan.clone(),
        program_seed,
        requests,
        cases: cases.len(),
        degraded: counts.degraded.load(Ordering::SeqCst),
        panics: counts.panics.load(Ordering::SeqCst),
        reloads: counts.reloads.load(Ordering::SeqCst),
        rejected: hook.rejected(),
        restored: hook.restores(),
        io_fired: io.fired(),
        violations,
    }
}

/// Samples and runs `cfg.plans` fault plans, shrinking every violating
/// plan to a 1-minimal schedule and rendering it as a regression test.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport::default();
    for i in 0..cfg.plans {
        let seed = cfg.start_seed.wrapping_add(i);
        let plan = FaultPlan::sample(seed);
        let outcome = run_plan(cfg, seed, &plan);
        report.absorb(&outcome);
        if !outcome.violations.is_empty() {
            let shrunk = if cfg.shrink {
                shrink_plan(&plan, &|p| !run_plan(cfg, seed, p).violations.is_empty())
            } else {
                plan.clone()
            };
            let test = regression_test(&shrunk, seed, &outcome.violations[0]);
            report.findings.push(ChaosFinding {
                program_seed: seed,
                plan,
                shrunk,
                violations: outcome.violations,
                regression_test: test,
            });
            if report.findings.len() >= cfg.max_findings {
                break;
            }
        }
    }
    obs::record(|| obs::Event::Count {
        name: "chaos.plans",
        value: report.plans,
    });
    obs::record(|| obs::Event::Count {
        name: "chaos.io_faults_fired",
        value: report.io_faults_fired as u64,
    });
    obs::record(|| obs::Event::Count {
        name: "chaos.violations",
        value: report.findings.len() as u64,
    });
    report
}

/// Known-bug self-test 1 (lease class): flips the cache's
/// `evict_leased` override — the deliberately wrong policy that victimizes
/// checked-out entries — and demands the lease tracker flag it, while the
/// identical sequence without the bug stays silent. `Err` means the
/// harness cannot be trusted to catch lease violations.
pub fn self_test_lease_eviction_detected() -> Result<(), String> {
    use jumpslice_serve::{AnalysisCache, Entry};

    let mk = |src: &str| {
        let prog = jumpslice_lang::parse(src).expect("self-test source parses");
        let session = jumpslice_incr::EditSession::try_new(prog).expect("analyzable");
        (content_hash(src), Entry::new(session, src.to_owned()))
    };
    let run = |evict_leased: bool| -> Vec<String> {
        let plan = FaultPlan {
            evict_leased,
            ..FaultPlan::quiet(0)
        };
        let hook = Arc::new(ChaosHook::new(&plan));
        let (ka, ea) = mk("a = 1; write(a);");
        let (kb, eb) = mk("b = 2; write(b);");
        let (kc, ec) = mk("c = 3; write(c);");
        // Budget below three entries: the third insert must evict.
        let mut cache = AnalysisCache::new(ea.bytes * 2 + ea.bytes / 2);
        cache.set_fault_hook(hook.clone());
        cache.insert(ka, ea);
        let lease = cache.checkout(ka).expect("lease ka");
        cache.insert(kb, eb);
        cache.insert(kc, ec); // over budget; the leased ka is the LRU victim iff the bug is on
        cache.checkin(ka, ka, lease);
        hook.tracker().violations()
    };

    let clean = run(false);
    if !clean.is_empty() {
        return Err(format!(
            "lease tracker false-positived on a correct cache: {clean:?}"
        ));
    }
    let buggy = run(true);
    if !buggy.iter().any(|v| v.contains("leased entry evicted")) {
        return Err(format!(
            "lease tracker MISSED the injected leased-entry eviction (saw {buggy:?})"
        ));
    }
    Ok(())
}

/// Known-bug self-test 2 (corruption class): plants a **forged snapshot**
/// in the store — a record that passes the checksum, the version gate, the
/// decoder, and the source byte-equality check, but whose program section
/// holds a different program — and demands the slice-identity invariant catch
/// it. This is the corruption no storage-layer defense can see; only
/// comparing served answers against the direct library slice does. `Err`
/// means the harness cannot be trusted to catch corruption violations.
pub fn self_test_forged_snapshot_detected(scratch: &Path) -> Result<(), String> {
    use jumpslice_core::encode_snapshot;

    let target = "read(a); read(b); c = a; write(c);";
    let variant = "read(a); read(b); c = b; write(c);";
    let key = content_hash(target);
    let dir = scratch.join("forged-snapshot");
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;

    // Forge: the variant's program wearing the target's source.
    {
        let prog = jumpslice_lang::parse(variant).map_err(|e| format!("variant parses: {e}"))?;
        let session =
            jumpslice_incr::EditSession::try_new(prog).map_err(|e| format!("analyzable: {e}"))?;
        let forged = encode_snapshot(target, session.prog(), session.seed());
        let store = SnapshotStore::open(&dir, 1 << 20).map_err(|e| format!("store opens: {e}"))?;
        store
            .save(key, &forged)
            .map_err(|e| format!("forgery saves: {e}"))?;
    }

    let store = SnapshotStore::open(&dir, 1 << 20).map_err(|e| format!("store reopens: {e}"))?;
    let poisoned = Engine::new(usize::MAX).with_store(store);
    let oracle = Engine::new(usize::MAX);
    let load_req = load_request(target);
    let slice_req = slice_request(&jumpslice_serve::key_string(key), "fig7", 4);

    let restored = poisoned.handle_line(&load_req);
    let result = if !restored.contains(r#""restored":true"#) {
        Err(format!(
            "the forgery should pass every storage-layer check and restore: {restored}"
        ))
    } else {
        oracle.handle_line(&load_req);
        let got = poisoned.handle_line(&slice_req);
        let want = oracle.handle_line(&slice_req);
        if got == want {
            Err(
                "harness MISSED the forged snapshot: served slice is identical to the \
                 direct answer"
                    .to_owned(),
            )
        } else {
            Ok(())
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    result
}
