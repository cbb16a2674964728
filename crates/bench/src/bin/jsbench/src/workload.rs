//! Workloads: the program shapes, the programs drawn from `--seed`, and the
//! request stream each connection sends.
//!
//! A [`Plan`] is a pure function of (workload, seed, scale, stream length):
//! every request line is built before the daemon starts, so program
//! generation stays out of every timed interval and the same seed yields a
//! byte-identical stream ([`Plan::stream_hash`] is stamped on each result).
//! Edits are pre-applied here with `apply_edit`, so the key every edit
//! response must carry and the criteria of the slice after it are known up
//! front too.

use jumpslice_cfg::Cfg;
use jumpslice_incr::{apply_edit, Edit};
use jumpslice_lang::{path_of, print_program, BlockSel, Program, StmtId, StmtKind, StmtPath};
use jumpslice_obs::Json;
use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
use jumpslice_serve::proto::parse_edit;
use jumpslice_serve::{content_hash, key_string};
use jumpslice_testkit::Rng;
use std::sync::Arc;

/// The four traffic mixes. See README.md for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmIde,
    ColdIngest,
    EditLoop,
    RestartRestore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmIde,
        Workload::ColdIngest,
        Workload::EditLoop,
        Workload::RestartRestore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmIde => "warm-ide",
            Workload::ColdIngest => "cold-ingest",
            Workload::EditLoop => "edit-loop",
            Workload::RestartRestore => "restart-restore",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The class of op whose latency the end-to-end metrics report.
    pub fn primary(self) -> Class {
        match self {
            Workload::WarmIde => Class::WarmSlice,
            Workload::ColdIngest => Class::ColdLoad,
            Workload::EditLoop => Class::EditReslice,
            Workload::RestartRestore => Class::Restore,
        }
    }

    /// Whether the measured daemon runs with `--store-dir`.
    pub fn uses_store(self) -> bool {
        self == Workload::RestartRestore
    }
}

/// Program shapes: structured (`s`) or goto-soup (`u`, jump density 0.25),
/// at about 1k or 5k statements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    S1k,
    U1k,
    S5k,
    U5k,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::S1k, Shape::U1k, Shape::S5k, Shape::U5k];

    pub fn name(self) -> &'static str {
        match self {
            Shape::S1k => "s1k",
            Shape::U1k => "u1k",
            Shape::S5k => "s5k",
            Shape::U5k => "u5k",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn generate(self, gen_seed: u64, scale: &Scale) -> Program {
        let size = match self {
            Shape::S1k | Shape::U1k => scale.small,
            Shape::S5k | Shape::U5k => scale.large,
        };
        match self {
            Shape::S1k | Shape::S5k => gen_structured(&GenConfig::sized(gen_seed, size)),
            Shape::U1k | Shape::U5k => {
                gen_unstructured(&GenConfig::sized(gen_seed, size).with_jump_density(0.25))
            }
        }
    }
}

/// What an op does, for latency accounting. Only the workload's
/// [`Workload::primary`] class feeds the end-to-end latency metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Store-filling load + slice on the first daemon of `restart-restore`.
    Fill,
    /// Preload and warm-up before the measured phase.
    Setup,
    /// One single-criterion fig7 `slice` of a loaded, warmed program.
    WarmSlice,
    /// A `slice` with `deadline_ms: 0`, which always degrades to Figure 13.
    Degraded,
    /// `load` of a never-seen program and its first `slice`.
    ColdLoad,
    /// One `edit` and a 4-criterion `slice` of the new key.
    EditReslice,
    /// `load` answered from the snapshot store and a `slice`.
    Restore,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Fill => "fill",
            Class::Setup => "setup",
            Class::WarmSlice => "warm_slice",
            Class::Degraded => "degraded",
            Class::ColdLoad => "cold_load",
            Class::EditReslice => "edit_reslice",
            Class::Restore => "restore",
        }
    }
}

/// Program sizes and counts. [`Scale::FULL`] is the benchmark;
/// [`Scale::SMOKE`] is the 1/50-scale version the tests run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Target statements of the `*1k` shapes.
    pub small: usize,
    /// Target statements of the `*5k` shapes.
    pub large: usize,
    /// Programs per shape preloaded by `warm-ide`.
    pub warm_per_shape: usize,
    /// Programs per shape stored and restored by `restart-restore`.
    pub restore_per_shape: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        small: 1000,
        large: 5000,
        warm_per_shape: 4,
        restore_per_shape: 6,
    };
    #[cfg_attr(not(test), allow(dead_code))]
    pub const SMOKE: Scale = Scale {
        small: 20,
        large: 100,
        warm_per_shape: 1,
        restore_per_shape: 2,
    };
}

/// A program state the oracle can rebuild: step `step` of chain `chain`
/// (step 0 is the generated program, step k the program after k edits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    pub chain: usize,
    pub step: usize,
}

/// What a response must say. The oracle derives the expected values from
/// the [`State`]; nothing here is copied from a daemon answer.
#[derive(Clone, Debug)]
pub enum Check {
    Load {
        state: State,
        restored: bool,
    },
    Slice {
        state: State,
        lines: Vec<usize>,
        degraded: bool,
    },
    Edit {
        state: State,
        path: &'static str,
    },
}

#[derive(Clone, Debug)]
pub struct Req {
    pub line: Arc<str>,
    pub check: Check,
}

/// One operation of a closed-loop client: its requests go out one after
/// another, each after the previous response.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub shape: Shape,
    pub reqs: Vec<Req>,
}

/// A generated program and the edits later applied to it, in order.
#[derive(Clone, Debug)]
pub struct Chain {
    pub shape: Shape,
    pub gen_seed: u64,
    pub edits: Vec<Edit>,
}

/// Which part of a round an op belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Fill,
    Setup,
    Measured,
}

/// Everything one run sends, per connection.
pub struct Plan {
    pub workload: Workload,
    pub scale: Scale,
    pub chains: Vec<Chain>,
    /// Sent to a first daemon that fills the snapshot store
    /// (`restart-restore` only).
    pub fill: [Vec<Op>; 2],
    /// Preloads and warm-ups on the measured daemon.
    pub setup: [Vec<Op>; 2],
    /// The measured closed-loop stream; a round sends a prefix of it.
    pub stream: [Vec<Op>; 2],
}

impl Plan {
    /// Builds the plan; each connection's measured stream holds
    /// `ops_per_conn[c]` ops.
    pub fn build(workload: Workload, seed: u64, scale: Scale, ops_per_conn: [usize; 2]) -> Plan {
        let mut b = Builder {
            seed,
            scale,
            chains: Vec::new(),
        };
        let (fill, setup, stream) = match workload {
            Workload::WarmIde => b.warm_ide(ops_per_conn),
            Workload::ColdIngest => b.cold_ingest(ops_per_conn),
            Workload::EditLoop => b.edit_loop(ops_per_conn),
            Workload::RestartRestore => b.restart_restore(ops_per_conn),
        };
        Plan {
            workload,
            scale,
            chains: b.chains,
            fill,
            setup,
            stream,
        }
    }

    pub fn ops(&self, phase: Phase, conn: usize) -> &[Op] {
        match phase {
            Phase::Fill => &self.fill[conn],
            Phase::Setup => &self.setup[conn],
            Phase::Measured => &self.stream[conn],
        }
    }

    /// FNV-1a 64 over every request line, phase by phase and connection by
    /// connection: equal hashes mean the two runs sent the same stream.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for phase in [&self.fill, &self.setup, &self.stream] {
            for (c, ops) in phase.iter().enumerate() {
                h.write(format!("conn {c}\n").as_bytes());
                for req in ops.iter().flat_map(|op| &op.reqs) {
                    h.write(req.line.as_bytes());
                    h.write(b"\n");
                }
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// An independent seed for sub-stream `tag` of run seed `seed`.
fn derive(seed: u64, tag: u64) -> u64 {
    Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag).next_u64()
}

/// Paper-style line numbering (1-based lexical preorder), built by walking
/// the AST here rather than through `Program::lexical_order`, so the oracle
/// shares no line-numbering code with the daemon it checks.
pub struct Lines {
    order: Vec<StmtId>,
    line_of: Vec<usize>,
}

impl Lines {
    pub fn of(p: &Program) -> Lines {
        fn walk(p: &Program, block: &[StmtId], out: &mut Vec<StmtId>) {
            for &s in block {
                out.push(s);
                match &p.stmt(s).kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(p, then_branch, out);
                        walk(p, else_branch, out);
                    }
                    StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                        walk(p, body, out)
                    }
                    StmtKind::Switch { arms, .. } => {
                        for arm in arms {
                            walk(p, &arm.body, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut order = Vec::with_capacity(p.len());
        walk(p, p.body(), &mut order);
        let mut line_of = vec![0; p.len()];
        for (i, s) in order.iter().enumerate() {
            line_of[s.index()] = i + 1;
        }
        Lines { order, line_of }
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn stmt(&self, line: usize) -> StmtId {
        self.order[line - 1]
    }

    pub fn line(&self, s: StmtId) -> usize {
        self.line_of[s.index()]
    }
}

/// Lines of the reachable `write` statements: the criterion pool.
fn live_writes(p: &Program, cfg: &Cfg, lines: &Lines) -> Vec<usize> {
    let live = cfg.reachable();
    let pool: Vec<usize> = (1..=lines.len())
        .filter(|&l| {
            let s = lines.stmt(l);
            matches!(p.stmt(s).kind, StmtKind::Write { .. }) && live[cfg.node(s).index()]
        })
        .collect();
    if pool.is_empty() {
        vec![lines.len()]
    } else {
        pool
    }
}

fn pick<'a, T>(rng: &mut Rng, pool: &'a [T]) -> &'a T {
    &pool[rng.gen_range(0..pool.len())]
}

/// Up to `k` distinct criteria from `pool`, in draw order.
fn pick_distinct(rng: &mut Rng, pool: &[usize], k: usize) -> Vec<usize> {
    if pool.len() <= k {
        return pool.to_vec();
    }
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let l = *pick(rng, pool);
        if !out.contains(&l) {
            out.push(l);
        }
    }
    out
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Shapes in shuffled blocks of four: every four consecutive ops cover each
/// shape once, so every prefix of a stream (a round replays one) has the
/// same mix, whatever the seed.
#[derive(Default)]
struct ShapeBlocks(Vec<Shape>);

impl ShapeBlocks {
    fn next(&mut self, rng: &mut Rng) -> Shape {
        if self.0.is_empty() {
            self.0 = Shape::ALL.to_vec();
            shuffle(rng, &mut self.0);
        }
        self.0.pop().expect("refilled above")
    }
}

/// A loaded program as the stream builder sees it.
struct Loaded {
    chain: usize,
    shape: Shape,
    key: u64,
    load_line: Arc<str>,
    writes: Vec<usize>,
}

fn load_line(source: String) -> Arc<str> {
    Json::Obj(vec![
        ("op".to_owned(), Json::Str("load".to_owned())),
        ("source".to_owned(), Json::Str(source)),
    ])
    .write_compact()
    .into()
}

fn slice_line(key: u64, criteria: &[usize], degraded: bool) -> Arc<str> {
    let crits: Vec<String> = criteria
        .iter()
        .map(|l| format!(r#"{{"line":{l}}}"#))
        .collect();
    format!(
        r#"{{"op":"slice","program":"{}","algo":"fig7","criteria":[{}]{}}}"#,
        key_string(key),
        crits.join(","),
        if degraded { r#","deadline_ms":0"# } else { "" }
    )
    .into()
}

impl Loaded {
    fn load(&self, restored: bool) -> Req {
        Req {
            line: Arc::clone(&self.load_line),
            check: Check::Load {
                state: self.state(),
                restored,
            },
        }
    }

    fn slice(&self, criteria: Vec<usize>, degraded: bool) -> Req {
        Req {
            line: slice_line(self.key, &criteria, degraded),
            check: Check::Slice {
                state: self.state(),
                lines: criteria,
                degraded,
            },
        }
    }

    fn state(&self) -> State {
        State {
            chain: self.chain,
            step: 0,
        }
    }
}

type Phases = ([Vec<Op>; 2], [Vec<Op>; 2], [Vec<Op>; 2]);

struct Builder {
    seed: u64,
    scale: Scale,
    chains: Vec<Chain>,
}

impl Builder {
    fn add(&mut self, shape: Shape, tag: u64) -> Loaded {
        let gen_seed = derive(self.seed, tag);
        let prog = shape.generate(gen_seed, &self.scale);
        self.chains.push(Chain {
            shape,
            gen_seed,
            edits: Vec::new(),
        });
        loaded(self.chains.len() - 1, shape, &prog)
    }

    /// Load + one-criterion warm slice of each program, split across the
    /// connections.
    fn warm_up(progs: &[Loaded], class: Class) -> [Vec<Op>; 2] {
        let mut out = [Vec::new(), Vec::new()];
        for (i, p) in progs.iter().enumerate() {
            out[i % 2].push(Op {
                class,
                shape: p.shape,
                reqs: vec![p.load(false), p.slice(vec![p.writes[0]], false)],
            });
        }
        out
    }

    fn warm_ide(&mut self, n: [usize; 2]) -> Phases {
        let mut progs = Vec::new();
        for (s, shape) in Shape::ALL.into_iter().enumerate() {
            for i in 0..self.scale.warm_per_shape {
                progs.push(self.add(shape, 100 + (s * 1000 + i) as u64));
            }
        }
        let setup = Self::warm_up(&progs, Class::Setup);
        let stream = [0, 1].map(|c| {
            let mut rng = Rng::seed_from_u64(derive(self.seed, 200 + c as u64));
            let mut shapes = ShapeBlocks::default();
            let mut degraded_at = 0;
            (0..n[c])
                .map(|i| {
                    let shape = shapes.next(&mut rng);
                    let of_shape: Vec<&Loaded> =
                        progs.iter().filter(|p| p.shape == shape).collect();
                    let p = *pick(&mut rng, &of_shape);
                    let line = *pick(&mut rng, &p.writes);
                    // One op in every twenty carries `deadline_ms: 0`.
                    if i % 20 == 0 {
                        degraded_at = i + rng.gen_range(0..20usize);
                    }
                    let degraded = i == degraded_at;
                    Op {
                        class: if degraded {
                            Class::Degraded
                        } else {
                            Class::WarmSlice
                        },
                        shape: p.shape,
                        reqs: vec![p.slice(vec![line], degraded)],
                    }
                })
                .collect()
        });
        ([Vec::new(), Vec::new()], setup, stream)
    }

    fn cold_ingest(&mut self, n: [usize; 2]) -> Phases {
        let mut warm = Vec::new();
        for (s, shape) in Shape::ALL.into_iter().enumerate() {
            for i in 0..4 {
                warm.push(self.add(shape, 300 + (s * 4 + i) as u64));
            }
        }
        let setup = Self::warm_up(&warm, Class::Setup);
        // Every measured op loads a program no daemon has seen. Generation
        // is the costly part of planning, so the two connections' programs
        // are drawn on two threads.
        let (seed, scale) = (self.seed, self.scale);
        let first_chain = [self.chains.len(), self.chains.len() + n[0]];
        let parts = std::thread::scope(|s| {
            let handles = [0, 1].map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::seed_from_u64(derive(seed, 400 + c as u64));
                    let mut shapes = ShapeBlocks::default();
                    let mut chains = Vec::with_capacity(n[c]);
                    let mut ops = Vec::with_capacity(n[c]);
                    for i in 0..n[c] {
                        let shape = shapes.next(&mut rng);
                        let gen_seed = derive(seed, ((c as u64 + 1) << 32) | i as u64);
                        let prog = shape.generate(gen_seed, &scale);
                        chains.push(Chain {
                            shape,
                            gen_seed,
                            edits: Vec::new(),
                        });
                        let p = loaded(first_chain[c] + i, shape, &prog);
                        let line = *pick(&mut rng, &p.writes);
                        ops.push(Op {
                            class: Class::ColdLoad,
                            shape,
                            reqs: vec![p.load(false), p.slice(vec![line], false)],
                        });
                    }
                    (chains, ops)
                })
            });
            handles.map(|h| h.join().expect("program generation does not panic"))
        });
        let stream = parts.map(|(chains, ops)| {
            self.chains.extend(chains);
            ops
        });
        ([Vec::new(), Vec::new()], setup, stream)
    }

    fn edit_loop(&mut self, n: [usize; 2]) -> Phases {
        // Connection c owns programs of two shapes, so connections never
        // race a key, and edits them in turn: `per_turn` edits of each
        // shape, each shape's programs round-robin. A u5k edit costs about
        // a hundred s1k edits, so connection 0 edits s1k eight times per
        // u5k edit, which gives s1k enough samples for a steady median;
        // more programs of the cheap shapes damp per-program differences.
        let owned = [
            [(Shape::S1k, 4), (Shape::U5k, 2)],
            [(Shape::S5k, 4), (Shape::U1k, 4)],
        ];
        let per_turn = [[8, 1], [1, 1]];
        let mut setup = [Vec::new(), Vec::new()];
        let mut editors: Vec<[Vec<Editor>; 2]> = Vec::new();
        for (c, shapes) in owned.iter().enumerate() {
            let mut mine = [Vec::new(), Vec::new()];
            for (k, &(shape, count)) in shapes.iter().enumerate() {
                for i in 0..count {
                    let gen_seed = derive(self.seed, 500 + (c * 100 + k * 10 + i) as u64);
                    let prog = shape.generate(gen_seed, &self.scale);
                    self.chains.push(Chain {
                        shape,
                        gen_seed,
                        edits: Vec::new(),
                    });
                    let chain = self.chains.len() - 1;
                    let p = loaded(chain, shape, &prog);
                    let mut rng = Rng::seed_from_u64(derive(self.seed, 600 + chain as u64));
                    let criteria = pick_distinct(&mut rng, &p.writes, 4);
                    setup[c].push(Op {
                        class: Class::Setup,
                        shape,
                        reqs: vec![p.load(false), p.slice(criteria, false)],
                    });
                    mine[k].push(Editor::new(chain, shape, prog, p.key, rng));
                }
            }
            editors.push(mine);
        }
        // Pre-applying u5k edits is the slow part; one thread per connection.
        let streams = std::thread::scope(|s| {
            let handles: Vec<_> = editors
                .iter_mut()
                .zip(n)
                .zip(per_turn)
                .map(|((mine, n), per_turn)| {
                    s.spawn(move || {
                        let turn: Vec<usize> = (0..2)
                            .flat_map(|k| std::iter::repeat_n(k, per_turn[k]))
                            .collect();
                        let mut edited = [0usize; 2];
                        (0..n)
                            .map(|i| {
                                let k = turn[i % turn.len()];
                                let e = edited[k] % mine[k].len();
                                edited[k] += 1;
                                mine[k][e].next_op()
                            })
                            .collect::<Vec<Op>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("edit planning does not panic"))
                .collect::<Vec<_>>()
        });
        for editor in editors.into_iter().flatten().flatten() {
            self.chains[editor.chain].edits = editor.edits;
        }
        let mut streams = streams.into_iter();
        let stream = [0, 1].map(|_| streams.next().expect("one stream per connection"));
        ([Vec::new(), Vec::new()], setup, stream)
    }

    fn restart_restore(&mut self, n: [usize; 2]) -> Phases {
        let mut progs = Vec::new();
        for (s, shape) in Shape::ALL.into_iter().enumerate() {
            for i in 0..self.scale.restore_per_shape {
                progs.push(self.add(shape, 700 + (s * 1000 + i) as u64));
            }
        }
        let fill = Self::warm_up(&progs, Class::Fill);
        let stream = [0, 1].map(|c| {
            let mut rng = Rng::seed_from_u64(derive(self.seed, 800 + c as u64));
            // Each connection restores its half of every shape's programs,
            // one shape block at a time, each shape's programs in turn.
            let mine: Vec<&Loaded> = progs.iter().skip(c).step_by(2).collect();
            let mut shapes = ShapeBlocks::default();
            let mut restored = [0usize; 4];
            (0..n[c])
                .map(|_| {
                    let shape = shapes.next(&mut rng);
                    let of_shape: Vec<&Loaded> =
                        mine.iter().copied().filter(|p| p.shape == shape).collect();
                    let p = of_shape[restored[shape.index()] % of_shape.len()];
                    restored[shape.index()] += 1;
                    let line = *pick(&mut rng, &p.writes);
                    Op {
                        class: Class::Restore,
                        shape: p.shape,
                        reqs: vec![p.load(true), p.slice(vec![line], false)],
                    }
                })
                .collect()
        });
        (fill, [Vec::new(), Vec::new()], stream)
    }
}

fn loaded(chain: usize, shape: Shape, prog: &Program) -> Loaded {
    let source = print_program(prog);
    let key = content_hash(&source);
    Loaded {
        chain,
        shape,
        key,
        load_line: load_line(source),
        writes: live_writes(prog, &Cfg::build(prog), &Lines::of(prog)),
    }
}

/// The edit mix, one cycle of ten: 7 `replace_expr`, 2 insert/delete
/// (alternating, so sizes stay steady) and 1 `toggle_jump` (alternately
/// turning a jump into `;` and back). Expression patches are a clear
/// majority, so the median op sits well inside one invalidation mode
/// instead of on the boundary between two.
const CYCLE: [EditKind; 10] = {
    use EditKind::{Replace as R, Structural as S, Toggle as T};
    [R, S, R, R, R, T, R, S, R, R]
};

#[derive(Clone, Copy)]
enum EditKind {
    Replace,
    Structural,
    Toggle,
}

/// Walks one program through its edit script, pre-validating every edit
/// exactly as `EditSession::apply` would (`apply_edit`, then every
/// statement must still reach the exit).
struct Editor {
    chain: usize,
    shape: Shape,
    prog: Program,
    key: u64,
    rng: Rng,
    edits: Vec<Edit>,
    /// Top-level slot of the statement the last insert added.
    inserted: Option<usize>,
    /// A jump turned into `;`, and the wire form of the jump it was.
    toggled: Option<(StmtPath, Json)>,
}

impl Editor {
    fn new(chain: usize, shape: Shape, prog: Program, key: u64, rng: Rng) -> Editor {
        Editor {
            chain,
            shape,
            prog,
            key,
            rng,
            edits: Vec::new(),
            inserted: None,
            toggled: None,
        }
    }

    fn next_op(&mut self) -> Op {
        let old_key = self.key;
        let (payload, path) = match CYCLE[self.edits.len() % CYCLE.len()] {
            EditKind::Replace => self.replace(),
            EditKind::Structural => self.structural(),
            EditKind::Toggle => self.toggle().unwrap_or_else(|| self.replace()),
        };
        let edit = parse_edit(&payload).expect("planned edits use the wire syntax");
        let applied = apply_edit(&self.prog, &edit).expect("planned edits resolve");
        let cfg = Cfg::build(&applied.prog);
        assert!(
            cfg.all_reach_exit(),
            "planned edits keep the program analyzable"
        );
        self.prog = applied.prog;
        self.edits.push(edit);
        self.key = content_hash(&print_program(&self.prog));
        let state = State {
            chain: self.chain,
            step: self.edits.len(),
        };
        let lines = Lines::of(&self.prog);
        let criteria = pick_distinct(&mut self.rng, &live_writes(&self.prog, &cfg, &lines), 4);
        let edit_line = Json::Obj(vec![
            ("op".to_owned(), Json::Str("edit".to_owned())),
            ("program".to_owned(), Json::Str(key_string(old_key))),
            ("edit".to_owned(), payload),
        ])
        .write_compact();
        Op {
            class: Class::EditReslice,
            shape: self.shape,
            reqs: vec![
                Req {
                    line: edit_line.into(),
                    check: Check::Edit { state, path },
                },
                Req {
                    line: slice_line(self.key, &criteria, false),
                    check: Check::Slice {
                        state,
                        lines: criteria,
                        degraded: false,
                    },
                },
            ],
        }
    }

    fn expr_text(&mut self) -> String {
        let rng = &mut self.rng;
        let mut var = || format!("v{}", rng.gen_range(0..4usize));
        let (a, b) = (var(), var());
        match self.rng.gen_range(0..4u32) {
            0 => format!("{a} + {}", self.rng.gen_range(1..9i64)),
            1 => format!("{a} * {b}"),
            2 => format!("{a} - {b} + {}", self.rng.gen_range(1..9i64)),
            _ => format!("{}", self.rng.gen_range(0..9i64)),
        }
    }

    fn replace(&mut self) -> (Json, &'static str) {
        let lines = Lines::of(&self.prog);
        let targets: Vec<StmtId> = (1..=lines.len())
            .map(|l| lines.stmt(l))
            .filter(|&s| {
                matches!(
                    self.prog.stmt(s).kind,
                    StmtKind::Assign { .. } | StmtKind::Write { .. }
                )
            })
            .collect();
        let target = *pick(&mut self.rng, &targets);
        let at = path_of(&self.prog, target).expect("lexical statements have paths");
        let payload = Json::Obj(vec![
            ("kind".to_owned(), Json::Str("replace_expr".to_owned())),
            ("path".to_owned(), path_json(&at)),
            ("expr".to_owned(), Json::Str(self.expr_text())),
        ]);
        (payload, "expr_patch")
    }

    fn structural(&mut self) -> (Json, &'static str) {
        let payload = match self.inserted.take() {
            None => {
                let slot = self.rng.gen_range(0..self.prog.body().len() + 1);
                self.shift_toggled(slot, 1);
                self.inserted = Some(slot);
                let var = format!("v{}", self.rng.gen_range(0..4usize));
                Json::Obj(vec![
                    ("kind".to_owned(), Json::Str("insert".to_owned())),
                    ("path".to_owned(), path_json(&StmtPath::root(slot))),
                    (
                        "stmt".to_owned(),
                        Json::Obj(vec![
                            ("kind".to_owned(), Json::Str("assign".to_owned())),
                            ("var".to_owned(), Json::Str(var)),
                            ("expr".to_owned(), Json::Str(self.expr_text())),
                        ]),
                    ),
                ])
            }
            Some(slot) => {
                self.shift_toggled(slot + 1, -1);
                Json::Obj(vec![
                    ("kind".to_owned(), Json::Str("delete".to_owned())),
                    ("path".to_owned(), path_json(&StmtPath::root(slot))),
                ])
            }
        };
        (payload, "seeded_resolve")
    }

    /// Keeps the toggled statement's path valid across a top-level insert
    /// (`delta` 1 at `slot`) or delete (`delta` -1 above `slot`).
    fn shift_toggled(&mut self, slot: usize, delta: isize) {
        if let Some((path, _)) = &mut self.toggled {
            let first = &mut path.steps[0].index;
            if *first >= slot {
                *first = first
                    .checked_add_signed(delta)
                    .expect("paths stay in range");
            }
        }
    }

    /// Turns a random jump into `;`, or the last one back. `None` when the
    /// program has no jump whose removal keeps it analyzable.
    fn toggle(&mut self) -> Option<(Json, &'static str)> {
        let toggle = |at: &StmtPath, jump: Json| {
            Json::Obj(vec![
                ("kind".to_owned(), Json::Str("toggle_jump".to_owned())),
                ("path".to_owned(), path_json(at)),
                ("jump".to_owned(), jump),
            ])
        };
        if let Some((at, jump)) = self.toggled.take() {
            return Some((toggle(&at, jump), "full_rebuild"));
        }
        let lines = Lines::of(&self.prog);
        let mut jumps: Vec<(StmtId, Json)> = (1..=lines.len())
            .map(|l| lines.stmt(l))
            .filter_map(|s| {
                let jump = match &self.prog.stmt(s).kind {
                    StmtKind::Goto { target } => Json::Obj(vec![(
                        "goto".to_owned(),
                        Json::Str(self.prog.label_str(*target).to_owned()),
                    )]),
                    StmtKind::Break => Json::Str("break".to_owned()),
                    StmtKind::Continue => Json::Str("continue".to_owned()),
                    StmtKind::Return { value: None } => Json::Str("return".to_owned()),
                    _ => return None,
                };
                Some((s, jump))
            })
            .collect();
        shuffle(&mut self.rng, &mut jumps);
        for (s, jump) in jumps {
            let at = path_of(&self.prog, s).expect("lexical statements have paths");
            let payload = toggle(&at, Json::Str("break".to_owned()));
            let edit = parse_edit(&payload).expect("wire syntax");
            let valid =
                apply_edit(&self.prog, &edit).is_ok_and(|a| Cfg::build(&a.prog).all_reach_exit());
            if valid {
                self.toggled = Some((at, jump));
                return Some((payload, "full_rebuild"));
            }
        }
        None
    }
}

fn path_json(at: &StmtPath) -> Json {
    Json::Arr(
        at.steps
            .iter()
            .map(|step| {
                let sel = match step.block {
                    BlockSel::Body => Json::Str("body".to_owned()),
                    BlockSel::Then => Json::Str("then".to_owned()),
                    BlockSel::Else => Json::Str("else".to_owned()),
                    BlockSel::Arm(i) => Json::Obj(vec![("arm".to_owned(), Json::Num(i as f64))]),
                };
                Json::Arr(vec![sel, Json::Num(step.index as f64)])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(plan: &Plan) -> Vec<Arc<str>> {
        [&plan.fill, &plan.setup, &plan.stream]
            .into_iter()
            .flat_map(|phase| phase.iter().flatten())
            .flat_map(|op| op.reqs.iter().map(|r| Arc::clone(&r.line)))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7, Scale::SMOKE, [12, 12]);
            let b = Plan::build(w, 7, Scale::SMOKE, [12, 12]);
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_eq!(a.stream_hash(), b.stream_hash(), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_gives_another_program_set() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7, Scale::SMOKE, [12, 12]);
            let b = Plan::build(w, 8, Scale::SMOKE, [12, 12]);
            let programs = |p: &Plan| -> Vec<String> {
                p.chains
                    .iter()
                    .map(|c| print_program(&c.shape.generate(c.gen_seed, &p.scale)))
                    .collect()
            };
            assert_ne!(programs(&a), programs(&b), "{}", w.name());
            assert_ne!(a.stream_hash(), b.stream_hash(), "{}", w.name());
        }
    }

    #[test]
    fn lexical_lines_match_the_paper_numbering() {
        let p = jumpslice_lang::parse("x = 1; while (x < 3) { x = x + 1; } write(x);").unwrap();
        let lines = Lines::of(&p);
        for line in 1..=lines.len() {
            assert_eq!(lines.stmt(line), p.at_line(line));
            assert_eq!(lines.line(p.at_line(line)), line);
        }
    }

    #[test]
    fn edit_scripts_cycle_through_every_invalidation_path() {
        let plan = Plan::build(Workload::EditLoop, 3, Scale::SMOKE, [40, 200]);
        let paths: Vec<&str> = plan.stream[1]
            .iter()
            .filter_map(|op| match &op.reqs[0].check {
                Check::Edit { path, .. } => Some(*path),
                _ => None,
            })
            .collect();
        for want in ["expr_patch", "seeded_resolve", "full_rebuild"] {
            assert!(paths.contains(&want), "{want} missing from {paths:?}");
        }
    }
}
