//! Workload inputs, generated from the benchmark seed and nothing else.
//!
//! The program under test (`Server`, `ThreadPool`, `fig2::run_insets`)
//! is handed only what this module returns: request lines, edit
//! scripts, DAGs and — for fig2, where the seed *is* the input —
//! `Fig2Params`. The same seed gives byte-identical inputs; a different
//! seed gives different inputs with the same shape and kind mix.
//!
//! Each serve request carries the answer the oracle expects, computed
//! here on the generated `TaskSet` before it is written to `.rtp` text
//! (and dropped right after, so that the process's peak memory is the
//! server's and not the generator's).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_bench::fig2::Fig2Params;
use rtpool_bench::serve::protocol::{
    encode_request, Request, RequestBody, DEFAULT_PRIORITY, MAX_PRIORITY,
};
use rtpool_bench::serve::Interner;
use rtpool_core::textfmt::write_task_set;
use rtpool_core::{Task, TaskSet};
use rtpool_gen::{DagGenConfig, DagScratch, TaskSetConfig};
use rtpool_graph::{Dag, DagBuilder, NodeId};

use crate::oracle;

/// Seed used when `--seed` is not given; the fig2 golden digest is
/// committed for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// Pool size the admission requests of `admit-cold` ask for, and the
/// reference `m` of the generated utilization range.
pub const SERVE_M: usize = 8;
/// Pool sizes `admit-resident` rotates over (per-`m` memo entries).
pub const RESIDENT_MS: [usize; 3] = [4, 6, 8];
/// Distinct sets of the `admit-cold` cycle: four times the interner, so
/// its LRU never holds the set a request names, and short enough that a
/// time-boxed part of the phase holds several whole cycles.
pub const COLD_SETS: usize = 1024;
/// Base sets `admit-resident` keeps resident.
pub const RESIDENT_BASES: usize = 64;
/// Fixed edit scripts per resident base set.
pub const EDITS_PER_BASE: usize = 8;
/// Warm-up requests every serve workload sends before the clock starts
/// (at least; `admit-resident` sends one whole cycle).
pub const WARMUP_REQUESTS: usize = 256;
/// Admitted sets kept for the simulator replay.
pub const SIM_REPLAYS: usize = 64;

/// What a request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Inline `.rtp` source.
    Source,
    /// Content hash of a resident set.
    Hash,
    /// Base hash plus an edit script.
    Edit,
}

impl OpKind {
    /// All kinds, in ledger order.
    pub const ALL: [OpKind; 3] = [OpKind::Source, OpKind::Hash, OpKind::Edit];

    /// Lower-case name used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Source => "source",
            OpKind::Hash => "hash",
            OpKind::Edit => "edit",
        }
    }
}

/// One request of a serve stream, with the answer the oracle expects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOp {
    /// The request id inside `line`: the position in its stream.
    pub id: u64,
    /// The JSON line handed to `Server::submit`.
    pub line: String,
    /// Request kind.
    pub kind: OpKind,
    /// Pool size asked for.
    pub m: usize,
    /// For an `Edit`: index into [`ServeInputs::edits`].
    pub edit: Option<usize>,
    /// Oracle: the set is admitted on `m` threads.
    pub admit: bool,
    /// Oracle: content hash of the set the verdict is about.
    pub hash: u64,
}

/// A single-node WCET edit of one base set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WcetEdit {
    /// Index of the base set in [`ServeInputs::bases`].
    pub base: usize,
    /// Task index within the base set.
    pub task: usize,
    /// Node index within the task's graph.
    pub node: usize,
    /// The new WCET.
    pub wcet: u64,
}

impl WcetEdit {
    /// The wire form, `wcet:T.N=W`.
    #[must_use]
    pub fn script(&self) -> String {
        format!("wcet:{}.{}={}", self.task, self.node, self.wcet)
    }
}

/// Everything a serve workload feeds the server.
#[derive(Clone, Debug)]
pub struct ServeInputs {
    /// Interner capacity the server is started with.
    pub interner_cap: usize,
    /// The resident base sets (`admit-resident` only), as generated.
    pub bases: Vec<TaskSet>,
    /// The edits behind the `Edit` operations (`admit-resident` only).
    pub edits: Vec<WcetEdit>,
    /// Requests sent first in set-up to make base sets resident.
    pub prime: Vec<ServeOp>,
    /// Warm-up requests sent after `prime`, before the clock starts.
    pub warmup: Vec<ServeOp>,
    /// One cycle of the measured stream.
    pub stream: Vec<ServeOp>,
    /// Up to [`SIM_REPLAYS`] sets the oracle admits, with their `m`, for
    /// the simulator replay.
    pub replay: Vec<(TaskSet, usize)>,
}

impl ServeInputs {
    /// Every byte the server will see, for the determinism tests.
    #[must_use]
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for op in self.prime.iter().chain(&self.warmup).chain(&self.stream) {
            out.extend_from_slice(op.line.as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// Generates the `i`-th set of a stream. The task count rotates over
/// {2, 4, 8} by position instead of being drawn, so that every seed
/// yields the same share of small, medium and large requests (request
/// cost is proportional to size, and 64 draws would not average out).
fn generate_set(i: usize, rng: &mut StdRng, scratch: &mut DagScratch) -> TaskSet {
    let n = [2usize, 4, 8][i % 3];
    let m = SERVE_M as f64;
    let u = rng.gen_range(0.25 * m..0.75 * m);
    TaskSetConfig::new(n, u, DagGenConfig::default())
        .generate_with(rng, scratch)
        .expect("the default DAG parameters without a window cannot fail")
}

fn request(id: usize, m: usize, body: RequestBody) -> String {
    encode_request(&Request {
        id: id as u64,
        m,
        // Priorities cycle over the levels the breaker never sheds
        // (>= 4): on a shared host one request can be descheduled for
        // more than 32.8 ms, which the breaker's log2 window rounds up
        // past its 50 ms SLO, and the 64 sheds that follow would be host
        // noise counted as failures. Whether the breaker opened is
        // reported as a layer metric instead.
        priority: DEFAULT_PRIORITY + (id % usize::from(MAX_PRIORITY - DEFAULT_PRIORITY + 1)) as u8,
        deadline_us: 0,
        body,
    })
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `admit-cold`: 1 024 distinct sets as inline sources against an
/// interner of 256, so every request misses.
#[must_use]
pub fn admit_cold(seed: u64) -> ServeInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = DagScratch::new();
    let mut replay = Vec::new();
    let stream: Vec<ServeOp> = (0..COLD_SETS)
        .map(|i| {
            let set = generate_set(i, &mut rng, &mut scratch);
            let op = ServeOp {
                id: i as u64,
                line: request(i, SERVE_M, RequestBody::Source(write_task_set(&set))),
                kind: OpKind::Source,
                m: SERVE_M,
                edit: None,
                admit: oracle::admits(&set, SERVE_M),
                hash: Interner::hash_set(&set),
            };
            if op.admit && replay.len() < SIM_REPLAYS {
                replay.push((set, SERVE_M));
            }
            op
        })
        .collect();
    // Warm up on the tail of the cycle: the 256 sets it leaves resident
    // are the ones the measured stream reaches last, long after they
    // have been evicted again.
    let warmup = stream[COLD_SETS - WARMUP_REQUESTS..].to_vec();
    ServeInputs {
        interner_cap: 256,
        bases: Vec::new(),
        edits: Vec::new(),
        prime: Vec::new(),
        warmup,
        stream,
        replay,
    }
}

/// Rebuilds `dag` node by node with one WCET changed — the independent
/// construction of an edited set (the server goes through `Dag::edit`).
fn rebuild_with_wcet(dag: &Dag, node: usize, wcet: u64) -> Dag {
    let mut b = DagBuilder::with_capacities(dag.node_count(), dag.edge_count());
    for v in dag.node_ids() {
        b.add_node(if v.index() == node { wcet } else { dag.wcet(v) });
    }
    for v in dag.node_ids() {
        for &s in dag.successors(v) {
            b.add_edge(v, s).expect("edge of a valid graph");
        }
    }
    for region in dag.blocking_regions() {
        b.blocking_pair(region.fork(), region.join())
            .expect("blocking pair of a valid graph");
    }
    b.build().expect("a WCET change keeps the graph valid")
}

fn edited_set(base: &TaskSet, edit: &WcetEdit) -> TaskSet {
    let tasks = base
        .iter()
        .map(|(id, task)| {
            if id.index() == edit.task {
                let dag = rebuild_with_wcet(task.dag(), edit.node, edit.wcet);
                Task::new(dag, task.period(), task.deadline()).expect("timing unchanged")
            } else {
                task.clone()
            }
        })
        .collect();
    TaskSet::new(tasks)
}

/// `admit-resident`: 64 resident base sets; per cycle 30 % `hash`
/// requests, 50 % `edit` requests from 8 fixed scripts per base, 20 %
/// verbatim `source` resubmissions. Working set 576 sets, never evicts.
#[must_use]
pub fn admit_resident(seed: u64) -> ServeInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = DagScratch::new();
    let bases: Vec<TaskSet> = (0..RESIDENT_BASES)
        .map(|i| generate_set(i, &mut rng, &mut scratch))
        .collect();
    let sources: Vec<String> = bases.iter().map(write_task_set).collect();

    let mut edits = Vec::with_capacity(RESIDENT_BASES * EDITS_PER_BASE);
    for (base, set) in bases.iter().enumerate() {
        let mut seen: Vec<(usize, usize)> = Vec::new();
        while seen.len() < EDITS_PER_BASE {
            let task = rng.gen_range(0..set.len());
            let dag = set.as_slice()[task].dag();
            let node = rng.gen_range(0..dag.node_count());
            if seen.contains(&(task, node)) {
                continue;
            }
            seen.push((task, node));
            let old = dag.wcet(NodeId::from_index(node));
            let mut wcet = rng.gen_range(1..=100u64);
            if wcet == old {
                wcet = old % 100 + 1;
            }
            edits.push(WcetEdit {
                base,
                task,
                node,
                wcet,
            });
        }
    }
    let hashes: Vec<u64> = bases.iter().map(Interner::hash_set).collect();
    let edited: Vec<TaskSet> = edits
        .iter()
        .map(|e| edited_set(&bases[e.base], e))
        .collect();
    // Every set a verdict can be about: the bases, then the edited sets.
    let sets: Vec<&TaskSet> = bases.iter().chain(&edited).collect();
    let set_hashes: Vec<u64> = sets.iter().map(|set| Interner::hash_set(set)).collect();

    // Ten operations per base and round — 3 hash, 5 edit, 2 source —
    // over 8 rounds, so each of a base's 8 scripts is sent 5 times. The
    // shares put the median operation well inside the `edit` mode and
    // the 95th percentile well inside the `source` mode; at 50 % `hash`
    // the median would sit on the edge between two modes and jump from
    // one to the other on a 2 % change.
    #[derive(Clone, Copy)]
    enum Slot {
        Hash(usize),
        Edit(usize),
        Source(usize),
    }
    let mut slots = Vec::with_capacity(RESIDENT_BASES * EDITS_PER_BASE * 10);
    for base in 0..RESIDENT_BASES {
        for round in 0..EDITS_PER_BASE {
            slots.extend([Slot::Hash(base); 3]);
            for k in 0..5 {
                slots.push(Slot::Edit(
                    base * EDITS_PER_BASE + (5 * round + k) % EDITS_PER_BASE,
                ));
            }
            slots.extend([Slot::Source(base); 2]);
        }
    }
    shuffle(&mut rng, &mut slots);
    // The verdict of every (set, m) pair is computed once.
    let mut verdicts = std::collections::HashMap::new();
    let mut replay = Vec::new();
    let stream: Vec<ServeOp> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let m = RESIDENT_MS[i % RESIDENT_MS.len()];
            let (kind, body, set, edit) = match *slot {
                Slot::Hash(b) => (OpKind::Hash, RequestBody::Hash(hashes[b]), b, None),
                Slot::Source(b) => (
                    OpKind::Source,
                    RequestBody::Source(sources[b].clone()),
                    b,
                    None,
                ),
                Slot::Edit(e) => (
                    OpKind::Edit,
                    RequestBody::Edit {
                        base: hashes[edits[e].base],
                        script: edits[e].script(),
                    },
                    RESIDENT_BASES + e,
                    Some(e),
                ),
            };
            let admit = *verdicts.entry((set, m)).or_insert_with(|| {
                let admit = oracle::admits(sets[set], m);
                if admit && replay.len() < SIM_REPLAYS {
                    replay.push((sets[set].clone(), m));
                }
                admit
            });
            ServeOp {
                id: i as u64,
                line: request(i, m, body),
                kind,
                m,
                edit,
                admit,
                hash: set_hashes[set],
            }
        })
        .collect();
    let prime = (0..RESIDENT_BASES)
        .map(|b| ServeOp {
            id: b as u64,
            line: request(b, SERVE_M, RequestBody::Source(sources[b].clone())),
            kind: OpKind::Source,
            m: SERVE_M,
            edit: None,
            admit: oracle::admits(&bases[b], SERVE_M),
            hash: hashes[b],
        })
        .collect();
    ServeInputs {
        interner_cap: 1024,
        bases,
        edits,
        prime,
        // One whole cycle: afterwards every (set, m) pair the stream
        // asks about is memoized and the measured cycles do equal work.
        warmup: stream.clone(),
        stream,
        replay,
    }
}

/// Which executor DAG a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecShape {
    /// `source → 256 × wcet-1 → sink`: no blocking, dispatch only.
    Flat,
    /// Eight Figure-1(a) stages in series, each two parallel blocking
    /// fork-joins of three children: 89 nodes, `b̄ = 2`.
    Blocking,
}

/// Width of the flat DAG's middle layer.
pub const FLAT_WIDTH: usize = 256;
/// Stages of the blocking DAG.
pub const BLOCKING_STAGES: usize = 8;

/// An executor workload's input: the graph every job runs.
#[derive(Clone, Debug)]
pub struct ExecInputs {
    /// The shape generated.
    pub shape: ExecShape,
    /// The graph handed to `ThreadPool::run`.
    pub dag: Dag,
}

impl ExecInputs {
    /// The graph in `.rtp` text form, for the determinism tests.
    #[must_use]
    pub fn fingerprint(&self) -> Vec<u8> {
        let task = Task::with_implicit_deadline(self.dag.clone(), 1_000_000).expect("period > 0");
        write_task_set(&TaskSet::new(vec![task])).into_bytes()
    }
}

/// Generates an executor DAG. The shape is fixed by the workload; the
/// seed decides the order in which parallel siblings are declared (and
/// so their node ids and initial queue order), which the executor must
/// not care about.
#[must_use]
pub fn exec(shape: ExecShape, seed: u64) -> ExecInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new();
    match shape {
        ExecShape::Flat => {
            let source = b.add_node(1);
            let mut middle: Vec<NodeId> = (0..FLAT_WIDTH).map(|_| b.add_node(1)).collect();
            let sink = b.add_node(1);
            shuffle(&mut rng, &mut middle);
            for v in middle {
                b.add_edge(source, v).expect("fresh nodes");
                b.add_edge(v, sink).expect("fresh nodes");
            }
        }
        ExecShape::Blocking => {
            let mut tail = b.add_node(1);
            for _ in 0..BLOCKING_STAGES {
                let mut regions = [
                    b.fork_join(1, &[1, 1, 1], 1, true).expect("fresh nodes"),
                    b.fork_join(1, &[1, 1, 1], 1, true).expect("fresh nodes"),
                ];
                shuffle(&mut rng, &mut regions);
                let next = b.add_node(1);
                for (fork, join) in regions {
                    b.add_edge(tail, fork).expect("fresh nodes");
                    b.add_edge(join, next).expect("fresh nodes");
                }
                tail = next;
            }
        }
    }
    ExecInputs {
        shape,
        dag: b.build().expect("the shapes are valid models"),
    }
}

/// Samples per point of a measured fig2 sweep (46 points per call).
pub const FIG2_SETS_PER_POINT: usize = 8;
/// Leading calls of the stream whose series the oracle knows exactly
/// (from a 1-thread pool) and that the golden file pins.
pub const FIG2_PINNED: usize = 8;

/// `fig2-sweep`: the parameters of call `k` of the stream. Every call
/// sweeps a seed of its own (`S + k`), so a run averages over hundreds
/// of sweep seeds and its numbers do not hinge on which few it drew.
/// The seed is the input of this path.
#[must_use]
pub fn fig2(seed: u64, k: usize) -> Fig2Params {
    Fig2Params {
        sets_per_point: FIG2_SETS_PER_POINT,
        seed: seed.wrapping_add(k as u64),
        threads: 2,
    }
}
