//! Property-based tests for the analysis crate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtpool_core::analysis::global::{self, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{self, PartitionStrategy};
use rtpool_core::partition::{algorithm1, worst_fit};
use rtpool_core::{deadlock, textfmt};
use rtpool_core::{SyncBackend, Task, TaskId, TaskSet};
use rtpool_gen::{BlockingPolicy, DagGenConfig, TaskSetConfig};
use rtpool_graph::{Dag, NodeId};
use rtpool_oracle::shapes::fork_join_star;

/// `rtpool_oracle::shapes::fork_join_star` as a `Dag`: parallel
/// fork-joins between a source and a sink, each blocking with
/// probability one half when `blocking` is set.
fn star_dag(seed: u64, max_regions: usize, blocking: bool) -> Dag {
    let s = fork_join_star(seed, max_regions, blocking);
    let ids = |l: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
        let v = NodeId::from_index;
        l.iter().map(|&(a, b)| (v(a), v(b))).collect()
    };
    Dag::from_lists(&s.wcets, &ids(&s.edges), &ids(&s.pairs)).unwrap()
}

proptest! {
    /// b̄ upper-bounds the exact antichain of suspended forks: the
    /// paper's bound can be pessimistic but never optimistic.
    #[test]
    fn delay_bound_dominates_antichain(seed in any::<u64>(), regions in 1usize..6) {
        let dag = star_dag(seed, regions, true);
        prop_assert!(dag.delay_profile().max_delay_count() >= dag.max_blocking_antichain().len());
    }

    /// Whenever the l̄ certificate proves deadlock freedom, the exact
    /// antichain check agrees.
    #[test]
    fn certificate_is_sound(seed in any::<u64>(), regions in 1usize..6, m in 1usize..9) {
        let dag = star_dag(seed, regions, true);
        if deadlock::concurrency_floor(&dag, m) > 0 {
            prop_assert!(deadlock::check_global(&dag, m).is_deadlock_free());
        }
    }

    /// Algorithm 1 outputs always satisfy the extended Eq. 3 and Lemma 3.
    #[test]
    fn algorithm1_is_delay_free(seed in any::<u64>(), regions in 1usize..5, m in 2usize..9) {
        let dag = star_dag(seed, regions, true);
        if let Ok(mapping) = algorithm1(&dag, m) {
            deadlock::check_mapping_delay_free(&dag, &mapping).unwrap();
            prop_assert!(deadlock::check_partitioned(&dag, m, &mapping).is_deadlock_free());
            // Every node mapped in range; loads sum to the volume.
            prop_assert_eq!(mapping.loads(&dag).iter().sum::<u64>(), dag.volume());
        }
    }

    /// If the exact deadlock check says freedom is impossible (antichain
    /// >= m), Algorithm 1 must fail too (it cannot create concurrency).
    #[test]
    fn algorithm1_fails_when_concurrency_exhausted(
        seed in any::<u64>(), regions in 1usize..6, m in 1usize..5
    ) {
        let dag = star_dag(seed, regions, true);
        if !deadlock::check_global(&dag, m).is_deadlock_free() {
            prop_assert!(algorithm1(&dag, m).is_err());
        }
    }

    /// Worst-fit covers all nodes and balances no worse than 1 max-node
    /// beyond perfect balance.
    #[test]
    fn worst_fit_covers_and_balances(seed in any::<u64>(), regions in 1usize..5, m in 1usize..9) {
        let dag = star_dag(seed, regions, true);
        let mapping = worst_fit(&dag, m);
        let loads = mapping.loads(&dag);
        prop_assert_eq!(loads.iter().sum::<u64>(), dag.volume());
        let max_item = dag.node_ids().map(|v| dag.wcet(v)).max().unwrap();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        // Worst-fit never lets the gap exceed ~2 items (fork+join pairs
        // are placed together, so the bound is twice the max node).
        prop_assert!(max - min <= 2 * max_item);
    }

    /// The limited-concurrency global test is never more optimistic than
    /// the Melani baseline.
    #[test]
    fn limited_global_test_dominated_by_full(
        seed in any::<u64>(), regions in 1usize..4, m in 2usize..9, period in 500u64..5_000
    ) {
        let dag = star_dag(seed, regions, true);
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, period).unwrap()]);
        let full = global::analyze(&set, m, ConcurrencyModel::Full);
        let limited = global::analyze(&set, m, ConcurrencyModel::Limited);
        if limited.is_schedulable() {
            prop_assert!(full.is_schedulable());
            let rf = full.verdict(TaskId(0)).response_time().unwrap();
            let rl = limited.verdict(TaskId(0)).response_time().unwrap();
            prop_assert!(rf <= rl);
        }
    }

    /// Global RTA bounds are monotone: shrinking the period (more
    /// pressure from a high-priority task) never shrinks a low-priority
    /// response time.
    #[test]
    fn global_rta_monotone_in_hp_pressure(seed in any::<u64>(), m in 2usize..5) {
        let hp_dag = star_dag(seed, 2, true);
        let lp_dag = star_dag(seed.wrapping_add(1), 2, true);
        let mk = |hp_period: u64| {
            TaskSet::new(vec![
                Task::with_implicit_deadline(hp_dag.clone(), hp_period).unwrap(),
                Task::with_implicit_deadline(lp_dag.clone(), 50_000).unwrap(),
            ])
        };
        let loose = global::analyze(&mk(20_000), m, ConcurrencyModel::Full);
        let tight = global::analyze(&mk(5_000), m, ConcurrencyModel::Full);
        if let (Some(rl), Some(rt)) = (
            loose.verdict(TaskId(1)).response_time(),
            tight.verdict(TaskId(1)).response_time(),
        ) {
            prop_assert!(rt >= rl, "tighter hp period must not reduce lp response");
        }
    }

    /// Partitioned analysis: the response time of a single task equals at
    /// least the critical path and at most the deadline when schedulable.
    #[test]
    fn partitioned_bounds_sane(seed in any::<u64>(), regions in 1usize..4, m in 2usize..8) {
        let dag = star_dag(seed, regions, true);
        let len = dag.critical_path_length();
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, 100_000).unwrap()]);
        let (result, _) = partitioned::partition_and_analyze(&set, m, PartitionStrategy::Algorithm1);
        if let Some(r) = result.verdict(TaskId(0)).response_time() {
            prop_assert!(r >= len, "response {r} below critical path {len}");
            prop_assert!(r <= 100_000);
        }
    }

    /// The text format round-trips arbitrary generated task sets.
    #[test]
    fn textfmt_roundtrip(seed in any::<u64>(), regions in 1usize..5, n_tasks in 1usize..4) {
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|i| {
                let dag = star_dag(seed.wrapping_add(i as u64), regions, true);
                let period = dag.volume() * 2 + 1;
                Task::new(dag, period, period - 1).unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks);
        let text = textfmt::write_task_set(&set);
        let back = textfmt::parse_task_set(&text).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for ((_, a), (_, b)) in set.iter().zip(back.iter()) {
            prop_assert_eq!(a.period(), b.period());
            prop_assert_eq!(a.deadline(), b.deadline());
            prop_assert_eq!(a.volume(), b.volume());
            prop_assert_eq!(a.critical_path_length(), b.critical_path_length());
            prop_assert_eq!(a.dag().edge_count(), b.dag().edge_count());
            prop_assert_eq!(
                a.dag().blocking_regions().len(),
                b.dag().blocking_regions().len()
            );
            // Analyses agree on the round-tripped graph.
            prop_assert_eq!(
                a.dag().delay_profile().max_delay_count(),
                b.dag().delay_profile().max_delay_count()
            );
        }
    }

    /// Without blocking regions (`b̄ = 0`) the spin and suspend analyses
    /// agree exactly under every concurrency model: the spin penalty is
    /// pure busy-wait interference, and with nothing to wait on there is
    /// nothing to inflate.
    #[test]
    fn spin_and_suspend_analyses_agree_without_blocking(
        seed in any::<u64>(), regions in 1usize..5, m in 2usize..9, n_tasks in 1usize..4
    ) {
        let mk = |backend: SyncBackend| {
            let tasks: Vec<Task> = (0..n_tasks)
                .map(|i| {
                    let dag = star_dag(seed.wrapping_add(i as u64), regions, false);
                    let period = dag.volume() * 2 + 1;
                    Task::with_implicit_deadline(dag, period).unwrap()
                })
                .collect();
            TaskSet::new(tasks).with_backend(backend)
        };
        prop_assert_eq!(mk(SyncBackend::Suspend).iter().map(|(_, t)| t.dag().max_blocking_antichain().len()).max(), Some(0));
        for model in [
            ConcurrencyModel::Full,
            ConcurrencyModel::Limited,
            ConcurrencyModel::LimitedExact,
        ] {
            let suspend = global::analyze(&mk(SyncBackend::Suspend), m, model);
            let spin = global::analyze(&mk(SyncBackend::Spin), m, model);
            prop_assert_eq!(suspend, spin, "model {:?} diverged on a b\u{304} = 0 set", model);
        }
    }

    /// The backend directive round-trips through the `.rtp` header
    /// syntax: spin sets emit `backend spin`, suspend sets emit no
    /// directive at all (the pre-backend format), and parsing restores
    /// the exact backend.
    #[test]
    fn backend_roundtrips_through_textfmt(
        seed in any::<u64>(), regions in 1usize..4, spin in any::<bool>()
    ) {
        let backend = if spin { SyncBackend::Spin } else { SyncBackend::Suspend };
        let dag = star_dag(seed, regions, true);
        let period = dag.volume() * 2 + 1;
        let set = TaskSet::new(vec![Task::with_implicit_deadline(dag, period).unwrap()])
            .with_backend(backend);
        let text = textfmt::write_task_set(&set);
        prop_assert_eq!(text.contains("backend spin"), spin, "directive emission:\n{}", text);
        if !spin {
            // Suspend is the default: the writer must not emit a
            // directive, keeping pre-backend files byte-stable.
            prop_assert!(!text.contains("backend"), "{}", text);
        }
        let back = textfmt::parse_task_set(&text).unwrap();
        prop_assert_eq!(back.backend(), backend);
        // Round-trip is idempotent including the directive.
        prop_assert_eq!(textfmt::write_task_set(&back), text);
    }

    /// Delay sets are symmetric in the concurrency sense: if fork f is in
    /// C(v), then v's fork-ness would put it in C(f).
    #[test]
    fn concurrent_fork_relation_is_symmetric(seed in any::<u64>(), regions in 1usize..5) {
        let dag = star_dag(seed, regions, true);
        // C(v) is X(v) without the fork waiting for v.
        let concurrent = |v: NodeId, f: NodeId| {
            dag.delay_profile().delay_row(v).contains(f.index()) && dag.waiting_fork_of(v) != Some(f)
        };
        let forks: Vec<NodeId> = dag.blocking_forks().to_vec();
        for &f in &forks {
            for &g in &forks {
                if f == g { continue; }
                prop_assert_eq!(concurrent(f, g), concurrent(g, f));
            }
        }
    }
}

/// `n_tasks` tasks drawn from `seed`, each with a period (and implicit
/// deadline) between a quarter of its critical path and three times its
/// volume, so that some tasks miss and some pass. With `first_misses`
/// the first task's deadline lies below its critical path, so every
/// test rejects it and everything below it goes unanalyzed.
fn random_task_set(seed: u64, n_tasks: usize, first_misses: bool) -> TaskSet {
    let tasks = (0..n_tasks)
        .map(|i| {
            let dag = star_dag(seed.wrapping_add(i as u64), 4, true);
            let len = dag.critical_path_length();
            let period = if i == 0 && first_misses {
                len - 1
            } else {
                let scale = seed.wrapping_mul(31).wrapping_add(i as u64 * 7) % 12;
                (len / 4).max(1) + scale * dag.volume() / 4
            };
            Task::with_implicit_deadline(dag, period.max(1)).unwrap()
        })
        .collect();
    TaskSet::new(tasks)
}

proptest! {
    /// `global::accepts` stops at the first miss and answers exactly what
    /// the full analysis does, for every model and both backends.
    #[test]
    fn global_accepts_equals_the_full_verdict(
        seed in any::<u64>(),
        n_tasks in 1usize..5,
        m in 1usize..9,
        first_misses in any::<bool>(),
        spin in any::<bool>(),
    ) {
        let backend = if spin { SyncBackend::Spin } else { SyncBackend::Suspend };
        let set = random_task_set(seed, n_tasks, first_misses).with_backend(backend);
        for model in [
            ConcurrencyModel::Full,
            ConcurrencyModel::Limited,
            ConcurrencyModel::LimitedExact,
        ] {
            let full = global::analyze(&set, m, model);
            if first_misses {
                prop_assert!(!full.verdict(TaskId(0)).is_schedulable());
            }
            prop_assert_eq!(
                global::accepts(&set, m, model),
                full.is_schedulable(),
                "model {:?}, {:?}", model, full
            );
        }
    }

    /// `partitioned::accepts` maps each task only when it reaches it and
    /// answers exactly what `partition_and_analyze` does, for both
    /// strategies on 1 to 16 cores.
    #[test]
    fn partitioned_accepts_equals_the_full_verdict(
        seed in any::<u64>(),
        n_tasks in 1usize..5,
        m in 1usize..=16,
        first_misses in any::<bool>(),
    ) {
        let set = random_task_set(seed, n_tasks, first_misses);
        for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
            let (full, _) = partitioned::partition_and_analyze(&set, m, strategy);
            if first_misses {
                prop_assert!(!full.verdict(TaskId(0)).is_schedulable());
            }
            prop_assert_eq!(
                partitioned::accepts(&set, m, strategy),
                full.is_schedulable(),
                "strategy {:?}, {:?}", strategy, full
            );
        }
    }
}

/// `parse_task_set` (no declaration sites kept) and
/// `parse_task_set_with_spans` are one parser: same set or the very same
/// error — variant, line, span, message.
fn assert_parsers_agree(text: &str) -> Result<(), String> {
    match (
        textfmt::parse_task_set(text),
        textfmt::parse_task_set_with_spans(text),
    ) {
        (Ok(fast), Ok((full, spans))) => {
            // `write_task_set` renders every parameter, node, edge,
            // blocking pair and the backend in id order.
            prop_assert_eq!(
                textfmt::write_task_set(&fast),
                textfmt::write_task_set(&full)
            );
            prop_assert_eq!(spans.len(), full.len());
            for ((_, a), (_, b)) in fast.iter().zip(full.iter()) {
                prop_assert_eq!(a.dag().content_hash(), b.dag().content_hash());
            }
        }
        (Err(fast), Err(full)) => prop_assert_eq!(fast, full, "input:\n{}", text),
        (fast, full) => {
            return Err(format!(
                "parsers disagree on {text:?}: {:?} vs {:?}",
                fast.map(|s| s.len()),
                full.map(|(s, _)| s.len())
            ))
        }
    }
    Ok(())
}

proptest! {
    /// Over generated sets, and over the same text with a few lines
    /// dropped, doubled or re-worded so that every error kind comes up.
    #[test]
    fn spanless_parse_equals_parse_with_spans(
        seed in any::<u64>(),
        regions in 1usize..5,
        n_tasks in 1usize..4,
        damage in prop::collection::vec((0usize..4, 0usize..1000, 0usize..12), 0..4),
    ) {
        let tasks: Vec<Task> = (0..n_tasks)
            .map(|i| {
                let dag = star_dag(seed.wrapping_add(i as u64), regions, true);
                let period = dag.volume() * 2 + 1;
                Task::new(dag, period, period - 1).unwrap()
            })
            .collect();
        let text = textfmt::write_task_set(&TaskSet::new(tasks));
        assert_parsers_agree(&text)?;
        const WORDS: [&str; 12] = [
            "task", "end", "node", "edge v0 vé", "blocking v1 v0", "backend spin", "period=0",
            "node v0 1", "nœud", "edge v1 v1", "# gone", "node w x",
        ];
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        for (how, at, word) in damage {
            let at = at % lines.len();
            match how {
                0 => drop(lines.remove(at)),
                1 => lines.insert(at, lines[at].clone()),
                2 => lines[at] = WORDS[word].to_owned(),
                _ => lines[at] = format!("{} {}", lines[at], WORDS[word]),
            }
            if lines.is_empty() {
                break;
            }
        }
        assert_parsers_agree(&lines.join("\n"))?;
    }
}

/// The same over every shipped workload and every `rtlint` fixture (the
/// files whose spans the lint goldens pin).
#[test]
fn spanless_parse_equals_parse_with_spans_on_shipped_files() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for dir in ["../../workloads", "../lint/tests/fixtures"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("directory exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "rtp") {
                let text = std::fs::read_to_string(&path).expect("readable file");
                assert_parsers_agree(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                seen += 1;
            }
        }
    }
    assert!(seen >= 20, "only {seen} .rtp files found");
}

/// Every Algorithm 1 outcome over a fixed grid, folded into one FNV-1a
/// digest: the thread of every node on success, the failing node and the
/// error value otherwise. The constant was computed by the `BTreeSet`
/// implementation this one replaced, so it pins the rewrite (and any later
/// one) to the same mappings, the same failures and the same heuristic
/// choices.
#[test]
fn algorithm1_outcomes_match_the_pinned_digest() {
    use rtpool_core::partition::{
        algorithm1_with, Algorithm1Error, BestFit, FirstFit, PlacementHeuristic, WorstFit,
    };

    fn fold(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// Folds one run into `hash` and counts its outcome in `seen`
    /// (mapped, then the three failure conditions).
    fn outcome<H: PlacementHeuristic>(
        hash: &mut u64,
        seen: &mut [usize; 4],
        dag: &Dag,
        m: usize,
        mut heuristic: H,
    ) {
        match algorithm1_with(dag, m, &mut heuristic) {
            Ok(mapping) => {
                seen[0] += 1;
                fold(hash, &[0]);
                for v in dag.node_ids() {
                    fold(hash, &(mapping.thread_of(v).index() as u64).to_le_bytes());
                }
            }
            Err(failure) => {
                seen[match failure.error {
                    Algorithm1Error::ConflictingPreassignment { .. } => 1,
                    Algorithm1Error::SaturatedByBlockingForks { .. } => 2,
                    _ => 3,
                }] += 1;
                fold(hash, &[1]);
                fold(
                    hash,
                    format!("{:?}", (failure.node, failure.error)).as_bytes(),
                );
            }
        }
    }

    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut seen = [0usize; 4];
    for seed in 0..2000u64 {
        for regions in 1usize..5 {
            let dag = star_dag(seed, regions, true);
            for m in [1usize, 2, 3, 4, 6, 8, 12, 16] {
                outcome(&mut hash, &mut seen, &dag, m, WorstFit);
                outcome(&mut hash, &mut seen, &dag, m, FirstFit);
                outcome(&mut hash, &mut seen, &dag, m, BestFit);
            }
        }
    }
    println!("algorithm1 digest {hash:#018x}, outcomes (mapped, line 7, line 9, line 17) {seen:?}");
    // Line 7 is not reached on this grid (nor, as far as is known, on
    // any graph); the other three outcomes are.
    assert!(
        seen[0] > 0 && seen[2] > 0 && seen[3] > 0,
        "the grid lost an outcome: {seen:?}"
    );
    assert_eq!(
        hash, 0xaf3b_fdd2_b1dc_be77,
        "Algorithm 1 changed an outcome on the pinned grid"
    );
}

/// The pool sizes the m law walks: every small pool, then the sizes past
/// which a narrower integer would wrap, up to `usize::MAX`.
fn pool_ladder() -> impl Iterator<Item = usize> {
    (1..=16).chain([1 << 20, 1 << 32, 1 << 62, 1 << 63, usize::MAX])
}

proptest! {
    /// The m law: growing the pool never hurts. On a generated Figure 2
    /// set, as m climbs the ladder, no task turns unschedulable and no
    /// response-time bound rises under any concurrency model, no task's
    /// l̄ falls, and no deadlock-free task becomes deadlock-prone.
    #[test]
    fn growing_the_pool_never_hurts(
        seed in any::<u64>(),
        n_tasks in 2usize..=5,
        pct in 0u32..=100,
        half_load in 1u32..=8,
    ) {
        let dag = DagGenConfig { blocking: BlockingPolicy::Fixed(f64::from(pct) / 100.0) };
        let set = TaskSetConfig::new(n_tasks, f64::from(half_load) / 2.0, dag)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap();
        let models = [
            ConcurrencyModel::Full,
            ConcurrencyModel::Limited,
            ConcurrencyModel::LimitedExact,
        ];
        let walk: Vec<_> = pool_ladder()
            .map(|m| {
                let dags = || set.iter().map(|(_, t)| t.dag());
                let floors: Vec<i64> = dags().map(|d| deadlock::concurrency_floor(d, m)).collect();
                let free: Vec<bool> =
                    dags().map(|d| deadlock::check_global(d, m).is_deadlock_free()).collect();
                (m, global::analyze_many(&set, m, &models), floors, free)
            })
            .collect();
        for step in walk.windows(2) {
            let [(before_m, before, before_floors, before_free), (m, after, floors, free)] = step
            else {
                unreachable!("windows of two")
            };
            for (model, (b, a)) in models.iter().zip(before.iter().zip(after)) {
                for (i, (b, a)) in b.verdicts().iter().zip(a.verdicts()).enumerate() {
                    if let Some(rb) = b.response_time() {
                        let ra = a.response_time();
                        prop_assert!(
                            ra.is_some_and(|ra| ra <= rb),
                            "{model:?} task {i}: R {rb} at m = {before_m}, {ra:?} at m = {m}"
                        );
                    }
                }
            }
            for (i, (fb, fa)) in before_floors.iter().zip(floors).enumerate() {
                prop_assert!(fa >= fb, "task {i}: l̄ {fb} at m = {before_m}, {fa} at m = {m}");
            }
            for (i, (fb, fa)) in before_free.iter().zip(free).enumerate() {
                prop_assert!(!fb || *fa, "task {i}: deadlock-free at m = {before_m}, not at m = {m}");
            }
        }
    }
}
