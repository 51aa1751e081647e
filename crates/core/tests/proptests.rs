//! Property-based tests for the analysis crate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The writer `write_task_set` replaced, a `writeln!` per directive: the
/// reference the one-allocation writer is held to byte for byte.
fn write_task_set_fmt(set: &TaskSet) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# rtpool task set (priority order: first task = highest)\n");
    if set.backend() == SyncBackend::Spin {
        out.push_str("backend spin\n");
    }
    for (_, task) in set.iter() {
        let dag = task.dag();
        let _ = writeln!(
            out,
            "task period={} deadline={}",
            task.period(),
            task.deadline()
        );
        for v in dag.node_ids() {
            let _ = writeln!(out, "  node v{} {}", v.index(), dag.wcet(v));
        }
        for v in dag.node_ids() {
            for s in dag.successors(v) {
                let _ = writeln!(out, "  edge v{} v{}", v.index(), s.index());
            }
        }
        for region in dag.blocking_regions() {
            let _ = writeln!(
                out,
                "  blocking v{} v{}",
                region.fork().index(),
                region.join().index()
            );
        }
        out.push_str("end\n");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// `write_task_set` writes what the `writeln!` writer wrote, on
    /// generated sets of 1-16 tasks on either backend, one task of which
    /// may be a wide fork-join whose node ids pass 10, 100 or 1 000, with
    /// WCETs, periods and deadlines of every digit count (periods at
    /// 10^19 - 1, 10^19 and `u64::MAX` among them); its text is
    /// one allocation of its final length.
    #[test]
    fn writer_writes_what_the_fmt_writer_wrote(
        seed in any::<u64>(),
        n_tasks in 1usize..=16,
        wide in 0usize..4,
        spin in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks: Vec<Task> = TaskSetConfig::new(n_tasks, n_tasks as f64 / 4.0, DagGenConfig::default())
            .generate(&mut rng)
            .expect("plain generation cannot fail")
            .into_iter()
            .collect();
        if wide > 0 {
            let children = [9usize, 99, 999][wide - 1] + rng.gen_range(0..20usize);
            // Up to 20 digits, and no sum of them past `u64::MAX`.
            let mut wcet = || rng.gen_range(1..=u64::MAX >> 11) >> rng.gen_range(0..53u32);
            let ends = [wcet(), wcet()];
            let kids: Vec<u64> = (0..children).map(|_| wcet()).collect();
            let mut b = rtpool_graph::DagBuilder::new();
            b.fork_join(ends[0], &kids, ends[1], rng.gen()).unwrap();
            let period = match rng.gen_range(0..4u32) {
                0 => u64::MAX,
                1 => 10_000_000_000_000_000_000,
                2 => 9_999_999_999_999_999_999,
                _ => (rng.gen::<u64>() >> rng.gen_range(0..64u32)).max(1),
            };
            let deadline = period - rng.gen::<u64>() % period;
            let at = rng.gen_range(0..=tasks.len());
            tasks.insert(at, Task::new(b.build().unwrap(), period, deadline).unwrap());
        }
        let backend = if spin { SyncBackend::Spin } else { SyncBackend::Suspend };
        let set = TaskSet::new(tasks).with_backend(backend);
        let text = textfmt::write_task_set(&set);
        prop_assert_eq!(&text, &write_task_set_fmt(&set));
        prop_assert_eq!(text.capacity(), text.len());
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
    /// dropped, doubled or re-worded so that every error kind comes up;
    /// then with its blanks, line ends and comments written other ways.
    #[test]
    fn spanless_parse_equals_parse_with_spans(
        seed in any::<u64>(),
        regions in 1usize..5,
        n_tasks in 1usize..4,
        damage in prop::collection::vec((0usize..4, 0usize..1000, 0usize..WORDS.len()), 0..4),
        (blank, crlf, comments) in (0usize..BLANKS.len(), any::<bool>(), any::<bool>()),
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
        // The same lines, each blank run written as `BLANKS[blank]`, a
        // comment after every other line, and `\r\n` line ends.
        let respaced: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let line = line.replace(' ', BLANKS[blank]);
                if comments && i % 2 == 0 { format!("{line}#c {i}") } else { line }
            })
            .collect();
        assert_parsers_agree(&respaced.join(if crlf { "\r\n" } else { "\n" }))?;
    }
}

/// Lines [`spanless_parse_equals_parse_with_spans`] puts in place of, or
/// after, a line of a written set: every directive, malformed, with
/// multibyte names, leading zeros, signs and integers past `u64::MAX`.
const WORDS: [&str; 24] = [
    "task",
    "end",
    "node",
    "edge v0 vé",
    "blocking v1 v0",
    "backend spin",
    "period=0",
    "node v0 1",
    "nœud",
    "edge v1 v1",
    "# gone",
    "node w x",
    "node v1 007",
    "node v99 +5",
    "node v7 18446744073709551616",
    "node v00 1",
    "edge v01 v1",
    "edge v1 v18446744073709551616",
    "task period=010 deadline=+9",
    "task period=18446744073709551616",
    "end # done",
    "blocking\tv0\u{3000}v1",
    "node bêta2 3",
    "edge v0 v1 v2",
];

/// Blank runs a set's text is re-spaced with: a tab, blanks
/// `char::is_whitespace` accepts that `u8::is_ascii_whitespace` does not,
/// and multibyte whitespace.
const BLANKS: [&str; 6] = [" ", "\t", "  \t ", "\x0B", "\u{A0}", "\u{2003} "];

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

/// `set` with every task's WCETs multiplied by the largest factor that
/// keeps its volume within `u64::MAX / set.len()`, and its period by the
/// same factor (saturating), so that the inflated paths of the
/// partitioned analysis can pass `u64::MAX`.
fn scaled_toward_the_limit(set: &TaskSet) -> TaskSet {
    let share = u64::MAX / set.len() as u64;
    let tasks = set.iter().map(|(_, task)| {
        let dag = task.dag();
        let factor = share / dag.volume();
        let mut edit = dag.edit();
        for v in dag.node_ids() {
            edit.set_wcet(v, dag.wcet(v) * factor);
        }
        let (dag, _) = edit.apply().expect("WCET edits always apply");
        let period = task.period().saturating_mul(factor);
        Task::new(dag, period, task.deadline().saturating_mul(factor)).unwrap()
    });
    TaskSet::new(tasks.collect())
}

proptest! {
    /// The len law: no partitioned bound is below the task's critical
    /// path, under either strategy, on generated Figure 2 sets and on the
    /// same sets with their WCETs scaled toward `u64::MAX / n`. A bound
    /// whose path sum wraps past `u64::MAX` breaks it.
    #[test]
    fn partitioned_bounds_never_undercut_the_critical_path(
        seed in any::<u64>(),
        n_tasks in 1usize..=4,
        pct in 0u32..=100,
        half_load in 1u32..=8,
        m in 1usize..=8,
    ) {
        let dag = DagGenConfig { blocking: BlockingPolicy::Fixed(f64::from(pct) / 100.0) };
        let set = TaskSetConfig::new(n_tasks, f64::from(half_load) / 2.0, dag)
            .generate(&mut StdRng::seed_from_u64(seed))
            .unwrap();
        for set in [scaled_toward_the_limit(&set), set] {
            for strategy in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1] {
                let (result, _) = partitioned::partition_and_analyze(&set, m, strategy);
                for ((_, task), verdict) in set.iter().zip(result.verdicts()) {
                    if let Some(r) = verdict.response_time() {
                        let len = task.critical_path_length();
                        prop_assert!(r >= len, "{strategy:?}, m = {m}: R {r} below len {len}");
                    }
                }
            }
        }
    }
}

/// The seven ways the renaming test names node `id` of a task: on the
/// parser's numbering from 0, from an offset, zero-padded, broken at one
/// node, with no digits at all, non-ASCII, and with 20-digit numbers.
#[derive(Clone, Copy, Debug)]
enum Naming {
    Plain,
    Offset(u64),
    Padded,
    BrokenAt(usize),
    Letters(u64),
    Accented,
    TwentyDigits(u128),
}

impl Naming {
    fn all(rng: &mut StdRng) -> [Naming; 7] {
        let offset = match rng.gen_range(0u32..3) {
            0 => rng.gen_range(1u64..1_000),
            1 => rng.gen::<u64>(),
            _ => u64::MAX - rng.gen_range(0u64..64),
        };
        // Past u64::MAX, across it, or below it.
        let twenty = [
            99_999_999_999_999_999_990,
            u128::from(u64::MAX) - 3,
            10_000_000_000_000_000_000,
        ][rng.gen_range(0usize..3)];
        [
            Naming::Plain,
            Naming::Offset(offset),
            Naming::Padded,
            Naming::BrokenAt(rng.gen_range(0usize..64)),
            Naming::Letters(rng.gen::<u64>()),
            Naming::Accented,
            Naming::TwentyDigits(twenty),
        ]
    }

    /// The name of node `id` of a task with `n` nodes.
    fn name(self, id: usize, n: usize) -> String {
        match self {
            Naming::Plain => format!("v{id}"),
            Naming::Offset(k) => format!("n{}", u128::from(k) + id as u128),
            Naming::Padded => format!("v{id:03}"),
            Naming::BrokenAt(at) if id == at % n => format!("w{id}_"),
            Naming::BrokenAt(_) => format!("v{id}"),
            Naming::Letters(salt) => {
                // `id` in base 26 behind a salted prefix: distinct, and no
                // digit anywhere.
                let letter = |x: u64| char::from(b'a' + (x % 26) as u8);
                let mut name: String = (0..3).map(|i| letter(salt >> (8 * i))).collect();
                let mut x = id as u64;
                loop {
                    name.push(letter(x));
                    x /= 26;
                    if x == 0 {
                        break name;
                    }
                }
            }
            Naming::Accented => format!("bêta{id}"),
            Naming::TwentyDigits(base) => format!("s{}", base + id as u128),
        }
    }
}

/// `text` with every node of every task renamed by `name(task, id, n)`:
/// the same lines, comments and indentation, each name token replaced.
fn renamed(text: &str, name: impl Fn(usize, usize, usize) -> String) -> String {
    let (set, spans) = textfmt::parse_task_set_with_spans(text).expect("the input parses");
    let ids: Vec<std::collections::HashMap<&str, usize>> = spans
        .iter()
        .zip(set.iter())
        .map(|(s, (_, task))| {
            task.dag()
                .node_ids()
                .map(|v| (s.name(v).expect("every node is named"), v.index()))
                .collect()
        })
        .collect();
    let counts: Vec<usize> = set.iter().map(|(_, t)| t.dag().node_count()).collect();
    let mut task = None;
    let mut out = String::with_capacity(text.len() * 2);
    for line in text.lines() {
        let (code, comment) = match line.find('#') {
            Some(at) => line.split_at(at),
            None => (line, ""),
        };
        let mut words: Vec<String> = code.split_whitespace().map(str::to_owned).collect();
        let names = match words.first().map(String::as_str) {
            Some("task") => {
                task = Some(task.map_or(0, |t: usize| t + 1));
                0..0
            }
            Some("node") => 1..2,
            Some("edge" | "blocking") => 1..3,
            _ => 0..0,
        };
        for word in &mut words[names] {
            let t = task.expect("names appear inside a task");
            *word = name(t, ids[t][word.as_str()], counts[t]);
        }
        let indent = &code[..code.len() - code.trim_start().len()];
        out.push_str(indent);
        out.push_str(&words.join(" "));
        if !comment.is_empty() {
            out.push_str(if words.is_empty() { "" } else { " " });
            out.push_str(comment);
        }
        out.push('\n');
    }
    out
}

/// `text` with `line` inserted before the `end` of its `task`-th task,
/// and the 1-based number the inserted line gets.
fn inserted_before_end(text: &str, task: usize, line: &str) -> (String, usize) {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.split_whitespace().next() == Some("end"))
        .nth(task)
        .expect("the task exists")
        .0;
    lines.insert(at, line);
    (lines.join("\n"), at + 1)
}

/// Both entry points fail on `text` with exactly `want`.
fn assert_fails_with(text: &str, want: &textfmt::ParseTaskError) -> Result<(), String> {
    prop_assert_eq!(
        &textfmt::parse_task_set(text).unwrap_err(),
        want,
        "{}",
        text
    );
    prop_assert_eq!(
        &textfmt::parse_task_set_with_spans(text).unwrap_err(),
        want,
        "{}",
        text
    );
    Ok(())
}

/// The renaming law over one `.rtp` text: under every [`Naming`] it
/// parses to the same `write_task_set` bytes, and an injected undeclared
/// reference and an injected repeat of a `node` line fail with the same
/// variant, line and span (its length the renamed name's).
fn assert_renamings_agree(text: &str, rng: &mut StdRng) -> Result<(), String> {
    use textfmt::{ParseTaskError, Span};
    let want = textfmt::write_task_set(&textfmt::parse_task_set(text).expect("the input parses"));
    let set = textfmt::parse_task_set(text).expect("the input parses");
    let task = rng.gen_range(0..set.len());
    let n = set.task(TaskId(task)).dag().node_count();
    let (dup, wcet) = {
        let v = rng.gen_range(0..n);
        (v, set.task(TaskId(task)).dag().wcet(NodeId::from_index(v)))
    };
    for naming in Naming::all(rng) {
        let text = renamed(text, |_, id, n| naming.name(id, n));
        let back = textfmt::parse_task_set(&text).map_err(|e| format!("{naming:?}: {e}"))?;
        prop_assert_eq!(textfmt::write_task_set(&back), want.clone(), "{:?}", naming);
        assert_parsers_agree(&text)?;

        let target = naming.name(0, n);
        let (ghost, line) = inserted_before_end(&text, task, &format!("  edge ghost7 {target}"));
        let unknown = ParseTaskError::UnknownName {
            line,
            span: Span::new(line, 8, 6),
            name: "ghost7".into(),
        };
        assert_fails_with(&ghost, &unknown)?;

        let name = naming.name(dup, n);
        let (twice, line) = inserted_before_end(&text, task, &format!("  node {name} {wcet}"));
        let duplicate = ParseTaskError::DuplicateName {
            line,
            span: Span::new(line, 8, name.chars().count()),
            name,
        };
        assert_fails_with(&twice, &duplicate)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Names are resolved the same whether they follow the parser's
    /// numbering, break it, or never follow it, on generated sets.
    #[test]
    fn renaming_nodes_changes_nothing_but_names(
        seed in any::<u64>(),
        n_tasks in 1usize..=4,
        pct in 0u32..=100,
    ) {
        let dag = DagGenConfig { blocking: BlockingPolicy::Fixed(f64::from(pct) / 100.0) };
        let mut rng = StdRng::seed_from_u64(seed);
        let set = TaskSetConfig::new(n_tasks, 1.5, dag).generate(&mut rng).unwrap();
        assert_renamings_agree(&textfmt::write_task_set(&set), &mut rng)?;
    }
}

/// The same over every shipped workload, whose names are not `v0 v1 …`.
#[test]
fn renaming_nodes_changes_nothing_but_names_on_the_workloads() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("workloads/ is readable") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "rtp") {
            let text = std::fs::read_to_string(&path).expect("readable file");
            for seed in 0..8 {
                assert_renamings_agree(&text, &mut StdRng::seed_from_u64(seed))
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
            seen += 1;
        }
    }
    assert!(seen >= 3, "only {seen} workloads found");
}

/// `text` (as `write_task_set` writes it) with each run of `node`,
/// `edge` or `blocking` lines shuffled. The parser numbers nodes in
/// declaration order, so every task's ids are permuted and its edges and
/// blocking pairs mapped with them, the names staying with their nodes;
/// edges and pairs are declared in a new order too.
fn relabelled(text: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let mut at = 0;
    while at < lines.len() {
        let kind = lines[at].split_whitespace().next();
        let run = lines[at..]
            .iter()
            .take_while(|l| l.split_whitespace().next() == kind)
            .count();
        if matches!(kind, Some("node" | "edge" | "blocking")) {
            let block = &mut lines[at..at + run];
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        at += run;
    }
    lines.join("\n")
}

/// The relabelling law: renumbering a generated set's nodes, and
/// reordering its edges and blocking pairs, leaves every global verdict
/// and bound unchanged, under every concurrency model and both backends. The partitioned heuristics break ties by node id, so
/// their verdicts may flip; those flips are counted and printed, not
/// asserted.
#[test]
fn relabelling_nodes_leaves_the_global_analyses_unchanged() {
    let models = [
        ConcurrencyModel::Full,
        ConcurrencyModel::Limited,
        ConcurrencyModel::LimitedExact,
    ];
    let (mut cases, mut flips) = (0, [0usize; 2]);
    for seed in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pct = rng.gen_range(0u32..=100);
        let dag = DagGenConfig {
            blocking: BlockingPolicy::Fixed(f64::from(pct) / 100.0),
        };
        let n_tasks = rng.gen_range(1usize..=4);
        let load = rng.gen_range(1u32..=8);
        let set = TaskSetConfig::new(n_tasks, f64::from(load) / 2.0, dag)
            .generate(&mut rng)
            .unwrap();
        let text = textfmt::write_task_set(&set);
        let shuffled = relabelled(&text, &mut rng);
        let permuted = textfmt::parse_task_set(&shuffled).unwrap();
        let m = rng.gen_range(1usize..=8);
        for backend in [SyncBackend::Suspend, SyncBackend::Spin] {
            let (a, b) = (
                set.clone().with_backend(backend),
                permuted.clone().with_backend(backend),
            );
            for model in models {
                assert_eq!(
                    global::analyze(&a, m, model),
                    global::analyze(&b, m, model),
                    "seed {seed}, m = {m}, {backend:?}, {model:?}"
                );
            }
        }
        for (strategy, flipped) in [PartitionStrategy::WorstFit, PartitionStrategy::Algorithm1]
            .into_iter()
            .zip(&mut flips)
        {
            let verdicts = |set: &TaskSet| {
                let (result, _) = partitioned::partition_and_analyze(set, m, strategy);
                result
                    .verdicts()
                    .iter()
                    .map(|v| v.is_schedulable())
                    .collect::<Vec<_>>()
            };
            *flipped += usize::from(verdicts(&set) != verdicts(&permuted));
        }
        cases += 1;
    }
    println!(
        "relabelling: {cases} sets, partitioned verdicts flipped on {} (worst-fit) and {} (Algorithm 1)",
        flips[0], flips[1]
    );
}
