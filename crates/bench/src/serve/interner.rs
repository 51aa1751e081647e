//! Content-hashed task-set interner with bounded capacity.
//!
//! Structurally identical submissions — byte-different sources that
//! parse to the same DAGs, periods, and deadlines — resolve to one
//! shared [`Arc<TaskSet>`], so every request after the first reuses the
//! graphs' `DerivedCache` (reachability, delay profiles, antichains)
//! instead of recomputing it. Definitive (non-degraded) ladder outcomes
//! are memoized per `(set, m)` on the same entry, which turns repeat
//! submissions into table lookups.
//!
//! Capacity is bounded: inserting beyond `capacity` evicts the
//! least-recently-used entry, so server RSS stays proportional to the
//! configured cap regardless of how many distinct workloads clients
//! submit. Eviction scans for the LRU entry — `O(capacity)` with small
//! caps, which is the regime the server runs in.
//!
//! Entries can be *poisoned* (by the fault plan's `PoisonCacheEntry`
//! injection, or by an operator tool): a poisoned entry is reported to
//! exactly one observer via [`InternError::Poisoned`] and evicted, so
//! the supervisor's retry re-parses from source and repopulates a clean
//! entry.
//!
//! # Who frees an evicted set
//!
//! A parsed set with a filled `DerivedCache` is 100–200 heap blocks
//! (it was 650–1 600 while every node owned its adjacency lists and
//! closure rows), and at capacity every miss evicts one. Were the
//! evicting thread to free it, half of those frees (at two workers)
//! would go to the malloc arena of the *other* worker — the one that
//! built the set — while that worker allocates its next set from the
//! same arena, and the workers would serialise on the allocator instead
//! of on anything in this file. That still holds at the smaller block
//! count: re-measured with the CSR `Dag` and the slots below bypassed
//! (every victim freed by its evictor, outside the lock),
//! `cargo bench -p rtpool-bench --bench serve_scaling` gives two
//! threads 1.22–1.28× the `execute` throughput of one (13 400–13 500
//! against 10 400–11 100 calls/s) where the slots give 1.97× (23 000
//! against 11 700), and the registered `admit-cold` workload loses 24 %
//! throughput (8 731 against 11 483 ops/s, p50 212 against 158 µs;
//! five alternating pairs, seeds 21–25). The bar for deleting the slots
//! was 1.4×; they stay. So an entry
//! remembers the thread that inserted it, eviction (LRU and poisoned
//! alike) only *moves* the victim to that thread's retire slot, and
//! every [`Interner::intern`] / [`Interner::intern_set`] call takes the
//! caller's own retired sets out and drops them. The invariant: **the
//! interner lock is never held across a `TaskSet` drop**, and a set is
//! dropped by its builder whenever the builder is still calling.
//!
//! Retired sets are bounded: `RETIRE_BUILDERS` (16) slots of
//! `RETIRE_PER_BUILDER` (4) sets, the slots going to the first threads
//! that call. A victim whose builder has no slot, or a full one, is
//! dropped by the evicting call itself (after it has released the
//! lock); a builder that stops calling — a supervisor rescue thread,
//! say — leaves at most a slot's worth of sets behind, freed with the
//! interner. None of this is visible from outside: which entry is
//! evicted, every hash, the memo and every [`InternerStats`] counter
//! are what they would be if eviction dropped the victim on the spot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use rtpool_core::textfmt::{parse_task_set, ParseTaskError};
use rtpool_core::TaskSet;

use super::protocol::LadderLevel;

/// A memoized definitive ladder outcome for one `(set, m)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoOutcome {
    /// Whether the set was admitted.
    pub admit: bool,
    /// The rung that decided.
    pub level: LadderLevel,
}

/// Why [`Interner::intern`] / [`Interner::lookup`] failed.
#[derive(Clone, Debug, PartialEq)]
pub enum InternError {
    /// The inline source did not parse.
    Parse(ParseTaskError),
    /// The entry existed but was poisoned; it has been evicted. Retrying
    /// with the source re-parses cleanly; retrying by hash alone cannot.
    Poisoned,
    /// A hash-only request named a set the interner does not hold
    /// (never seen, or evicted).
    UnknownHash,
}

impl std::fmt::Display for InternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InternError::Parse(e) => write!(f, "parse error: {e}"),
            InternError::Poisoned => f.write_str("cache entry was poisoned"),
            InternError::UnknownHash => f.write_str("unknown content hash"),
        }
    }
}

/// Threads that can have evicted sets waiting for them at one time.
const RETIRE_BUILDERS: usize = 16;
/// Evicted sets one thread can have waiting. Between two calls of one
/// of `n` busy workers the others evict about `n − 1` sets, one in `n`
/// of them its own, so a slot rarely holds more than one or two.
const RETIRE_PER_BUILDER: usize = 4;

struct Entry {
    set: Arc<TaskSet>,
    last_used: u64,
    poisoned: bool,
    /// Definitive outcomes by pool size `m` (tiny in practice).
    memo: Vec<(usize, MemoOutcome)>,
    /// The thread that built `set` and inserted it.
    builder: ThreadId,
}

/// Evicted sets waiting for the thread that built them.
struct RetireSlot {
    builder: ThreadId,
    sets: Vec<Arc<TaskSet>>,
}

#[derive(Default)]
struct Stats {
    hits: u64,
    misses: u64,
    evictions: u64,
    memo_hits: u64,
    delta_hits: u64,
}

/// Point-in-time interner statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Interns/lookups answered from a resident entry.
    pub hits: u64,
    /// Interns that had to parse.
    pub misses: u64,
    /// Entries evicted (LRU pressure or poison).
    pub evictions: u64,
    /// Requests answered from the per-`m` verdict memo.
    pub memo_hits: u64,
    /// `edit` requests answered from a delta-patched entry: the base set
    /// was resident, so the patched set entered the cache with its
    /// `DerivedCache` carried over by `Dag::edit` instead of rebuilt.
    pub delta_hits: u64,
}

struct State {
    entries: HashMap<u64, Entry>,
    tick: u64,
    stats: Stats,
    /// At most `RETIRE_BUILDERS` slots.
    retire: Vec<RetireSlot>,
}

impl State {
    /// Hands thread `me` the evicted sets that were waiting for it. A
    /// thread without a slot gets one while there are slots left.
    fn check_in(&mut self, me: ThreadId) -> Vec<Arc<TaskSet>> {
        match self.retire.iter_mut().find(|s| s.builder == me) {
            Some(slot) if slot.sets.is_empty() => Vec::new(),
            // The slot's buffer is the builder's own too: allocated
            // here, filled by evictors without growing, freed by the
            // builder.
            Some(slot) => std::mem::replace(&mut slot.sets, Vec::with_capacity(RETIRE_PER_BUILDER)),
            None => {
                if self.retire.len() < RETIRE_BUILDERS {
                    self.retire.push(RetireSlot {
                        builder: me,
                        sets: Vec::with_capacity(RETIRE_PER_BUILDER),
                    });
                }
                Vec::new()
            }
        }
    }

    /// Removes the entry under `hash` and counts the eviction. Its set
    /// moves to its builder's retire slot; when there is none, or it is
    /// full, the set is returned for the caller to drop once it has
    /// released the lock.
    fn evict(&mut self, hash: u64) -> Option<Arc<TaskSet>> {
        let victim = self
            .entries
            .remove(&hash)
            .expect("evicting a resident entry");
        self.stats.evictions += 1;
        match self.retire.iter_mut().find(|s| s.builder == victim.builder) {
            Some(slot) if slot.sets.len() < RETIRE_PER_BUILDER => {
                slot.sets.push(victim.set);
                None
            }
            _ => Some(victim.set),
        }
    }
}

/// The bounded content-hash interner shared by all service workers.
pub struct Interner {
    capacity: usize,
    state: Mutex<State>,
}

impl Interner {
    /// Creates an interner holding at most `capacity` distinct sets
    /// (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Interner {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                entries: HashMap::new(),
                tick: 0,
                stats: Stats::default(),
                retire: Vec::new(),
            }),
        }
    }

    /// The structural content hash of a task set: every task's DAG hash
    /// combined with its period and deadline, in priority order.
    #[must_use]
    pub fn hash_set(set: &TaskSet) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(set.len() as u64);
        for (_, task) in set.iter() {
            mix(task.dag().content_hash());
            mix(task.period());
            mix(task.deadline());
        }
        h
    }

    /// Parses `source` and interns the result, returning the content
    /// hash and the shared set. A structurally identical resident set is
    /// reused (its `DerivedCache` and verdict memo included); a poisoned
    /// resident entry is evicted and reported once.
    ///
    /// # Errors
    ///
    /// [`InternError::Parse`] when the source is invalid,
    /// [`InternError::Poisoned`] when the resident entry was poisoned.
    pub fn intern(&self, source: &str) -> Result<(u64, Arc<TaskSet>), InternError> {
        let parsed = parse_task_set(source).map_err(InternError::Parse)?;
        self.share_or_insert(Interner::hash_set(&parsed), parsed, true)
    }

    /// Interns an already-built set (the `edit` verb's delta-patched
    /// result), returning its content hash and the shared set. A
    /// structurally identical resident set is reused — memo included —
    /// so repeated identical edits of the same base hit the verdict
    /// memo. A poisoned resident entry is replaced by the fresh set.
    pub fn intern_set(&self, set: TaskSet) -> (u64, Arc<TaskSet>) {
        self.share_or_insert(Interner::hash_set(&set), set, false)
            .expect("a poisoned entry is replaced, not reported")
    }

    /// Shares the resident entry for `hash` or inserts `set` under it,
    /// evicting the least-recently-used entry at capacity. A poisoned
    /// resident entry is always evicted; it then either fails the call
    /// (`evict_poisoned_is_error`) or is replaced by `set`.
    fn share_or_insert(
        &self,
        hash: u64,
        set: TaskSet,
        evict_poisoned_is_error: bool,
    ) -> Result<(u64, Arc<TaskSet>), InternError> {
        let me = thread::current().id();
        // Every set this call frees: declared before the guard, so on
        // every return path it is dropped after the lock is released
        // (as is `set`, when a resident entry is shared instead).
        let mut freed_unlocked;
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.tick += 1;
        let tick = st.tick;
        freed_unlocked = st.check_in(me);
        match st.entries.get_mut(&hash) {
            Some(entry) if entry.poisoned => {
                freed_unlocked.extend(st.evict(hash));
                if evict_poisoned_is_error {
                    return Err(InternError::Poisoned);
                }
            }
            Some(entry) => {
                entry.last_used = tick;
                let shared = Arc::clone(&entry.set);
                st.stats.hits += 1;
                return Ok((hash, shared));
            }
            None => {}
        }
        st.stats.misses += 1;
        let shared = Arc::new(set);
        if st.entries.len() >= self.capacity {
            let lru = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h)
                .expect("non-empty at capacity");
            freed_unlocked.extend(st.evict(lru));
        }
        st.entries.insert(
            hash,
            Entry {
                set: Arc::clone(&shared),
                last_used: tick,
                poisoned: false,
                memo: Vec::new(),
                builder: me,
            },
        );
        Ok((hash, shared))
    }

    /// Counts one `edit` request answered from a delta-patched entry.
    pub fn record_delta_hit(&self) {
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.stats.delta_hits += 1;
    }

    /// Resolves a hash-only request.
    ///
    /// # Errors
    ///
    /// [`InternError::UnknownHash`] when absent,
    /// [`InternError::Poisoned`] when the entry was poisoned (it is
    /// evicted).
    pub fn lookup(&self, hash: u64) -> Result<Arc<TaskSet>, InternError> {
        // Declared before the guard: dropped after the lock is released.
        let _freed_unlocked;
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.tick += 1;
        let tick = st.tick;
        match st.entries.get_mut(&hash) {
            None => {
                st.stats.misses += 1;
                Err(InternError::UnknownHash)
            }
            Some(entry) if entry.poisoned => {
                _freed_unlocked = st.evict(hash);
                Err(InternError::Poisoned)
            }
            Some(entry) => {
                entry.last_used = tick;
                let set = Arc::clone(&entry.set);
                st.stats.hits += 1;
                Ok(set)
            }
        }
    }

    /// Marks the entry poisoned (fault injection). No-op when absent.
    pub fn poison(&self, hash: u64) {
        let mut st = self.state.lock().expect("interner lock not poisoned");
        if let Some(entry) = st.entries.get_mut(&hash) {
            entry.poisoned = true;
        }
    }

    /// Records a definitive (non-degraded) outcome for `(hash, m)`.
    /// No-op when the entry has been evicted meanwhile.
    pub fn memoize(&self, hash: u64, m: usize, outcome: MemoOutcome) {
        let mut st = self.state.lock().expect("interner lock not poisoned");
        if let Some(entry) = st.entries.get_mut(&hash) {
            if !entry.memo.iter().any(|(mm, _)| *mm == m) {
                entry.memo.push((m, outcome));
            }
        }
    }

    /// A memoized definitive outcome for `(hash, m)`, if present.
    #[must_use]
    pub fn memoized(&self, hash: u64, m: usize) -> Option<MemoOutcome> {
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.tick += 1;
        let tick = st.tick;
        let found = st.entries.get_mut(&hash).and_then(|entry| {
            if entry.poisoned {
                return None;
            }
            entry.last_used = tick;
            entry.memo.iter().find(|(mm, _)| *mm == m).map(|&(_, o)| o)
        });
        if found.is_some() {
            st.stats.memo_hits += 1;
        }
        found
    }

    /// Current statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> InternerStats {
        let st = self.state.lock().expect("interner lock not poisoned");
        InternerStats {
            entries: st.entries.len(),
            hits: st.stats.hits,
            misses: st.stats.misses,
            evictions: st.stats.evictions,
            memo_hits: st.stats.memo_hits,
            delta_hits: st.stats.delta_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Weak;

    use proptest::prelude::*;

    use super::*;

    impl Interner {
        /// Hashes of the resident entries, sorted.
        fn resident(&self) -> Vec<u64> {
            let mut hashes: Vec<u64> = self
                .state
                .lock()
                .expect("interner lock not poisoned")
                .entries
                .keys()
                .copied()
                .collect();
            hashes.sort_unstable();
            hashes
        }

        /// `(retire slots, evicted sets waiting in them)`.
        fn retired(&self) -> (usize, usize) {
            let st = self.state.lock().expect("interner lock not poisoned");
            (
                st.retire.len(),
                st.retire.iter().map(|s| s.sets.len()).sum(),
            )
        }
    }

    const RETIRE_BOUND: usize = RETIRE_BUILDERS * RETIRE_PER_BUILDER;

    const SRC_A: &str = "task period=100\n  node a 10\n  node b 20\n  edge a b\nend\n";
    /// Same structure as `SRC_A` (names and formatting differ).
    const SRC_A2: &str = "# comment\ntask period=100\n  node x 10\n  node y 20\n  edge x y\nend\n";
    const SRC_B: &str = "task period=50\n  node a 5\nend\n";

    #[test]
    fn structural_sharing() {
        let interner = Interner::new(8);
        let (h1, s1) = interner.intern(SRC_A).unwrap();
        let (h2, s2) = interner.intern(SRC_A2).unwrap();
        assert_eq!(h1, h2);
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "structurally equal sets share one Arc"
        );
        let (h3, _) = interner.intern(SRC_B).unwrap();
        assert_ne!(h1, h3);
        let stats = interner.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn lookup_and_memo() {
        let interner = Interner::new(8);
        let (h, s) = interner.intern(SRC_A).unwrap();
        assert!(Arc::ptr_eq(&interner.lookup(h).unwrap(), &s));
        assert_eq!(
            interner.lookup(12345).unwrap_err(),
            InternError::UnknownHash
        );
        assert_eq!(interner.memoized(h, 4), None);
        let out = MemoOutcome {
            admit: true,
            level: LadderLevel::Exact,
        };
        interner.memoize(h, 4, out);
        assert_eq!(interner.memoized(h, 4), Some(out));
        assert_eq!(interner.memoized(h, 8), None);
        assert_eq!(interner.stats().memo_hits, 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let interner = Interner::new(2);
        let (ha, _) = interner.intern(SRC_A).unwrap();
        let (hb, _) = interner.intern(SRC_B).unwrap();
        // Touch A so B is the LRU.
        interner.lookup(ha).unwrap();
        let third = "task period=7\n  node z 1\nend\n";
        let (hc, _) = interner.intern(third).unwrap();
        assert!(interner.lookup(ha).is_ok());
        assert!(interner.lookup(hc).is_ok());
        assert_eq!(interner.lookup(hb).unwrap_err(), InternError::UnknownHash);
        assert_eq!(interner.stats().entries, 2);
        assert_eq!(interner.stats().evictions, 1);
    }

    #[test]
    fn poison_is_reported_once_then_heals() {
        let interner = Interner::new(8);
        let (h, _) = interner.intern(SRC_A).unwrap();
        interner.poison(h);
        assert_eq!(interner.memoized(h, 4), None);
        assert_eq!(interner.lookup(h).unwrap_err(), InternError::Poisoned);
        // The poisoned entry is gone; re-interning heals it.
        assert_eq!(interner.lookup(h).unwrap_err(), InternError::UnknownHash);
        let (h2, _) = interner.intern(SRC_A).unwrap();
        assert_eq!(h, h2);
        assert!(interner.lookup(h).is_ok());
    }

    #[test]
    fn intern_set_shares_with_source_interning() {
        let interner = Interner::new(8);
        let (h1, s1) = interner.intern(SRC_A).unwrap();
        // Re-interning the same structure as a built set reuses the
        // resident entry (memo included).
        interner.memoize(
            h1,
            4,
            MemoOutcome {
                admit: true,
                level: LadderLevel::Exact,
            },
        );
        let rebuilt = (*s1).clone();
        let (h2, s2) = interner.intern_set(rebuilt);
        assert_eq!(h1, h2);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(interner.memoized(h2, 4).is_some());
        interner.record_delta_hit();
        assert_eq!(interner.stats().delta_hits, 1);
    }

    #[test]
    fn parse_errors_surface() {
        let interner = Interner::new(8);
        assert!(matches!(
            interner.intern("task period=\nend"),
            Err(InternError::Parse(_))
        ));
    }

    /// The `k`-th of a family of small, structurally distinct sets.
    fn source(k: usize) -> String {
        format!("task period={}\n  node a 1\nend\n", 100 + k)
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Intern(usize),
        InternSet(usize),
        Lookup(usize),
        Poison(usize),
        Memoize(usize),
        Memoized(usize),
    }

    /// What one call answered, and the resident hashes after it (so the
    /// victims, and the order they went in, are compared step by step).
    type Step = (&'static str, Vec<u64>);

    const MODEL_CAP: usize = 4;
    const MEMO: MemoOutcome = MemoOutcome {
        admit: true,
        level: LadderLevel::Exact,
    };

    /// A plain LRU with the interner's documented policy and none of its
    /// machinery: an evicted entry is simply gone.
    #[derive(Default)]
    struct Model {
        tick: u64,
        /// hash → (last used, poisoned, memoized).
        entries: BTreeMap<u64, (u64, bool, bool)>,
        stats: InternerStats,
    }

    impl Model {
        fn insert(&mut self, hash: u64) {
            self.stats.misses += 1;
            if self.entries.len() >= MODEL_CAP {
                let lru = *self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.0)
                    .expect("non-empty")
                    .0;
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            }
            self.entries.insert(hash, (self.tick, false, false));
        }

        fn apply(&mut self, op: Op, hashes: &[u64]) -> Step {
            let answer = match op {
                Op::Intern(k) | Op::InternSet(k) | Op::Lookup(k) => {
                    let hash = hashes[k];
                    self.tick += 1;
                    match self.entries.get_mut(&hash) {
                        Some(e) if e.1 => {
                            self.entries.remove(&hash);
                            self.stats.evictions += 1;
                            if matches!(op, Op::InternSet(_)) {
                                self.insert(hash);
                                "ok"
                            } else {
                                "poisoned"
                            }
                        }
                        Some(e) => {
                            e.0 = self.tick;
                            self.stats.hits += 1;
                            "ok"
                        }
                        None if matches!(op, Op::Lookup(_)) => {
                            self.stats.misses += 1;
                            "unknown"
                        }
                        None => {
                            self.insert(hash);
                            "ok"
                        }
                    }
                }
                Op::Poison(k) => {
                    if let Some(e) = self.entries.get_mut(&hashes[k]) {
                        e.1 = true;
                    }
                    "ok"
                }
                Op::Memoize(k) => {
                    if let Some(e) = self.entries.get_mut(&hashes[k]) {
                        e.2 = true;
                    }
                    "ok"
                }
                Op::Memoized(k) => {
                    self.tick += 1;
                    match self.entries.get_mut(&hashes[k]) {
                        Some(e) if !e.1 => {
                            e.0 = self.tick;
                            if e.2 {
                                self.stats.memo_hits += 1;
                                "hit"
                            } else {
                                "none"
                            }
                        }
                        _ => "none",
                    }
                }
            };
            self.stats.entries = self.entries.len();
            (answer, self.entries.keys().copied().collect())
        }
    }

    fn apply(interner: &Interner, op: Op, hashes: &[u64], sets: &[TaskSet]) -> Step {
        let answer = match op {
            Op::Intern(k) => match interner.intern(&source(k)) {
                Ok(_) => "ok",
                Err(InternError::Poisoned) => "poisoned",
                Err(e) => panic!("{e}"),
            },
            Op::InternSet(k) => {
                assert_eq!(interner.intern_set(sets[k].clone()).0, hashes[k]);
                "ok"
            }
            Op::Lookup(k) => match interner.lookup(hashes[k]) {
                Ok(_) => "ok",
                Err(InternError::Poisoned) => "poisoned",
                Err(InternError::UnknownHash) => "unknown",
                Err(e) => panic!("{e}"),
            },
            Op::Poison(k) => {
                interner.poison(hashes[k]);
                "ok"
            }
            Op::Memoize(k) => {
                interner.memoize(hashes[k], 4, MEMO);
                "ok"
            }
            Op::Memoized(k) => interner.memoized(hashes[k], 4).map_or("none", |_| "hit"),
        };
        let (slots, waiting) = interner.retired();
        assert!(slots <= RETIRE_BUILDERS && waiting <= RETIRE_BOUND);
        (answer, interner.resident())
    }

    /// Runs `script` on a fresh interner from `threads` threads, call
    /// `i` made by thread `script[i].1 % threads` once call `i − 1` has
    /// returned (a turn counter serialises them).
    fn drive(
        script: &[(Op, usize)],
        threads: usize,
        hashes: &[u64],
        sets: &[TaskSet],
    ) -> (Vec<Step>, InternerStats) {
        let interner = Interner::new(MODEL_CAP);
        let turn = AtomicUsize::new(0);
        let steps = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for me in 0..threads {
                let (interner, turn, steps) = (&interner, &turn, &steps);
                scope.spawn(move || {
                    for (i, &(op, who)) in script.iter().enumerate() {
                        if who % threads != me {
                            continue;
                        }
                        while turn.load(Ordering::Acquire) != i {
                            thread::yield_now();
                        }
                        let step = apply(interner, op, hashes, sets);
                        steps.lock().unwrap().push(step);
                        turn.store(i + 1, Ordering::Release);
                    }
                });
            }
        });
        (steps.into_inner().unwrap(), interner.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Handing victims back to their builders is invisible: whoever
        /// calls, the interner answers, evicts and counts exactly as a
        /// plain LRU does.
        #[test]
        fn eviction_policy_is_that_of_a_plain_lru(
            script in prop::collection::vec((0usize..6, 0usize..10, 0usize..3), 1..160),
        ) {
            let sets: Vec<TaskSet> = (0..10)
                .map(|k| parse_task_set(&source(k)).expect("source parses"))
                .collect();
            let hashes: Vec<u64> = sets.iter().map(Interner::hash_set).collect();
            let script: Vec<(Op, usize)> = script
                .into_iter()
                .map(|(kind, k, who)| {
                    let op = [
                        Op::Intern, Op::InternSet, Op::Lookup, Op::Poison, Op::Memoize, Op::Memoized,
                    ][kind](k);
                    (op, who)
                })
                .collect();
            let mut model = Model::default();
            let expected: Vec<Step> = script.iter().map(|&(op, _)| model.apply(op, &hashes)).collect();
            for threads in [1, 3] {
                let (steps, stats) = drive(&script, threads, &hashes, &sets);
                prop_assert_eq!(&steps, &expected, "{} thread(s)", threads);
                prop_assert_eq!(stats, model.stats, "{} thread(s)", threads);
            }
        }
    }

    /// A builder that has stopped calling leaves at most a slot's worth
    /// of sets behind, nothing piles up behind a builder that keeps
    /// calling, and dropping the interner frees the lot.
    #[test]
    fn retired_sets_are_bounded_and_freed_with_the_interner() {
        const CAP: usize = 8;
        let interner = Interner::new(CAP);
        let built = Mutex::new(Vec::<Weak<TaskSet>>::new());
        let intern_checked = |k: usize| {
            let (_, set) = interner.intern(&source(k)).expect("source parses");
            built.lock().unwrap().push(Arc::downgrade(&set));
            let (slots, waiting) = interner.retired();
            assert!(interner.stats().entries <= CAP);
            assert!(slots <= RETIRE_BUILDERS && waiting <= RETIRE_BOUND);
            waiting
        };
        // A builder's own victims come back to it one call later.
        thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..CAP + 64 {
                    assert!(intern_checked(k) <= 1);
                }
            });
        });
        // Its entries are now evicted by somebody else: its slot fills,
        // then the evictor frees the overflow itself.
        for k in CAP + 64..2 * (CAP + 64) {
            assert!(intern_checked(k) <= RETIRE_PER_BUILDER + 1);
        }
        assert_eq!(interner.retired(), (2, RETIRE_PER_BUILDER + 1));
        // More builders than slots: the late ones go without.
        for k in 0..RETIRE_BUILDERS + 4 {
            thread::scope(|scope| {
                scope.spawn(|| intern_checked(2 * (CAP + 64) + k));
            });
        }
        assert_eq!(interner.retired().0, RETIRE_BUILDERS);
        assert_eq!(
            interner.stats().evictions as usize,
            built.lock().unwrap().len() - CAP
        );
        drop(interner);
        let built = built.into_inner().unwrap();
        assert!(built.iter().all(|set| set.upgrade().is_none()));
    }
}
