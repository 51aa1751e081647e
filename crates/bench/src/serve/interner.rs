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

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

struct Entry {
    set: Arc<TaskSet>,
    last_used: u64,
    poisoned: bool,
    /// Definitive outcomes by pool size `m` (tiny in practice).
    memo: Vec<(usize, MemoOutcome)>,
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
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.tick += 1;
        let tick = st.tick;
        match st.entries.get_mut(&hash) {
            Some(entry) if entry.poisoned => {
                st.entries.remove(&hash);
                st.stats.evictions += 1;
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
            st.entries.remove(&lru);
            st.stats.evictions += 1;
        }
        st.entries.insert(
            hash,
            Entry {
                set: Arc::clone(&shared),
                last_used: tick,
                poisoned: false,
                memo: Vec::new(),
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
        let mut st = self.state.lock().expect("interner lock not poisoned");
        st.tick += 1;
        let tick = st.tick;
        let mut resident = None;
        let mut poisoned = false;
        match st.entries.get_mut(&hash) {
            None => {}
            Some(entry) if entry.poisoned => poisoned = true,
            Some(entry) => {
                entry.last_used = tick;
                resident = Some(Arc::clone(&entry.set));
            }
        }
        if poisoned {
            st.entries.remove(&hash);
            st.stats.evictions += 1;
            return Err(InternError::Poisoned);
        }
        match resident {
            Some(set) => {
                st.stats.hits += 1;
                Ok(set)
            }
            None => {
                st.stats.misses += 1;
                Err(InternError::UnknownHash)
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
    use super::*;

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
}
