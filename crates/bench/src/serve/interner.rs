//! Content-hashed task-set interner with bounded capacity.
//!
//! Structurally identical submissions — byte-different sources that
//! parse to the same DAGs, periods, and deadlines — resolve to one
//! shared [`Arc<TaskSet>`], so every request after the first reuses the
//! graphs' `DerivedCache` (reachability, delay profiles, antichains)
//! instead of recomputing it. Definitive (non-degraded) ladder outcomes
//! are memoized per `(set, m)` on the same entry, which turns repeat
//! submissions into table lookups. A request that repeats an earlier
//! one byte for byte reuses more than that: it is not even parsed (see
//! "What a request may skip").
//!
//! Capacity is bounded: inserting beyond `capacity` evicts the
//! least-recently-used entry, so server RSS stays proportional to the
//! configured cap regardless of how many distinct workloads clients
//! submit. Eviction scans for the LRU entry — `O(capacity)` with small
//! caps, which is the regime the server runs in.
//!
//! Entries can be *poisoned* (by the service fault plan's
//! `PoisonCacheEntry` injection): a poisoned entry is reported to
//! exactly one observer via [`InternError::Poisoned`] and evicted, so
//! the supervisor's retry re-parses from source and repopulates a clean
//! entry.
//!
//! # What a request may skip
//!
//! Building a set only to find it resident is the dearest way to find
//! it: `parse_task_set` reads about 4 ns a byte (13–41 µs for the 3–11 KB
//! sources of 2–8 generated tasks, `cargo bench --bench serve_ingest`)
//! and calls the allocator about once per 120 bytes (71 times for an
//! 8.8 KB 8-task source, `tests/alloc_budget.rs`), and the set is hashed
//! (about 2 µs a set), compared with the entry and dropped, against 0.1 µs
//! for a request that names the set by hash. An `edit` whose patched
//! set is resident pays `parse_edit_script`, `Dag::edit`, `Task::new`,
//! `hash_set` (0.45 µs after one WCET edit: only the edited graph is
//! hashed again) and the comparison for the same nothing. So the
//! interner also knows the *recipes* of the sets it holds. A recipe is
//! what a request sent to name a set: a source text, or the content
//! hash of a base set plus an edit-script text. One index maps a recipe
//! fingerprint (the workspace's four-lane [`WordHash`] of the bytes,
//! computed before the lock is taken) to the recipe and the content
//! hash of the entry it produced, and [`Interner::intern`] /
//! [`Interner::recall_edit`] probe it before anything is built.
//!
//! # Why a hash match is compared
//!
//! [`Interner::hash_set`] is a 64-bit hash with no key, so a set can be
//! made to collide with another on purpose. A built set that finds an
//! entry under its hash is therefore compared with it (`==` on the
//! sets: every graph's WCETs, successor rows and pairs, every period
//! and deadline, the backend) before it is shared; one that differs is
//! answered from itself and neither interned nor memoized
//! ([`Interned::resident`] is false). Only a hit pays for the
//! comparison, and outside the lock: a graph that shares its topology
//! with the entry's (a clone, a WCET-only edit) compares its WCETs
//! alone, and `admit-cold`, where every request misses, never compares
//! at all.
//!
//! * **Why a hit is right.** A probe hits only when the stored recipe
//!   *equals* the probe's, byte for byte and base hash for base hash.
//!   `parse_task_set` and the edit application are pure functions
//!   of those bytes (and of the set the base hash names), so the hit
//!   returns exactly the entry the build would have been shared into.
//!   The fingerprint picks which entry to compare with; it decides the
//!   hit rate, never an answer (one unit test runs with every
//!   fingerprint forced equal).
//! * **Second sighting.** The index remembers, per entry, the latest
//!   recipe of each kind that reached it: its fingerprint from the
//!   first sighting, its bytes only from the second sighting on. So
//!   the first send of a text builds, the second builds and keeps the
//!   text, the third and later are recalled. Keeping every text from
//!   the first send was measured and rejected: on the registered
//!   `admit-cold` workload, where no source ever repeats while its set
//!   is resident, it cost a 6–17 KB allocation per miss and +1.5–2 MB
//!   `peak_rss_mb`; this way a never-repeated source costs one
//!   fingerprint pass and an index row.
//! * **Eviction.** An entry lists the fingerprints of its two recipes,
//!   and `State::evict` — LRU or poisoned — removes those rows with
//!   the entry. So every row names a resident entry that lists it,
//!   there are at most two rows and two kept texts per entry, and a
//!   text is freed with the entry it names.
//! * **What a hit does.** Exactly what the build-then-share path does
//!   when it finds the entry: the tick advances, the entry becomes the
//!   most recently used, `hits` counts it (an edit also touches and
//!   counts its base, and counts a `delta_hit`), the caller collects
//!   its retired sets. A recalled source whose entry is poisoned evicts
//!   it and reports [`InternError::Poisoned`] once, as a parsed one
//!   does; an edit whose base or patched entry is poisoned or gone is
//!   not recalled at all — the probe changes nothing, and the slow path
//!   reports or replaces what it finds, in the order it always did.
//!   Eviction order, every answer and every [`InternerStats`] counter
//!   but `recalled` are those of an interner without the index; the
//!   model test below holds it to a plain LRU that has never heard of
//!   texts.
//!
//! # Who frees an evicted set
//!
//! A parsed set with a filled `DerivedCache` is about 90 heap blocks
//! (89 for an 8-task, 247-node generated set since a `Dag` is one id
//! block, one closure and its topology; 153 before, and 650–1 600 while
//! every node owned its adjacency lists and closure rows), and at
//! capacity every miss evicts one. Were the evicting thread to free it,
//! half of those frees (at two workers) would go to the malloc arena of
//! the *other* worker — the one that built the set — while that worker
//! allocates its next set from the same arena, and the workers would
//! serialise on the allocator instead of on anything in this file. That
//! still holds at the smaller block count. Re-measured at about 90
//! blocks with the slots below bypassed (every victim freed by its
//! evictor, outside the lock), `cargo bench -p rtpool-bench --bench
//! serve_scaling` gives two threads 1.45–1.60× the `execute` throughput
//! of one, where the slots give 1.91–2.02× (three runs each), so the
//! bypass now clears the 1.4× bar; but the registered `admit-cold`
//! workload loses 21 % throughput without the slots (13 270 against
//! 16 880 ops/s median, p50 138 against 109 µs; five alternating pairs,
//! seeds 21–25, the slots ahead in all five). At 150 blocks the bypass
//! read 1.22–1.28× and −24 %. They stay. So an entry
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
//! lock); a builder that stops calling (a server worker at shutdown)
//! leaves at most a slot's worth of sets behind, freed with the
//! interner. The callers are the server's own workers, a fixed set of
//! threads, so the slots are not used up by threads that come and go.
//! None of this is visible from outside: which entry is evicted, every
//! hash, the memo and every [`InternerStats`] counter are what they
//! would be if eviction dropped the victim on the spot.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use rtpool_core::textfmt::{parse_task_set, ParseTaskError};
use rtpool_core::SyncBackend;
use rtpool_core::TaskSet;
use rtpool_graph::WordHash;

use super::protocol::LadderLevel;

/// A memoized definitive ladder outcome for one `(set, m)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoOutcome {
    /// Whether the set was admitted.
    pub admit: bool,
    /// The rung that decided.
    pub level: LadderLevel,
}

/// The set a request resolved to.
#[derive(Clone, Debug)]
pub struct Interned {
    /// The set's content hash ([`Interner::hash_set`]).
    pub hash: u64,
    /// The set to answer from.
    pub set: Arc<TaskSet>,
    /// Whether `set` is the entry resident under `hash`. False only for
    /// a set that was built and met a resident set that hashes the same
    /// but is not equal to it: that set is answered as built, and is
    /// neither interned nor memoized, so it can take no other set's
    /// verdict and give none.
    pub resident: bool,
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

/// What a request sent to name a set.
#[derive(Clone, Copy)]
struct Sent<'a> {
    /// `None` for an inline source; for an edit script, the content
    /// hash of the set it edits.
    base: Option<u64>,
    text: &'a str,
    /// [`Sent::fingerprint`] of the two, taken once, outside the lock.
    fingerprint: u64,
}

impl<'a> Sent<'a> {
    fn new(base: Option<u64>, text: &'a str) -> Self {
        Sent {
            base,
            text,
            fingerprint: Sent::fingerprint(base, text),
        }
    }

    /// Index of this kind of recipe in [`Entry::recipes`].
    fn kind(self) -> usize {
        usize::from(self.base.is_some())
    }

    /// Fingerprint of a recipe: the workspace's [`WordHash`] of the
    /// text's bytes, four lanes per 32-byte block (one multiplication
    /// per word), then the length, seeded with the base hash.
    fn fingerprint(base: Option<u64>, text: &str) -> u64 {
        #[cfg(test)]
        if tests::FINGERPRINTS_COLLIDE.with(std::cell::Cell::get) {
            return 0;
        }
        let mut h = WordHash::new(base.map_or(0, |base| !base));
        h.bytes(text.as_bytes());
        h.finish()
    }
}

/// What the index holds under a fingerprint: a recipe, and the entry it
/// produced.
struct Known {
    /// Content hash of that entry.
    hash: u64,
    base: Option<u64>,
    /// Kept from the second sighting of the recipe on.
    text: Option<Arc<str>>,
}

struct Entry {
    set: Arc<TaskSet>,
    last_used: u64,
    poisoned: bool,
    /// Definitive outcomes by pool size `m` (tiny in practice).
    memo: Vec<(usize, MemoOutcome)>,
    /// The thread that built `set` and inserted it.
    builder: ThreadId,
    /// Fingerprints of the latest source and of the latest edit that
    /// produced `set` (indexed by [`Sent::kind`]): the index rows that
    /// go when the entry goes.
    recipes: [Option<u64>; 2],
}

/// Evicted sets waiting for the thread that built them.
struct RetireSlot {
    builder: ThreadId,
    sets: Vec<Arc<TaskSet>>,
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
    /// was resident, so the patched set entered the cache through
    /// `Dag::edit` (untouched and WCET-only tasks keeping their
    /// `DerivedCache` cells) instead of through the parser.
    pub delta_hits: u64,
    /// Sources and edits resolved from their recipe, without building
    /// anything (each is also counted in `hits`, an edit in
    /// `delta_hits`).
    pub recalled: u64,
}

/// What [`State::reach`] found under a hash.
enum Resident {
    Shared(Arc<TaskSet>),
    /// The entry was poisoned; it has been evicted.
    Poisoned,
    Absent,
}

struct State {
    entries: HashMap<u64, Entry>,
    /// Recipe fingerprint → the recipe and the entry it produced.
    recipes: HashMap<u64, Known>,
    tick: u64,
    /// `entries` is filled in by [`Interner::stats`].
    stats: InternerStats,
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

    /// Removes the entry under `hash`, and its index rows, and counts
    /// the eviction. Its set moves to its builder's retire slot; when
    /// there is none, or it is full, the set is returned for the caller
    /// to drop once it has released the lock.
    fn evict(&mut self, hash: u64) -> Option<Arc<TaskSet>> {
        let victim = self
            .entries
            .remove(&hash)
            .expect("evicting a resident entry");
        self.stats.evictions += 1;
        for fingerprint in victim.recipes.into_iter().flatten() {
            self.unindex(fingerprint, hash);
        }
        match self.retire.iter_mut().find(|s| s.builder == victim.builder) {
            Some(slot) if slot.sets.len() < RETIRE_PER_BUILDER => {
                slot.sets.push(victim.set);
                None
            }
            _ => Some(victim.set),
        }
    }

    /// Removes the row under `fingerprint` if it names `hash` (after a
    /// fingerprint collision it names the other entry, and stays).
    fn unindex(&mut self, fingerprint: u64, hash: u64) {
        if self
            .recipes
            .get(&fingerprint)
            .is_some_and(|known| known.hash == hash)
        {
            self.recipes.remove(&fingerprint);
        }
    }

    /// The least recently used entry. A plain loop on purpose: written
    /// as `iter().min_by_key(..)` the scan stopped being inlined when
    /// the function around it grew, and a call per entry made it 1.7 µs
    /// instead of 0.5 at 256 entries — per miss, under the lock.
    fn lru(&self) -> u64 {
        let mut lru = (u64::MAX, 0);
        for (&hash, entry) in &self.entries {
            if entry.last_used < lru.0 {
                lru = (entry.last_used, hash);
            }
        }
        lru.1
    }

    /// One request reaching `hash`: the tick advances; a clean resident
    /// entry becomes the most recently used and is shared, a poisoned
    /// one is evicted (into `freed`, when the caller must drop it).
    fn reach(&mut self, hash: u64, freed: &mut Vec<Arc<TaskSet>>) -> Resident {
        self.tick += 1;
        match self.entries.get_mut(&hash) {
            None => Resident::Absent,
            Some(entry) if entry.poisoned => {
                freed.extend(self.evict(hash));
                Resident::Poisoned
            }
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Resident::Shared(Arc::clone(&entry.set))
            }
        }
    }

    /// The resident entry `sent` is known to produce: the one the index
    /// names, if the recipe it holds is `sent` byte for byte.
    fn produced_by(&self, sent: Sent<'_>) -> Option<u64> {
        let known = self.recipes.get(&sent.fingerprint)?;
        (known.base == sent.base && known.text.as_deref() == Some(sent.text)).then_some(known.hash)
    }

    /// Records that `sent` produced the resident entry under `hash`: a
    /// first sighting takes over the entry's recipe of that kind, by
    /// fingerprint alone; a second one keeps the text.
    fn note(&mut self, hash: u64, sent: Sent<'_>) {
        match self.recipes.get_mut(&sent.fingerprint) {
            Some(known) if known.hash == hash && known.base == sent.base => {
                if known.text.as_deref() != Some(sent.text) {
                    known.text = Some(Arc::from(sent.text));
                }
            }
            _ => {
                let entry = self
                    .entries
                    .get_mut(&hash)
                    .expect("noting a resident entry");
                if let Some(old) = entry.recipes[sent.kind()].replace(sent.fingerprint) {
                    self.unindex(old, hash);
                }
                let first = Known {
                    hash,
                    base: sent.base,
                    text: None,
                };
                self.recipes.insert(sent.fingerprint, first);
            }
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
                recipes: HashMap::new(),
                tick: 0,
                stats: InternerStats::default(),
                retire: Vec::new(),
            }),
        }
    }

    /// The structural content hash of a task set: the [`WordHash`] of
    /// the task count, then every task's DAG hash, period and deadline,
    /// in priority order, then a `1` for a spin set. A spin set and its
    /// suspend twin get different hashes, so neither is answered from
    /// the other's entry.
    #[must_use]
    pub fn hash_set(set: &TaskSet) -> u64 {
        let mut h = WordHash::new(0);
        h.word(set.len() as u64);
        for (_, task) in set.iter() {
            h.words(&[task.dag().content_hash(), task.period(), task.deadline()]);
        }
        if set.backend() == SyncBackend::Spin {
            h.word(1);
        }
        h.finish()
    }

    /// Interns `source`, returning the content hash and the shared set:
    /// [`Interner::resolve`] without saying whether the set is resident.
    ///
    /// # Errors
    ///
    /// As [`Interner::resolve`].
    pub fn intern(&self, source: &str) -> Result<(u64, Arc<TaskSet>), InternError> {
        self.resolve(source).map(|got| (got.hash, got.set))
    }

    /// Interns `source`. A source that is the latest text a resident
    /// entry was parsed from (and has been sent twice) is recalled
    /// without parsing; otherwise it is parsed, and a resident set equal
    /// to it under its hash is reused (its `DerivedCache` and verdict
    /// memo included). Either way a poisoned resident entry is evicted
    /// and reported once.
    ///
    /// # Errors
    ///
    /// [`InternError::Parse`] when the source is invalid,
    /// [`InternError::Poisoned`] when the resident entry was poisoned.
    pub fn resolve(&self, source: &str) -> Result<Interned, InternError> {
        let sent = Sent::new(None, source);
        if let Some(recalled) = self.recall(sent) {
            return recalled;
        }
        let parsed = parse_task_set(source).map_err(InternError::Parse)?;
        self.share_or_insert(Interner::hash_set(&parsed), parsed, true, Some(sent))
    }

    /// Interns an already-built set, returning its content hash and the
    /// shared set. A structurally identical resident set is reused —
    /// memo included. A poisoned resident entry is replaced by the
    /// fresh set.
    pub fn intern_set(&self, set: TaskSet) -> (u64, Arc<TaskSet>) {
        let got = self
            .share_or_insert(Interner::hash_set(&set), set, false, None)
            .expect("a poisoned entry is replaced, not reported");
        (got.hash, got.set)
    }

    /// [`Interner::intern_set`] for the `edit` verb: `patched` is what
    /// `script` made of the resident set under `base`. Counts the delta
    /// hit and remembers the recipe, so that [`Interner::recall_edit`]
    /// can answer the same edit without `patched` being built again;
    /// repeated identical edits of one base hit the verdict memo.
    pub fn intern_edited(&self, base: u64, script: &str, patched: TaskSet) -> Interned {
        let sent = Sent::new(Some(base), script);
        self.share_or_insert(Interner::hash_set(&patched), patched, false, Some(sent))
            .expect("a poisoned entry is replaced, not reported")
    }

    /// The hash and set that applying `script` to the set under `base`
    /// gives, when that is known without applying it: `(base, script)`
    /// is the latest edit that produced a resident entry (sent twice
    /// before), and that entry and the base are resident and clean.
    /// Then this is the whole of the edit — base looked up, patched set
    /// shared, delta hit counted. `None` changes nothing: the caller
    /// parses the script, looks the base up, applies and calls
    /// [`Interner::intern_edited`], and meets every error where it
    /// always did.
    #[must_use]
    pub fn recall_edit(&self, base: u64, script: &str) -> Option<Interned> {
        let recalled = self.recall(Sent::new(Some(base), script))?;
        Some(recalled.expect("a poisoned edit is not recalled"))
    }

    /// Answers `sent` from the entry its recipe names, doing to that
    /// entry (and to an edit's base) what the slow path's look-ups
    /// would; `None`, with nothing changed, when there is no such entry
    /// or — for an edit — the slow path would not find both entries
    /// clean.
    fn recall(&self, sent: Sent<'_>) -> Option<Result<Interned, InternError>> {
        let me = thread::current().id();
        // Declared before the guard: dropped after the lock is released.
        let mut freed_unlocked;
        let mut st = self.state.lock().expect("interner lock not poisoned");
        let hash = st.produced_by(sent)?;
        if let Some(base) = sent.base {
            let clean = |h| st.entries.get(h).is_some_and(|entry| !entry.poisoned);
            if !(clean(&base) && clean(&hash)) {
                return None;
            }
            // Clean, so nothing is evicted and there is nothing to free.
            st.reach(base, &mut Vec::new());
            st.stats.delta_hits += 1;
        }
        freed_unlocked = st.check_in(me);
        Some(match st.reach(hash, &mut freed_unlocked) {
            Resident::Shared(set) => {
                st.stats.recalled += 1;
                Ok(Interned {
                    hash,
                    set,
                    resident: true,
                })
            }
            Resident::Poisoned => Err(InternError::Poisoned),
            Resident::Absent => unreachable!("the index names resident entries only"),
        })
    }

    /// Shares the resident entry for `hash` or inserts `set` under it,
    /// evicting the least-recently-used entry at capacity, and notes
    /// the `recipe` that led here on the entry. A poisoned resident
    /// entry is always evicted; it then either fails the call
    /// (`evict_poisoned_is_error`) or is replaced by `set`. A clean
    /// resident entry that is not equal to `set` (the two collide on
    /// `hash`) is left as it is, and `set` is answered on its own.
    ///
    /// Only a hit compares, and outside the lock: the resident set is
    /// read from memory the lock holder has not touched for a while
    /// (about 1–2 µs an `admit-cold`-sized set), and with the comparison
    /// under the lock `serve_overload`'s calm stayed refused for 2–4 s.
    /// The entry is looked up again afterwards; if it was replaced
    /// meanwhile, the new one is compared in turn.
    fn share_or_insert(
        &self,
        hash: u64,
        set: TaskSet,
        evict_poisoned_is_error: bool,
        recipe: Option<Sent<'_>>,
    ) -> Result<Interned, InternError> {
        let me = thread::current().id();
        // Every set this call frees, and the resident set it compared
        // with: declared before the guard, so on every return path they
        // are dropped after the lock is released (as is `set`, when a
        // resident entry is shared instead).
        let mut freed_unlocked;
        let mut compared: Option<(Arc<TaskSet>, bool)> = None;
        let (mut st, differs) = loop {
            let st = self.state.lock().expect("interner lock not poisoned");
            let resident = st.entries.get(&hash).filter(|entry| !entry.poisoned);
            let Some(resident) = resident.map(|entry| Arc::clone(&entry.set)) else {
                break (st, false);
            };
            if let Some((seen, same)) = &compared {
                if Arc::ptr_eq(seen, &resident) {
                    break (st, !same);
                }
            }
            drop(st);
            let same = *resident == set;
            compared = Some((resident, same));
        };
        freed_unlocked = st.check_in(me);
        if differs {
            st.stats.misses += 1;
            return Ok(Interned {
                hash,
                set: Arc::new(set),
                resident: false,
            });
        }
        let shared = match st.reach(hash, &mut freed_unlocked) {
            Resident::Shared(shared) => shared,
            Resident::Poisoned if evict_poisoned_is_error => return Err(InternError::Poisoned),
            Resident::Poisoned | Resident::Absent => {
                st.stats.misses += 1;
                let shared = Arc::new(set);
                if st.entries.len() >= self.capacity {
                    let lru = st.lru();
                    freed_unlocked.extend(st.evict(lru));
                }
                let tick = st.tick;
                st.entries.insert(
                    hash,
                    Entry {
                        set: Arc::clone(&shared),
                        last_used: tick,
                        poisoned: false,
                        memo: Vec::new(),
                        builder: me,
                        recipes: [None, None],
                    },
                );
                shared
            }
        };
        if let Some(sent) = recipe {
            st.note(hash, sent);
            if sent.base.is_some() {
                st.stats.delta_hits += 1;
            }
        }
        Ok(Interned {
            hash,
            set: shared,
            resident: true,
        })
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
        let mut freed_unlocked = Vec::new();
        let mut st = self.state.lock().expect("interner lock not poisoned");
        match st.reach(hash, &mut freed_unlocked) {
            Resident::Shared(set) => Ok(set),
            Resident::Poisoned => Err(InternError::Poisoned),
            Resident::Absent => {
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
            ..st.stats
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Weak;

    use proptest::prelude::*;
    use rtpool_core::CancelToken;
    use rtpool_exec::RecoveryPolicy;

    use super::super::protocol::{Request, RequestBody, VerdictKind};
    use super::super::supervisor::{ServiceFaultPlan, Supervisor};
    use super::*;

    thread_local! {
        /// Gives every recipe this thread fingerprints the same
        /// fingerprint, so that only the byte comparison can tell two
        /// recipes apart.
        pub(super) static FINGERPRINTS_COLLIDE: Cell<bool> = const { Cell::new(false) };
    }

    impl Interner {
        /// Checks the index: every row names a resident entry that lists
        /// the row's fingerprint, so there are at most two rows per
        /// entry.
        fn check_index(&self) {
            let st = self.state.lock().expect("interner lock not poisoned");
            for (fingerprint, known) in &st.recipes {
                let entry = st
                    .entries
                    .get(&known.hash)
                    .expect("a row names a resident entry");
                assert!(
                    entry.recipes.contains(&Some(*fingerprint)),
                    "row {fingerprint:x} names an entry that does not list it"
                );
            }
            assert!(st.recipes.len() <= 2 * st.entries.len());
        }

        /// The source text kept for the entry under `hash`, if any.
        fn kept_source(&self, hash: u64) -> Option<Weak<str>> {
            let st = self.state.lock().expect("interner lock not poisoned");
            let known = st.recipes.get(&st.entries.get(&hash)?.recipes[0]?)?;
            assert_eq!(known.hash, hash, "no collisions in these tests");
            known.text.as_ref().map(Arc::downgrade)
        }

        /// Hashes of the resident entries, least recently used first.
        fn resident(&self) -> Vec<u64> {
            let st = self.state.lock().expect("interner lock not poisoned");
            let mut hashes: Vec<u64> = st.entries.keys().copied().collect();
            hashes.sort_unstable_by_key(|hash| st.entries[hash].last_used);
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
        assert_eq!(interner.stats().delta_hits, 0);
    }

    #[test]
    fn parse_errors_surface() {
        let interner = Interner::new(8);
        assert!(matches!(
            interner.intern("task period=\nend"),
            Err(InternError::Parse(_))
        ));
    }

    /// A send-thrice unit of each kind of recipe: the first sending
    /// builds, the second builds and keeps the text, the third is
    /// recalled.
    #[test]
    fn third_sending_is_recalled() {
        let interner = Interner::new(8);
        let (h, s1) = interner.intern(SRC_A).unwrap();
        assert!(
            interner.kept_source(h).is_none(),
            "first sighting keeps no text"
        );
        let (_, s2) = interner.intern(SRC_A).unwrap();
        assert!(
            interner.kept_source(h).is_some(),
            "second sighting keeps it"
        );
        let stats = interner.stats();
        assert_eq!((stats.misses, stats.hits, stats.recalled), (1, 1, 0));
        let (h3, s3) = interner.intern(SRC_A).unwrap();
        assert_eq!(h3, h);
        assert!(Arc::ptr_eq(&s1, &s2) && Arc::ptr_eq(&s1, &s3));
        let stats = interner.stats();
        assert_eq!((stats.misses, stats.hits, stats.recalled), (1, 2, 1));

        // An alias takes the recipe over; the old text is recalled no more.
        interner.intern(SRC_A2).unwrap();
        assert!(interner.kept_source(h).is_none());
        interner.intern(SRC_A).unwrap();
        interner.intern(SRC_A).unwrap();
        assert_eq!(interner.stats().recalled, 1);
        interner.intern(SRC_A).unwrap();
        assert_eq!(interner.stats().recalled, 2);

        // The same three steps for an edit of `h` into SRC_B's shape.
        let patched = || parse_task_set(SRC_B).unwrap();
        let script = "not parsed here";
        assert!(interner.recall_edit(h, script).is_none());
        let hb = interner.intern_edited(h, script, patched()).hash;
        assert!(interner.recall_edit(h, script).is_none());
        interner.intern_edited(h, script, patched());
        let before = interner.stats();
        let recalled = interner.recall_edit(h, script).expect("third sending").hash;
        assert_eq!(recalled, hb);
        let after = interner.stats();
        assert_eq!(
            after,
            InternerStats {
                hits: before.hits + 2,
                delta_hits: before.delta_hits + 1,
                recalled: before.recalled + 1,
                ..before
            },
            "base looked up, patched set shared, delta hit counted"
        );
        // Another base, another script, a poisoned or absent base: no recall.
        assert!(interner.recall_edit(hb, script).is_none());
        assert!(interner.recall_edit(h, "not parsed here ").is_none());
        interner.poison(h);
        assert!(interner.recall_edit(h, script).is_none());
        assert_eq!(interner.stats(), after, "a failed probe changes nothing");
        interner.check_index();
    }

    /// A kept text lives exactly as long as the entry it names.
    #[test]
    fn kept_text_is_dropped_with_its_entry() {
        let interner = Interner::new(2);
        let (ha, _) = interner.intern(SRC_A).unwrap();
        interner.intern(SRC_A).unwrap();
        let kept = interner
            .kept_source(ha)
            .expect("second sighting keeps the text");
        assert_eq!(kept.upgrade().as_deref(), Some(SRC_A));
        // LRU eviction.
        interner.intern(SRC_B).unwrap();
        interner.intern(&source(0)).unwrap();
        assert_eq!(interner.lookup(ha).unwrap_err(), InternError::UnknownHash);
        assert!(kept.upgrade().is_none(), "the text went with its entry");
        // The next sending is a first sighting again.
        interner.intern(SRC_A).unwrap();
        assert!(interner.kept_source(ha).is_none());
        interner.intern(SRC_A).unwrap();
        let kept = interner.kept_source(ha).expect("kept again");
        // Poisoned eviction, observed by the recall itself.
        interner.poison(ha);
        assert_eq!(interner.intern(SRC_A).unwrap_err(), InternError::Poisoned);
        assert!(kept.upgrade().is_none());
        assert_eq!(interner.stats().recalled, 0);
        interner.check_index();
    }

    /// With every fingerprint equal the index names one entry at most,
    /// and whether a probe hits is down to the byte comparison alone:
    /// texts one digit, one space or one base hash apart never answer
    /// for each other.
    #[test]
    fn colliding_fingerprints_cost_hits_not_answers() {
        FINGERPRINTS_COLLIDE.with(|c| c.set(true));
        let near = [
            SRC_A.to_string(),
            SRC_A.replace("node a 10", "node a 11"),
            SRC_A.replace("node a 10", "node a 10 "),
            SRC_A2.to_string(),
            SRC_B.to_string(),
        ];
        let fresh = |text: &str| Interner::new(8).intern(text).unwrap().0;
        let interner = Interner::new(8);
        for round in 0..4 {
            for text in &near {
                // Twice in a row, so that texts are kept and recalled.
                for _ in 0..2 + round % 2 {
                    assert_eq!(interner.intern(text).unwrap().0, fresh(text), "{text:?}");
                    interner.check_index();
                }
            }
        }
        assert!(
            interner.stats().recalled > 0,
            "immediate re-sends are recalled"
        );

        let (ha, _) = interner.intern(SRC_A).unwrap();
        let (hb, _) = interner.intern(SRC_B).unwrap();
        let patched =
            |w: u64| parse_task_set(&format!("task period=9\n  node a {w}\nend\n")).unwrap();
        let edits = [
            (ha, "wcet:0.0=5", 5),
            (ha, "wcet:0.0=6", 6),
            (hb, "wcet:0.0=5", 7),
        ];
        for _ in 0..3 {
            for &(base, script, w) in &edits {
                for _ in 0..3 {
                    let hash = match interner.recall_edit(base, script) {
                        Some(got) => got.hash,
                        None => interner.intern_edited(base, script, patched(w)).hash,
                    };
                    assert_eq!(
                        hash,
                        Interner::hash_set(&patched(w)),
                        "{script} on {base:x}"
                    );
                    interner.check_index();
                }
            }
        }
        FINGERPRINTS_COLLIDE.with(|c| c.set(false));
    }

    /// A set that arrives under a resident set's hash but is not equal
    /// to it (a forged collision) is answered from itself: the resident
    /// entry, its memo and the recipe index stay as they were, and the
    /// forged set's text is never recalled as the resident set.
    #[test]
    fn a_forged_hash_is_answered_from_the_built_set() {
        let interner = Interner::new(8);
        let (ha, a) = interner.intern(SRC_A).unwrap();
        let memo = MemoOutcome {
            admit: true,
            level: LadderLevel::Exact,
        };
        interner.memoize(ha, 2, memo);
        let b = parse_task_set(SRC_B).unwrap();
        assert_ne!(Interner::hash_set(&b), ha, "the collision is forged");
        let before = interner.stats();
        for _ in 0..3 {
            let got = interner
                .share_or_insert(ha, b.clone(), true, Some(Sent::new(None, SRC_B)))
                .unwrap();
            assert!(!got.resident);
            assert_eq!((got.hash, &*got.set), (ha, &b));
            interner.check_index();
        }
        assert!(Arc::ptr_eq(&interner.lookup(ha).unwrap(), &a));
        assert_eq!(interner.memoized(ha, 2), Some(memo));
        let after = interner.stats();
        // The one hit is the `lookup`.
        assert_eq!((after.entries, after.hits), (1, before.hits + 1));
        assert_eq!(after.misses, before.misses + 3);
        // Nothing of the forged sends was noted, so B's text builds B.
        let (hb, got_b) = interner.intern(SRC_B).unwrap();
        assert_eq!((hb, &*got_b), (Interner::hash_set(&b), &b));
        // A set equal to the resident one is still shared, a clone (one
        // topology) or a fresh parse (its own) alike.
        for same in [TaskSet::clone(&a), parse_task_set(SRC_A2).unwrap()] {
            let got = interner.share_or_insert(ha, same, true, None).unwrap();
            assert!(got.resident && Arc::ptr_eq(&got.set, &a));
        }
    }

    /// Periods of the model's sets; each comes with WCET 1, 2 and 3.
    const PERIODS: usize = 4;
    const WCETS: usize = 3;

    /// The `k`-th of a family of small, structurally distinct sets:
    /// `k / WCETS` picks the period, `k % WCETS` the WCET, so that an
    /// edit of one set's WCET gives one of its two siblings (or itself).
    fn source(k: usize) -> String {
        format!(
            "task period={}\n  node a {}\nend\n",
            100 + k / WCETS,
            1 + k % WCETS
        )
    }

    /// A byte-different source of the same structure as `source(k)`.
    fn alias(k: usize) -> String {
        format!(
            "# alias\ntask period={}\n  node renamed {}\nend\n",
            100 + k / WCETS,
            1 + k % WCETS
        )
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Intern(usize),
        InternAlias(usize),
        InternSet(usize),
        Lookup(usize),
        Poison(usize),
        Memoize(usize),
        Memoized(usize),
        /// `edit` request on set `k` setting its WCET to `1 + j`,
        /// through [`Supervisor::execute`].
        Edit(usize, usize),
    }

    /// What one call answered, and the resident hashes after it, least
    /// recently used first (so every touch, every victim and the order
    /// they went in are compared step by step).
    type Step = (&'static str, Vec<u64>);

    const MODEL_CAP: usize = 4;
    const MODEL_M: usize = 4;
    const MEMO: MemoOutcome = MemoOutcome {
        admit: true,
        level: LadderLevel::Exact,
    };

    /// A plain LRU with the interner's documented policy and none of its
    /// machinery: an evicted entry is simply gone, and nobody remembers
    /// what text or edit a set came from.
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
                Op::Intern(k) | Op::InternAlias(k) | Op::InternSet(k) | Op::Lookup(k) => {
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
                // What the supervisor does for an `edit`, spelled in the
                // model's own operations.
                Op::Edit(k, j) => match self.apply(Op::Lookup(k), hashes).0 {
                    "ok" => {
                        let patched = k - k % WCETS + j;
                        self.apply(Op::InternSet(patched), hashes);
                        self.stats.delta_hits += 1;
                        if self.apply(Op::Memoized(patched), hashes).0 == "none" {
                            self.apply(Op::Memoize(patched), hashes);
                        }
                        "ok"
                    }
                    // The poisoned base is evicted and the one retry
                    // finds it gone.
                    "poisoned" => self.apply(Op::Lookup(k), hashes).0,
                    unknown => unknown,
                },
            };
            self.stats.entries = self.entries.len();
            let mut resident: Vec<u64> = self.entries.keys().copied().collect();
            resident.sort_unstable_by_key(|hash| self.entries[hash].0);
            (answer, resident)
        }
    }

    fn apply(
        interner: &Interner,
        supervisor: &Supervisor,
        op: Op,
        hashes: &[u64],
        sets: &[TaskSet],
    ) -> Step {
        let interned = |result: Result<(u64, Arc<TaskSet>), InternError>, k: usize| match result {
            Ok((hash, _)) => {
                assert_eq!(hash, hashes[k]);
                "ok"
            }
            Err(InternError::Poisoned) => "poisoned",
            Err(e) => panic!("{e}"),
        };
        let answer = match op {
            Op::Intern(k) => interned(interner.intern(&source(k)), k),
            Op::InternAlias(k) => interned(interner.intern(&alias(k)), k),
            Op::InternSet(k) => interned(Ok(interner.intern_set(sets[k].clone())), k),
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
                interner.memoize(hashes[k], MODEL_M, MEMO);
                "ok"
            }
            Op::Memoized(k) => interner
                .memoized(hashes[k], MODEL_M)
                .map_or("none", |_| "hit"),
            Op::Edit(k, j) => {
                let request = Request {
                    id: 0,
                    m: MODEL_M,
                    priority: 4,
                    deadline_us: 0,
                    body: RequestBody::Edit {
                        base: hashes[k],
                        script: format!("wcet:0.0={}", 1 + j),
                    },
                };
                let out = supervisor.execute(0, &request, interner, &CancelToken::never());
                if out.verdict == VerdictKind::Error {
                    assert!(
                        out.detail.contains("unknown content hash"),
                        "{}",
                        out.detail
                    );
                    "unknown"
                } else {
                    assert_eq!(out.hash, Some(hashes[k - k % WCETS + j]));
                    "ok"
                }
            }
        };
        let (slots, waiting) = interner.retired();
        assert!(slots <= RETIRE_BUILDERS && waiting <= RETIRE_BOUND);
        interner.check_index();
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
        let supervisor = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
        let turn = AtomicUsize::new(0);
        let steps = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for me in 0..threads {
                let (interner, supervisor, turn, steps) = (&interner, &supervisor, &turn, &steps);
                scope.spawn(move || {
                    for (i, &(op, who)) in script.iter().enumerate() {
                        if who % threads != me {
                            continue;
                        }
                        while turn.load(Ordering::Acquire) != i {
                            thread::yield_now();
                        }
                        let step = apply(interner, supervisor, op, hashes, sets);
                        steps.lock().unwrap().push(step);
                        turn.store(i + 1, Ordering::Release);
                    }
                });
            }
        });
        (steps.into_inner().unwrap(), interner.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Neither handing victims back to their builders nor answering
        /// from recipes is visible: whoever calls, and however often a
        /// text or an edit is repeated, the interner answers, evicts and
        /// counts exactly as a plain LRU does. Each drawn operation is
        /// made one to three times in a row, and one draw in four makes
        /// an operation of up to twelve calls ago again, so that third
        /// sendings — the recalled ones — are common, next to their
        /// first two and apart from them.
        #[test]
        fn eviction_policy_is_that_of_a_plain_lru(
            draws in prop::collection::vec(
                (0usize..12, 0usize..PERIODS * WCETS, 0usize..WCETS, 0usize..3, 1usize..4),
                1..80,
            ),
        ) {
            let sets: Vec<TaskSet> = (0..PERIODS * WCETS)
                .map(|k| parse_task_set(&source(k)).expect("source parses"))
                .collect();
            let hashes: Vec<u64> = sets.iter().map(Interner::hash_set).collect();
            for (k, set) in sets.iter().enumerate() {
                let aliased = parse_task_set(&alias(k)).expect("alias parses");
                prop_assert_eq!(Interner::hash_set(&aliased), hashes[k]);
                prop_assert_eq!(set.len(), 1);
            }
            let mut script: Vec<(Op, usize)> = Vec::new();
            for (kind, k, j, who, times) in draws {
                let op = match kind {
                    0 => Op::Intern(k),
                    1 => Op::InternAlias(k),
                    2 => Op::InternSet(k),
                    3 => Op::Lookup(k),
                    4 => Op::Poison(k),
                    5 => Op::Memoize(k),
                    6 => Op::Memoized(k),
                    7 | 8 => Op::Edit(k, j),
                    _ => match script.len().checked_sub(1 + k) {
                        Some(earlier) => script[earlier].0,
                        None => continue,
                    },
                };
                script.extend(std::iter::repeat_n((op, who), times));
            }
            let mut model = Model::default();
            let expected: Vec<Step> = script.iter().map(|&(op, _)| model.apply(op, &hashes)).collect();
            for threads in [1, 3] {
                let (steps, stats) = drive(&script, threads, &hashes, &sets);
                prop_assert_eq!(&steps, &expected, "{} thread(s)", threads);
                prop_assert_eq!(
                    InternerStats { recalled: 0, ..stats },
                    model.stats,
                    "{} thread(s)",
                    threads
                );
            }
        }
    }

    /// The model test above does reach the recalled paths: a script of
    /// its shape, run the same way, recalls sources and edits, before
    /// and after poison and eviction.
    #[test]
    fn model_scripts_reach_the_recall_paths() {
        let sets: Vec<TaskSet> = (0..PERIODS * WCETS)
            .map(|k| parse_task_set(&source(k)).expect("source parses"))
            .collect();
        let hashes: Vec<u64> = sets.iter().map(Interner::hash_set).collect();
        let thrice = |op: Op| [(op, 0), (op, 1), (op, 2)];
        let mut script = Vec::new();
        script.extend(thrice(Op::Intern(0)));
        script.extend(thrice(Op::Edit(0, 1)));
        script.extend(thrice(Op::Edit(0, 0)));
        // Recalled with other entries touched since: the base, the
        // patched set and the re-sent source each move up.
        script.extend([(Op::Intern(5), 1), (Op::Edit(0, 1), 2)]);
        script.extend([(Op::Lookup(5), 0), (Op::Intern(0), 1)]);
        script.push((Op::Poison(1), 0));
        script.extend(thrice(Op::Edit(0, 1)));
        script.push((Op::Poison(0), 0));
        script.extend(thrice(Op::Edit(0, 1)));
        script.extend(thrice(Op::InternAlias(0)));
        for k in 3..3 + MODEL_CAP {
            script.push((Op::Intern(k), k));
        }
        script.extend(thrice(Op::Edit(0, 1)));
        script.extend(thrice(Op::Intern(0)));
        script.extend(thrice(Op::Edit(0, 1)));
        let mut model = Model::default();
        let expected: Vec<Step> = script
            .iter()
            .map(|&(op, _)| model.apply(op, &hashes))
            .collect();
        for threads in [1, 3] {
            let (steps, stats) = drive(&script, threads, &hashes, &sets);
            assert_eq!(steps, expected, "{threads} thread(s)");
            assert_eq!(
                InternerStats {
                    recalled: 0,
                    ..stats
                },
                model.stats
            );
            // Recalled: the third `Intern(0)`, the third `Edit(0, 1)` and
            // `Edit(0, 0)`, the two later ones, the third edit after the
            // patched entry was poisoned and replaced, the third alias,
            // and the third of each after everything was evicted and
            // re-interned.
            assert_eq!(stats.recalled, 9, "{threads} thread(s)");
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

    /// Two tasks on `m = 3`: a blocking fork–join at period 20, and a
    /// diamond whose deadline of 30 the spin backend's blocking misses
    /// (bound 32) while suspension meets it.
    pub(in super::super) const SUSPEND_TWIN: &str = "task period=20\n  node s 1\n  node f 1\n  \
        node a 2\n  node b 2\n  node j 1\n  node t 1\n  edge s f\n  edge f a\n  \
        edge f b\n  edge a j\n  edge b j\n  edge j t\n  blocking f j\nend\n\n\
        task period=100 deadline=30\n  node u 1\n  node x 10\n  node y 10\n  node z 10\n  \
        edge u x\n  edge u y\n  edge x z\n  edge y z\nend\n";

    #[test]
    fn a_spin_set_is_not_answered_from_its_suspend_twin() {
        let spin = format!("backend spin\n{SUSPEND_TWIN}");
        let supervisor = Supervisor::new(RecoveryPolicy::Abort, ServiceFaultPlan::seeded(0));
        let interner = Interner::new(8);
        let send = |text: &str| {
            let request = Request {
                id: 0,
                m: 3,
                priority: 4,
                deadline_us: 0,
                body: RequestBody::Source(text.to_string()),
            };
            supervisor.execute(0, &request, &interner, &CancelToken::never())
        };
        let suspend = send(SUSPEND_TWIN);
        let spun = send(&spin);
        assert_eq!(suspend.verdict, VerdictKind::Admit, "{}", suspend.detail);
        assert_ne!(suspend.hash, spun.hash, "the backend is part of the hash");
        assert_eq!(spun.verdict, VerdictKind::Reject, "{}", spun.detail);
        assert_eq!(
            spun.detail,
            "task 1: response-time bound 32 exceeds the deadline"
        );
        let resident = interner.lookup(spun.hash.unwrap()).unwrap();
        assert_eq!(resident.backend(), SyncBackend::Spin);
    }
}
