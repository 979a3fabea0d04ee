//! Work-scheduling layer: scoped-thread fan-out, the stop flag that
//! cancels portfolio races, and a concurrent memoized query cache.
//!
//! Everything here is std-only — scoped threads, channels-free index
//! stealing over atomics, and sharded mutex maps — honoring the
//! workspace's zero-external-deps rule. The layer has a strict
//! determinism contract (DESIGN.md §4.13):
//!
//! * at `threads = 1` every primitive degrades to a plain sequential
//!   loop, bit-reproducible with the pre-parallel code paths;
//! * at `threads > 1` results are *semantically* equivalent — the same
//!   verdicts and certified artifacts — though tie-breaking between
//!   simultaneously-finishing portfolio members may differ run to run.
//!
//! The thread count is taken from the [`THREADS_ENV`] environment knob
//! (`SCIDUCTION_THREADS`), defaulting to
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sciduction_rng::{RngCore, SeedableRng, Xoshiro256PlusPlus};

/// Environment variable selecting the worker-thread count.
pub const THREADS_ENV: &str = "SCIDUCTION_THREADS";

/// Environment variable seeding the deterministic fault-injection plan.
/// Unset (the normal case) means no faults are ever injected.
pub const FAULT_ENV: &str = "SCIDUCTION_FAULT_SEED";

/// A kind of injectable fault. Each kind models one failure mode a
/// deployed solver stack actually sees, compressed to a deterministic
/// decision so the degraded paths can be tested reproducibly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// A portfolio entrant dies before producing an answer: the race
    /// skips it entirely, as if its thread was killed.
    WorkerDeath,
    /// An entrant observes a cancellation that no winner requested: it
    /// runs against a pre-stopped private flag and gives up at its first
    /// poll point.
    SpuriousCancel,
    /// A cache lookup is forced to miss, modeling eviction storms and
    /// cold shared state. Only ever causes re-computation, never a wrong
    /// answer (first-writer-wins insertion is unaffected).
    CacheMissStorm,
    /// A domain engine is handed an already-exhausted budget, so it must
    /// report `Unknown` with a certified `Injected` cause.
    BudgetExhaustion,
    /// A durable-log append is torn mid-frame: the frame's bytes land on
    /// disk corrupted and the writer dies (`sciduction::persist`). The
    /// reader must truncate the torn tail on recovery, never surface it.
    TornWrite,
    /// A durable-log append is cut short: only a prefix of the frame
    /// reaches disk before the writer dies. Recovery truncates it.
    ShortWrite,
    /// The durable-log writer is killed at a frame boundary: this append
    /// and every later one are silently lost, but the prefix stays valid.
    ProcessKill,
    /// A shard subprocess (`sciduction::shard`) aborts before answering:
    /// the supervisor observes an exit with no result frame and restarts
    /// it under the retry policy.
    ShardKill,
    /// A shard subprocess wedges (a SIGSTOP-style stall): it stops
    /// heartbeating and never answers, so the watchdog must kill it at
    /// the deadline and charge the kill to the job's budget.
    ShardHang,
    /// A shard subprocess emits a corrupt result frame: the supervisor
    /// refuses the frame and treats the shard as dead (a garbling shard
    /// is a dead shard — its bytes are never surfaced).
    ShardGarbage,
}

impl FaultKind {
    /// Every kind, in a fixed order (used by test matrices).
    pub const ALL: [FaultKind; 10] = [
        FaultKind::WorkerDeath,
        FaultKind::SpuriousCancel,
        FaultKind::CacheMissStorm,
        FaultKind::BudgetExhaustion,
        FaultKind::TornWrite,
        FaultKind::ShortWrite,
        FaultKind::ProcessKill,
        FaultKind::ShardKill,
        FaultKind::ShardHang,
        FaultKind::ShardGarbage,
    ];

    /// The durability kinds that end a `RecordLog` writer's life
    /// (`sciduction::persist`), in a fixed order for test matrices.
    pub const DURABILITY: [FaultKind; 3] = [
        FaultKind::TornWrite,
        FaultKind::ShortWrite,
        FaultKind::ProcessKill,
    ];

    /// The shard-level kinds a `sciduction::shard` worker self-injects
    /// (`crash / hang / garble`), in a fixed order for test matrices.
    pub const SHARD: [FaultKind; 3] = [
        FaultKind::ShardKill,
        FaultKind::ShardHang,
        FaultKind::ShardGarbage,
    ];

    fn index(self) -> usize {
        // Indices are part of the decision function (`FaultPlan::decides`
        // forks the seed by index), so existing kinds keep their slots
        // forever and new kinds only ever append.
        match self {
            FaultKind::WorkerDeath => 0,
            FaultKind::SpuriousCancel => 1,
            FaultKind::CacheMissStorm => 2,
            FaultKind::BudgetExhaustion => 3,
            FaultKind::TornWrite => 4,
            FaultKind::ShortWrite => 5,
            FaultKind::ProcessKill => 6,
            FaultKind::ShardKill => 7,
            FaultKind::ShardHang => 8,
            FaultKind::ShardGarbage => 9,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::WorkerDeath => "worker-death",
            FaultKind::SpuriousCancel => "spurious-cancel",
            FaultKind::CacheMissStorm => "cache-miss-storm",
            FaultKind::BudgetExhaustion => "budget-exhaustion",
            FaultKind::TornWrite => "torn-write",
            FaultKind::ShortWrite => "short-write",
            FaultKind::ProcessKill => "process-kill",
            FaultKind::ShardKill => "shard-kill",
            FaultKind::ShardHang => "shard-hang",
            FaultKind::ShardGarbage => "shard-garbage",
        };
        write!(f, "{name}")
    }
}

/// One injected fault, as recorded in a [`FaultPlan`]'s log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// What was injected.
    pub kind: FaultKind,
    /// Where: the deterministic site id passed to [`FaultPlan::fires`]
    /// (an entrant index for race faults, a lookup ordinal for cache
    /// faults).
    pub site: u64,
}

/// A seeded, deterministic fault-injection plan.
///
/// Whether a fault fires at a given `(kind, site)` is a *pure function*
/// of the plan's seed — [`FaultPlan::decides`] — derived through
/// [`Xoshiro256PlusPlus::fork`], so the same seed injects the same
/// faults at every thread count, and an auditor (lint `FLT001`) can
/// re-derive from the seed alone whether a claimed injection is genuine.
/// Each firing is also appended to an internal log for that audit.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    kinds: [bool; 10],
    log: Mutex<Vec<FaultEvent>>,
}

impl FaultPlan {
    /// A plan injecting every fault kind, driven by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            kinds: [true; 10],
            log: Mutex::new(Vec::new()),
        }
    }

    /// A plan injecting only `kind` — the rest of the matrix stays
    /// clean, which is what the per-kind differential fault tests need.
    pub fn targeting(seed: u64, kind: FaultKind) -> Self {
        let mut kinds = [false; 10];
        kinds[kind.index()] = true;
        FaultPlan {
            seed,
            kinds,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The plan configured by [`FAULT_ENV`], or `None` (no faults) when
    /// the variable is unset or not a `u64`.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var(FAULT_ENV).ok()?;
        raw.trim().parse::<u64>().ok().map(FaultPlan::new)
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pure firing decision: does a plan seeded with `seed` inject
    /// `kind` at `site`? Fires with probability ~1/4 per site. This is
    /// the ground truth the `FLT001` audit replays.
    pub fn decides(seed: u64, kind: FaultKind, site: u64) -> bool {
        let mut stream = Xoshiro256PlusPlus::seed_from_u64(seed)
            .fork(kind.index() as u64)
            .fork(site);
        stream.next_u64() % 4 == 0
    }

    /// Whether this plan injects `kind` at `site`; a firing is logged.
    pub fn fires(&self, kind: FaultKind, site: u64) -> bool {
        if !self.kinds[kind.index()] {
            return false;
        }
        if FaultPlan::decides(self.seed, kind, site) {
            lock_ignoring_poison(&self.log).push(FaultEvent { kind, site });
            true
        } else {
            false
        }
    }

    /// A snapshot of every fault injected so far.
    pub fn events(&self) -> Vec<FaultEvent> {
        lock_ignoring_poison(&self.log).clone()
    }
}

/// The thread count configured for this process: [`THREADS_ENV`] when set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Pure parsing core of [`configured_threads`]: `raw` is the value of
/// [`THREADS_ENV`] if set. Unset, unparsable, or zero values fall back to
/// the default (available parallelism).
pub fn parse_threads(raw: Option<&str>) -> usize {
    match raw.map(|s| s.trim().parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => default_threads(),
    }
}

/// The machine's available parallelism (1 when it cannot be queried),
/// ignoring [`THREADS_ENV`]. For whole-machine passes that run while
/// nothing else computes, such as the server's startup replay; per-job
/// portfolio width goes through [`configured_threads`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A shared cancellation token: racing workers poll it and abandon work
/// once a winner has been recorded.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag. The flag is monotone — once stopped it stays stopped.
#[derive(Clone, Debug, Default)]
pub struct StopFlag {
    inner: Arc<AtomicBool>,
}

impl StopFlag {
    /// A fresh, unstopped flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Requests cancellation of every worker polling this flag.
    pub fn stop(&self) {
        self.inner.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_stopped(&self) -> bool {
        self.inner.load(Ordering::Acquire)
    }

    /// The raw shared flag, for engines that poll an [`AtomicBool`]
    /// directly in their inner loops (e.g. the CDCL decision loop).
    pub fn handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.inner)
    }
}

/// Failure of a parallel region.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// A worker thread panicked. The panic is contained — sibling workers
    /// drain their remaining items and the region returns this error
    /// instead of unwinding or hanging.
    WorkerPanicked {
        /// Index of the failed unit: the worker slot for
        /// [`ParallelOracle::map`], the entrant for a race (reported by
        /// [`first_panic`](crate::recover::first_panic)).
        worker: usize,
        /// The stringified panic payload.
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanicked { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Renders a caught panic payload for fault reports: the payload's
/// `&str`/`String` message when downcastable (the overwhelmingly common
/// cases — `panic!` literals and formatted panics), else a fixed marker.
/// Used by every `catch_unwind` site in this crate so reports name the
/// panic site instead of hiding it behind "Any".
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Fans independent oracle queries out across scoped worker threads.
///
/// Items are claimed by index from a shared atomic counter, so the unit
/// of scheduling is one item; results are merged back in item order, so
/// `map` returns exactly what the sequential loop would.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOracle {
    threads: usize,
}

impl ParallelOracle {
    /// An oracle running on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelOracle {
            threads: threads.max(1),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel when more than one worker is
    /// configured, and returns the results in item order.
    ///
    /// A panicking `f` surfaces as [`ExecError::WorkerPanicked`] — never a
    /// hang, and never a partial result vector presented as complete.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ExecError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => out.push(r),
                    Err(payload) => {
                        return Err(ExecError::WorkerPanicked {
                            worker: 0,
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            return Ok(out);
        }

        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let f = &f;
        let results: Result<Vec<Vec<(usize, R)>>, ExecError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            let mut chunks = Vec::with_capacity(workers);
            let mut first_panic = None;
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(chunk) => chunks.push(chunk),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(ExecError::WorkerPanicked {
                                worker: w,
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
            }
            match first_panic {
                Some(e) => Err(e),
                None => Ok(chunks),
            }
        });

        let chunks = results?;
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in chunks.into_iter().flatten() {
            slots[i] = Some(r);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every index claimed exactly once"))
            .collect())
    }
}

/// Locks `m`, recovering the guard from a poisoned mutex. Every shared
/// slot in the workspace is written whole under its lock, so a panic
/// elsewhere cannot leave it half-updated; the poison flag carries no
/// information worth failing over.
pub fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Hit/miss/eviction counters of a [`QueryCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

struct Shard<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    /// Keys currently being computed by a [`QueryCache::get_or_insert_with`]
    /// leader (single-flight claims). A claim is held by a drop guard, so a
    /// panicking compute closure releases it on unwind — a reserved slot
    /// can never be left stuck.
    pending: HashSet<K>,
}

struct ShardState<K, V> {
    inner: Mutex<Shard<K, V>>,
    /// Signalled whenever a pending claim on this shard is released
    /// (value published or computation abandoned by a panic).
    published: Condvar,
}

/// A concurrent memoized query cache, shared across CEGIS iterations and
/// portfolio members.
///
/// Keys are full structural keys — e.g. the canonical serialization of a
/// hash-consed SMT term DAG — compared with `Eq`, so a hash collision can
/// never produce a false hit. Entries are first-writer-wins: once a key
/// is bound, later insertions return the original value, keeping every
/// reader coherent. Bounded caches evict in FIFO order, which can only
/// cause re-computation, never a wrong answer.
pub struct QueryCache<K, V> {
    shards: Box<[ShardState<K, V>]>,
    hasher: RandomState,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Monotone lookup ordinal: the deterministic fault site for
    /// [`FaultKind::CacheMissStorm`] (the `RandomState` key hash would
    /// differ per process and break fault reproducibility).
    lookups: AtomicU64,
    plan: Option<Arc<FaultPlan>>,
    /// Write-behind hook, called once per *genuinely new* insertion
    /// (outside every shard lock). `sciduction::persist` uses it to
    /// append entries to a [`DiskCacheTier`]; attach it only after disk
    /// replay so replayed entries are not re-appended.
    ///
    /// [`DiskCacheTier`]: crate::persist::DiskCacheTier
    write_behind: Mutex<Option<WriteBehind<K, V>>>,
}

/// The boxed write-behind callback of a [`QueryCache`].
type WriteBehind<K, V> = Box<dyn Fn(&K, &V) + Send + Sync>;

const CACHE_SHARDS: usize = 16;

impl<K: Hash + Eq + Clone, V: Clone> fmt::Debug for QueryCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryCache")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> QueryCache<K, V> {
    /// An unbounded cache.
    pub fn new() -> Self {
        QueryCache::with_shard_capacity(0)
    }

    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the shard count). `capacity = 0` means unbounded.
    pub fn bounded(capacity: usize) -> Self {
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(CACHE_SHARDS)
        };
        QueryCache::with_shard_capacity(per_shard)
    }

    fn with_shard_capacity(per_shard_capacity: usize) -> Self {
        let shards = (0..CACHE_SHARDS)
            .map(|_| ShardState {
                inner: Mutex::new(Shard {
                    map: HashMap::new(),
                    order: VecDeque::new(),
                    pending: HashSet::new(),
                }),
                published: Condvar::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        QueryCache {
            shards,
            hasher: RandomState::new(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            plan: None,
            write_behind: Mutex::new(None),
        }
    }

    /// Attaches a fault-injection plan: [`FaultKind::CacheMissStorm`]
    /// decisions then force deterministic lookup misses. A forced miss
    /// only causes re-computation — insertion stays first-writer-wins,
    /// so cache coherence is untouched.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    fn shard(&self, key: &K) -> &ShardState<K, V> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Whether the attached fault plan forces this lookup (identified by
    /// its monotone ordinal) to miss.
    fn storm_forces_miss(&self) -> bool {
        let site = self.lookups.fetch_add(1, Ordering::Relaxed);
        self.plan
            .as_deref()
            .is_some_and(|plan| plan.fires(FaultKind::CacheMissStorm, site))
    }

    /// Looks `key` up, counting a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.storm_forces_miss() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let shard = lock_ignoring_poison(&self.shard(key).inner);
        match shard.map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Attaches a write-behind hook, called once per genuinely new
    /// insertion (losing racers and re-insertions never fire it). The
    /// hook runs outside every shard lock, after the value is already
    /// published, so it may be arbitrarily slow without serializing
    /// readers — and a crash mid-hook can only lose the *disk* copy of
    /// an entry the in-memory cache already serves correctly.
    pub fn set_write_behind(&self, hook: impl Fn(&K, &V) + Send + Sync + 'static) {
        *lock_ignoring_poison(&self.write_behind) = Some(Box::new(hook));
    }

    /// Binds `key` to `value` unless already bound, returning the value
    /// the cache now holds (first writer wins).
    pub fn insert(&self, key: K, value: V) -> V {
        let mut shard = lock_ignoring_poison(&self.shard(&key).inner);
        if let Some(existing) = shard.map.get(&key) {
            return existing.clone();
        }
        if self.per_shard_capacity > 0 && shard.map.len() >= self.per_shard_capacity {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.order.push_back(key.clone());
        shard.map.insert(key.clone(), value.clone());
        self.insertions.fetch_add(1, Ordering::Relaxed);
        drop(shard);
        if let Some(hook) = lock_ignoring_poison(&self.write_behind).as_ref() {
            hook(&key, &value);
        }
        value
    }

    /// Returns the cached value for `key`, computing it with `f` on a
    /// miss. `f` runs *outside* the shard lock, so a slow computation
    /// never blocks queries for other keys or poisons the cache.
    ///
    /// Misses are **single-flight**: the first thread to miss claims the
    /// key and computes; concurrent misses on the same key wait for the
    /// leader's value instead of recomputing. The claim is held by a drop
    /// guard, so a panicking `f` releases it on unwind — waiters are woken
    /// and the next one takes over the computation; a reserved slot can
    /// never be left permanently stuck. Insertion stays first-writer-wins.
    ///
    /// A [`FaultKind::CacheMissStorm`]-forced miss computes *without*
    /// claiming the key, modeling cold shared state: the storm costs
    /// redundant computation but can never serialize other readers behind
    /// it, and never a wrong answer.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: &K, f: F) -> V {
        if self.storm_forces_miss() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let v = f();
            return self.insert(key.clone(), v);
        }
        let state = self.shard(key);
        let mut shard = lock_ignoring_poison(&state.inner);
        loop {
            if let Some(v) = shard.map.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
            if !shard.pending.contains(key) {
                break;
            }
            // Another thread is computing this key: wait until it either
            // publishes the value or abandons the claim (both paths
            // signal `published`), then re-check.
            shard = state
                .published
                .wait(shard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        shard.pending.insert(key.clone());
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let claim = PendingClaim { state, key };
        let v = f(); // a panic here drops `claim`, releasing the slot
        let v = self.insert(key.clone(), v);
        drop(claim);
        v
    }

    /// The number of live entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_ignoring_poison(&s.inner).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for QueryCache<K, V> {
    fn default() -> Self {
        QueryCache::new()
    }
}

/// A held single-flight claim on a cache key. Dropping it — normally or
/// during the unwind of a panicking compute closure — removes the key
/// from the shard's pending set and wakes every waiter.
struct PendingClaim<'a, K: Hash + Eq, V> {
    state: &'a ShardState<K, V>,
    key: &'a K,
}

impl<K: Hash + Eq, V> Drop for PendingClaim<'_, K, V> {
    fn drop(&mut self) {
        let mut shard = lock_ignoring_poison(&self.state.inner);
        shard.pending.remove(self.key);
        drop(shard);
        self.state.published.notify_all();
    }
}

/// A blocking multi-producer multi-consumer queue that round-robins
/// across lanes keyed by `K`, so no key can starve the others however
/// bursty its producer is. `scid-server` keys lanes by tenant: a client
/// that floods 1000 jobs still alternates with a client that sent one.
///
/// `pop` blocks until an item is available or the queue is closed;
/// `close` wakes every blocked consumer, which then drain the remaining
/// items before seeing `None`.
pub struct FairQueue<K: Eq + Hash + Clone, T> {
    state: Mutex<FairQueueState<K, T>>,
    available: Condvar,
    /// Total queued-item bound enforced by [`FairQueue::offer`]
    /// (0 = unbounded). Saturation is *shedding*, not blocking: the
    /// caller gets its item back and answers `EBUSY` instead of letting
    /// an unbounded backlog hide overload behind latency.
    capacity: usize,
}

/// The outcome of a non-blocking [`FairQueue::offer`].
#[derive(Debug)]
pub enum Offer<T> {
    /// The item was enqueued.
    Accepted,
    /// The queue is at capacity; the item is handed back for structured
    /// shedding (the `EBUSY` path in `scid-server`).
    Saturated(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct FairQueueState<K, T> {
    lanes: HashMap<K, VecDeque<T>>,
    /// Keys with non-empty lanes, in service order; the front key serves
    /// one item and rotates to the back.
    rotation: VecDeque<K>,
    len: usize,
    closed: bool,
}

impl<K: Eq + Hash + Clone, T> FairQueue<K, T> {
    /// An open, unbounded queue with no lanes yet.
    pub fn new() -> Self {
        FairQueue::bounded(0)
    }

    /// An open queue bounded to `capacity` total queued items across all
    /// lanes (`0` = unbounded). Over-capacity offers are shed, never
    /// blocked — see [`FairQueue::offer`].
    pub fn bounded(capacity: usize) -> Self {
        FairQueue {
            state: Mutex::new(FairQueueState {
                lanes: HashMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues an item on `key`'s lane. Returns `false` (dropping the
    /// item) if the queue is closed or saturated; use [`FairQueue::offer`]
    /// to distinguish the two and recover the item.
    pub fn push(&self, key: K, item: T) -> bool {
        matches!(self.offer(key, item), Offer::Accepted)
    }

    /// Enqueues an item on `key`'s lane without blocking, returning the
    /// item when the queue refuses it (closed, or at its capacity bound).
    pub fn offer(&self, key: K, item: T) -> Offer<T> {
        let mut state = lock_ignoring_poison(&self.state);
        if state.closed {
            return Offer::Closed(item);
        }
        if self.capacity > 0 && state.len >= self.capacity {
            return Offer::Saturated(item);
        }
        let lane = state.lanes.entry(key.clone()).or_default();
        let was_empty = lane.is_empty();
        lane.push_back(item);
        if was_empty {
            state.rotation.push_back(key);
        }
        state.len += 1;
        drop(state);
        self.available.notify_one();
        Offer::Accepted
    }

    /// Dequeues the next item in round-robin key order, blocking while
    /// the queue is open and empty. Returns `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock_ignoring_poison(&self.state);
        loop {
            if let Some(key) = state.rotation.pop_front() {
                let lane = state.lanes.get_mut(&key).expect("rotation keys have lanes");
                let item = lane.pop_front().expect("rotation lanes are non-empty");
                if lane.is_empty() {
                    state.lanes.remove(&key);
                } else {
                    state.rotation.push_back(key);
                }
                state.len -= 1;
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the queue: further pushes are refused, blocked consumers
    /// wake, and `pop` returns `None` once the backlog drains.
    pub fn close(&self) {
        let mut state = lock_ignoring_poison(&self.state);
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Items currently queued across all lanes.
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.state).len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Clone, T> Default for FairQueue<K, T> {
    fn default() -> Self {
        FairQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::{Attempt, RetryPolicy, Supervisor};

    /// A boxed race entrant, for tests mixing closure bodies in one vec.
    type BoxedEntrant<'a> = Box<dyn Fn(&StopFlag, u32) -> Attempt<u32> + Send + Sync + 'a>;

    #[test]
    fn parse_threads_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert_eq!(parse_threads(Some(" 8 ")), 8);
        let default = parse_threads(None);
        assert!(default >= 1);
        assert_eq!(parse_threads(Some("0")), default);
        assert_eq!(parse_threads(Some("forty")), default);
        assert_eq!(parse_threads(Some("")), default);
    }

    #[test]
    fn map_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let got = ParallelOracle::new(threads)
                .map(&items, |_, x| x * x + 1)
                .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_index_order_under_contention() {
        let items: Vec<usize> = (0..64).collect();
        let got = ParallelOracle::new(4)
            .map(&items, |i, &x| {
                assert_eq!(i, x);
                // Stagger finish times so merge order is exercised.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x * 10
            })
            .unwrap();
        assert_eq!(got, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_race_prefers_lowest_index_and_skips_the_rest() {
        let started = AtomicUsize::new(0);
        let entrants: Vec<BoxedEntrant<'_>> = vec![
            Box::new(|_: &StopFlag, _: u32| {
                started.fetch_add(1, Ordering::Relaxed);
                Attempt::GaveUp(None)
            }),
            Box::new(|_: &StopFlag, _: u32| {
                started.fetch_add(1, Ordering::Relaxed);
                Attempt::Answer(42)
            }),
            Box::new(|_: &StopFlag, _: u32| {
                started.fetch_add(1, Ordering::Relaxed);
                Attempt::Answer(99)
            }),
        ];
        let race = Supervisor::new(1, RetryPolicy::new(0, 0)).race(entrants);
        let win = race.win.unwrap();
        assert_eq!(win.winner, 1);
        assert_eq!(win.value, 42);
        assert_eq!(started.load(Ordering::Relaxed), 2, "entrant 2 never ran");
        assert!(race.logs[2].is_none(), "an unstarted entrant has no log");
    }

    #[test]
    fn parallel_race_records_exactly_one_winner() {
        for _ in 0..50 {
            let win = Supervisor::new(4, RetryPolicy::new(0, 0))
                .race(
                    (0..8)
                        .map(|i| move |_: &StopFlag, _: u32| Attempt::Answer(i))
                        .collect(),
                )
                .win
                .expect("some entrant answers");
            assert_eq!(win.value, win.winner);
        }
    }

    #[test]
    fn race_with_no_answers_returns_none() {
        for threads in [1, 4] {
            let out = Supervisor::new(threads, RetryPolicy::new(0, 0)).race::<u32, _>(
                (0..6)
                    .map(|_| |_: &StopFlag, _: u32| Attempt::GaveUp(None))
                    .collect(),
            );
            assert!(out.win.is_none(), "threads={threads}");
        }
    }

    #[test]
    fn losers_observe_the_stop_flag() {
        // Entrant 0 answers instantly; the others spin until cancelled.
        // Termination of this test is itself the assertion.
        let entrants: Vec<BoxedEntrant<'_>> = (0..4)
            .map(|i| {
                Box::new(move |stop: &StopFlag, _: u32| {
                    if i == 0 {
                        return Attempt::Answer(7u32);
                    }
                    while !stop.is_stopped() {
                        std::thread::yield_now();
                    }
                    Attempt::GaveUp(None)
                }) as BoxedEntrant<'_>
            })
            .collect();
        let win = Supervisor::new(4, RetryPolicy::new(0, 0))
            .race(entrants)
            .win
            .unwrap();
        assert_eq!(win.value, 7);
    }

    #[test]
    fn cache_first_writer_wins() {
        let cache: QueryCache<u32, u32> = QueryCache::new();
        assert_eq!(cache.insert(5, 100), 100);
        assert_eq!(cache.insert(5, 200), 100, "second writer sees the first");
        assert_eq!(cache.get(&5), Some(100));
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        // One shard's worth of keys: all map to some shard; use enough
        // keys that every shard overflows, then check the global bound.
        let cache: QueryCache<u32, u32> = QueryCache::bounded(32);
        for k in 0..1000 {
            cache.insert(k, k);
        }
        assert!(cache.len() <= 32, "len {} over capacity", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1000);
        assert_eq!(stats.evictions as usize, 1000 - cache.len());
    }

    #[test]
    fn get_or_insert_with_memoizes() {
        let cache: QueryCache<u32, u32> = QueryCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = cache.get_or_insert_with(&9, || {
                calls.fetch_add(1, Ordering::Relaxed);
                81
            });
            assert_eq!(v, 81);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        let cache: QueryCache<u32, u32> = QueryCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = cache.get_or_insert_with(&3, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        9
                    });
                    assert_eq!(v, 9);
                });
            }
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "single-flight: exactly one leader computes"
        );
    }

    #[test]
    fn panicking_leader_releases_its_claim_to_a_waiter() {
        let cache: Arc<QueryCache<u32, u32>> = Arc::new(QueryCache::new());
        // The leader claims the key and panics mid-compute.
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_insert_with(&7, || panic!("compute failed at key 7"))
                }));
            })
        };
        leader.join().unwrap();
        // The slot must not be stuck: a follower claims and computes.
        let v = cache.get_or_insert_with(&7, || 49);
        assert_eq!(v, 49);
        assert_eq!(cache.get(&7), Some(49));
        // And under contention: many waiters racing a panicking leader
        // all terminate with the follower's value.
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                let calls = &calls;
                s.spawn(move || {
                    let got = panic::catch_unwind(AssertUnwindSafe(|| {
                        cache.get_or_insert_with(&11, || {
                            if calls.fetch_add(1, Ordering::Relaxed) == 0 && t % 2 == 0 {
                                panic!("first leader dies");
                            }
                            121
                        })
                    }));
                    if let Ok(v) = got {
                        assert_eq!(v, 121);
                    }
                });
            }
        });
        assert_eq!(cache.get(&11), Some(121), "value published despite panic");
    }

    #[test]
    fn fault_decisions_are_pure_and_seed_sensitive() {
        for kind in FaultKind::ALL {
            for site in 0..64u64 {
                assert_eq!(
                    FaultPlan::decides(7, kind, site),
                    FaultPlan::decides(7, kind, site),
                );
            }
        }
        // Roughly 1-in-4 firing rate; also different seeds should give
        // different decision vectors.
        let fires_a: Vec<bool> = (0..256)
            .map(|s| FaultPlan::decides(1, FaultKind::WorkerDeath, s))
            .collect();
        let fires_b: Vec<bool> = (0..256)
            .map(|s| FaultPlan::decides(2, FaultKind::WorkerDeath, s))
            .collect();
        let count = fires_a.iter().filter(|&&f| f).count();
        assert!((20..110).contains(&count), "fire rate off: {count}/256");
        assert_ne!(fires_a, fires_b, "seeds must produce distinct plans");
    }

    #[test]
    fn targeting_plan_fires_only_its_kind() {
        let plan = FaultPlan::targeting(3, FaultKind::CacheMissStorm);
        for site in 0..128u64 {
            assert!(!plan.fires(FaultKind::WorkerDeath, site));
            assert!(!plan.fires(FaultKind::SpuriousCancel, site));
            assert!(!plan.fires(FaultKind::BudgetExhaustion, site));
            assert_eq!(
                plan.fires(FaultKind::CacheMissStorm, site),
                FaultPlan::decides(3, FaultKind::CacheMissStorm, site),
            );
        }
        // Only genuine firings were logged, and each is replayable.
        for ev in plan.events() {
            assert_eq!(ev.kind, FaultKind::CacheMissStorm);
            assert!(FaultPlan::decides(3, ev.kind, ev.site));
        }
    }

    #[test]
    fn killed_entrants_never_win_and_survivors_still_answer() {
        // Find a seed that kills entrant 0 but leaves some entrant alive.
        let seed = (0..500u64)
            .find(|&s| {
                FaultPlan::decides(s, FaultKind::WorkerDeath, 0)
                    && (1..4u64).any(|i| {
                        !FaultPlan::decides(s, FaultKind::WorkerDeath, i)
                            && !FaultPlan::decides(s, FaultKind::SpuriousCancel, i)
                    })
            })
            .expect("such a seed exists");
        for threads in [1, 4] {
            let plan = Arc::new(FaultPlan::new(seed));
            let win = Supervisor::new(threads, RetryPolicy::new(seed, 0))
                .with_fault_plan(Arc::clone(&plan))
                .race(
                    (0..4)
                        .map(|i| move |_: &StopFlag, _: u32| Attempt::Answer(i))
                        .collect(),
                )
                .win
                .expect("a surviving entrant answers");
            assert_ne!(win.winner, 0, "killed entrant 0 must not win");
            assert_eq!(win.value, win.winner);
        }
    }

    #[test]
    fn spuriously_cancelled_entrants_observe_a_tripped_flag() {
        let seed = (0..500u64)
            .find(|&s| {
                !FaultPlan::decides(s, FaultKind::WorkerDeath, 0)
                    && FaultPlan::decides(s, FaultKind::SpuriousCancel, 0)
            })
            .expect("such a seed exists");
        let plan = Arc::new(FaultPlan::new(seed));
        // A well-behaved entrant gives up when its flag is stopped.
        let entrants = vec![|stop: &StopFlag, _: u32| {
            if stop.is_stopped() {
                Attempt::GaveUp(None)
            } else {
                Attempt::Answer(1)
            }
        }];
        let out = Supervisor::new(1, RetryPolicy::new(seed, 0))
            .with_fault_plan(plan)
            .race(entrants);
        assert!(out.win.is_none(), "cancelled entrant must give up");
    }

    #[test]
    fn miss_storm_forces_recomputation_but_not_wrong_answers() {
        let plan = Arc::new(FaultPlan::targeting(11, FaultKind::CacheMissStorm));
        let cache: QueryCache<u32, u32> = QueryCache::new().with_fault_plan(plan);
        let calls = AtomicUsize::new(0);
        for _ in 0..64 {
            let v = cache.get_or_insert_with(&9, || {
                calls.fetch_add(1, Ordering::Relaxed);
                81
            });
            assert_eq!(v, 81, "a forced miss may recompute, never corrupt");
        }
        assert!(
            calls.load(Ordering::Relaxed) > 1,
            "some lookups must have been forced to miss"
        );
    }

    #[test]
    fn fault_kind_indices_are_stable() {
        // The fork index is part of the pure decision function: changing
        // an existing kind's slot would silently re-roll every recorded
        // fault matrix. Pin the full mapping.
        let expected: [(FaultKind, usize); 10] = [
            (FaultKind::WorkerDeath, 0),
            (FaultKind::SpuriousCancel, 1),
            (FaultKind::CacheMissStorm, 2),
            (FaultKind::BudgetExhaustion, 3),
            (FaultKind::TornWrite, 4),
            (FaultKind::ShortWrite, 5),
            (FaultKind::ProcessKill, 6),
            (FaultKind::ShardKill, 7),
            (FaultKind::ShardHang, 8),
            (FaultKind::ShardGarbage, 9),
        ];
        assert_eq!(FaultKind::ALL.map(|k| k), expected.map(|(k, _)| k));
        for (kind, idx) in expected {
            assert_eq!(kind.index(), idx, "{kind} moved slots");
        }
    }

    #[test]
    fn single_flight_computes_once_per_key_under_fault_seeds() {
        // Storm-forced misses bypass the claim by design, so they may
        // recompute — but per (seed, key) the set of storm sites is
        // deterministic, and concurrent *genuine* misses must still
        // produce exactly one claimed computation and a coherent value.
        for seed in 1..=4u64 {
            let plan = Arc::new(FaultPlan::targeting(seed, FaultKind::CacheMissStorm));
            let cache: QueryCache<u32, u32> = QueryCache::new().with_fault_plan(plan);
            let calls = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for key in 0..16u32 {
                            let v = cache.get_or_insert_with(&key, || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                key * key
                            });
                            assert_eq!(v, key * key, "seed {seed}: wrong value for {key}");
                        }
                    });
                }
            });
            // First-writer-wins: whatever raced, the published values
            // are correct and at least one compute ran per key. These
            // lookups are themselves storm sites, so a miss is allowed —
            // a wrong value never is.
            for key in 0..16u32 {
                if let Some(got) = cache.get(&key) {
                    assert_eq!(got, key * key, "seed {seed}");
                }
            }
            assert!(calls.load(Ordering::Relaxed) >= 16, "seed {seed}");
        }
    }

    #[test]
    fn bounded_cache_eviction_under_fault_seeds_never_corrupts() {
        for seed in 1..=4u64 {
            let plan = Arc::new(FaultPlan::targeting(seed, FaultKind::CacheMissStorm));
            let cache: QueryCache<u32, u32> = QueryCache::bounded(32).with_fault_plan(plan);
            let cache = &cache;
            std::thread::scope(|s| {
                for t in 0..4 {
                    s.spawn(move || {
                        for i in 0..256u32 {
                            let key = (t * 256 + i) % 96;
                            let v = cache.get_or_insert_with(&key, || key + 1000);
                            assert_eq!(v, key + 1000, "seed {seed}");
                            // A lookup under storms and eviction may miss,
                            // but can never yield another key's value.
                            if let Some(got) = cache.get(&key) {
                                assert_eq!(got, key + 1000, "seed {seed}");
                            }
                        }
                    });
                }
            });
            assert!(cache.len() <= 32, "seed {seed}: bound violated");
            let stats = cache.stats();
            assert_eq!(
                stats.evictions,
                stats.insertions - cache.len() as u64,
                "seed {seed}: eviction accounting"
            );
        }
    }

    #[test]
    fn write_behind_fires_once_per_new_key_and_not_for_racers() {
        let cache: Arc<QueryCache<u32, u32>> = Arc::new(QueryCache::new());
        let appended = Arc::new(Mutex::new(Vec::<(u32, u32)>::new()));
        let sink = Arc::clone(&appended);
        cache.set_write_behind(move |&k, &v| lock_ignoring_poison(&sink).push((k, v)));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..32u32 {
                        cache.get_or_insert_with(&key, || key * 2);
                    }
                });
            }
        });
        let mut log = lock_ignoring_poison(&appended).clone();
        log.sort_unstable();
        assert_eq!(
            log,
            (0..32u32).map(|k| (k, k * 2)).collect::<Vec<_>>(),
            "exactly one write-behind per distinct key"
        );
    }

    #[test]
    fn fair_queue_offer_sheds_at_capacity_and_recovers_after_pop() {
        let q: FairQueue<&str, u32> = FairQueue::bounded(2);
        assert!(matches!(q.offer("a", 1), Offer::Accepted));
        assert!(matches!(q.offer("b", 2), Offer::Accepted));
        match q.offer("a", 3) {
            Offer::Saturated(item) => assert_eq!(item, 3, "shed items come back"),
            other => panic!("expected saturation, got {other:?}"),
        }
        assert!(!q.push("a", 3), "push reports saturation as refusal");
        assert_eq!(q.pop(), Some(1));
        assert!(matches!(q.offer("a", 3), Offer::Accepted));
        q.close();
        match q.offer("a", 4) {
            Offer::Closed(item) => assert_eq!(item, 4),
            other => panic!("expected closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fair_queue_round_robins_across_keys() {
        let q: FairQueue<&str, u32> = FairQueue::new();
        // A bursty tenant enqueues a pile before a quiet one shows up.
        for i in 0..4 {
            assert!(q.push("burst", i));
        }
        assert!(q.push("quiet", 100));
        assert_eq!(q.len(), 5);
        // The quiet tenant is served second, not fifth.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(100));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_close_drains_then_ends() {
        let q: FairQueue<u8, u8> = FairQueue::new();
        q.push(1, 10);
        q.push(2, 20);
        q.close();
        assert!(!q.push(1, 30), "pushes after close are refused");
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+empty stays terminal");
    }

    #[test]
    fn fair_queue_blocked_consumers_wake_on_push_and_close() {
        let q: Arc<FairQueue<u8, u32>> = Arc::new(FairQueue::new());
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..100u32 {
            assert!(q.push((i % 3) as u8, i));
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer must not panic"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>(), "every item served once");
    }
}
