//! Property tests for the query cache and the panic containment of the
//! parallel execution layer (ISSUE 2 satellite):
//!
//! 1. a cache hit implies *structural* key equality — deliberately
//!    hash-colliding keys can never produce a false hit;
//! 2. eviction never changes results — a tightly bounded cache and an
//!    unbounded one memoize the same function to the same values;
//! 3. a panicking worker surfaces as an error instead of a hang.

use sciduction::exec::{ExecError, ParallelOracle, QueryCache, StopFlag};
use sciduction::recover::{first_panic, Attempt, RetryPolicy, Supervisor};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A key whose hash is a single low-entropy bucket byte but whose
/// equality covers the full payload: forces constant hash collisions,
/// modelling distinct SMT term DAGs that share a canonical-hash bucket.
#[derive(Clone, PartialEq, Eq, Debug)]
struct CollidingKey {
    payload: Vec<u64>,
}

impl Hash for CollidingKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // All keys collide: the hash ignores the payload entirely.
        0u8.hash(state);
    }
}

/// A tiny splitmix-style generator, enough for reproducible workloads
/// without depending on `sciduction-rng` from core's test tree.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[test]
fn hash_collisions_never_produce_false_hits() {
    let cache: QueryCache<CollidingKey, u64> = QueryCache::new();
    let mut rng = Mix(0xDEAD_BEEF);
    let keys: Vec<CollidingKey> = (0..200)
        .map(|_| CollidingKey {
            payload: (0..4).map(|_| rng.next()).collect(),
        })
        .collect();
    // Bind each key to a value derived from its own payload.
    for k in &keys {
        let v = k.payload.iter().fold(0u64, |a, x| a.wrapping_add(*x));
        cache.insert(k.clone(), v);
    }
    // Every hit must return the value bound to the *structurally equal*
    // key, despite all keys sharing one hash bucket.
    for k in &keys {
        let expect = k.payload.iter().fold(0u64, |a, x| a.wrapping_add(*x));
        assert_eq!(cache.get(k), Some(expect));
    }
    // A fresh key with the same (colliding) hash must miss.
    let fresh = CollidingKey {
        payload: vec![1, 2, 3, 4],
    };
    assert_eq!(cache.get(&fresh), None);
}

#[test]
fn eviction_never_changes_results() {
    // Memoize an expensive-looking pure function through (a) an
    // unbounded cache and (b) a cache far too small for the workload.
    // Under heavy eviction the bounded cache recomputes, but every
    // returned value must match the unbounded run exactly.
    fn compute(q: u64) -> u64 {
        (0..32).fold(q, |a, i| a.rotate_left(7).wrapping_mul(0x100000001B3) ^ i)
    }
    let unbounded: QueryCache<u64, u64> = QueryCache::new();
    let bounded: QueryCache<u64, u64> = QueryCache::bounded(8);
    let mut rng = Mix(42);
    // A workload with many repeats so both hits and evictions occur.
    let queries: Vec<u64> = (0..2000).map(|_| rng.next() % 64).collect();
    for &q in &queries {
        let a = unbounded.get_or_insert_with(&q, || compute(q));
        let b = bounded.get_or_insert_with(&q, || compute(q));
        assert_eq!(a, b, "eviction changed the result for query {q}");
        assert_eq!(a, compute(q));
    }
    let stats = bounded.stats();
    assert!(stats.evictions > 0, "workload never evicted: {stats:?}");
    assert!(stats.hits > 0, "workload never hit: {stats:?}");
}

#[test]
fn concurrent_memoization_is_coherent() {
    // Hammer one bounded cache from several workers; every observed
    // value must equal the recomputed ground truth (first-writer-wins
    // plus full-key equality ⇒ no torn or mismatched entries).
    fn compute(q: u64) -> u64 {
        q.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(13)
    }
    let cache: QueryCache<u64, u64> = QueryCache::bounded(16);
    let queries: Vec<u64> = (0..400).map(|i| i % 48).collect();
    let results = ParallelOracle::new(4)
        .map(&queries, |_, &q| {
            cache.get_or_insert_with(&q, || compute(q))
        })
        .unwrap();
    for (&q, &v) in queries.iter().zip(&results) {
        assert_eq!(v, compute(q));
    }
}

#[test]
fn panicking_map_worker_surfaces_as_error() {
    let items: Vec<u32> = (0..100).collect();
    let err = ParallelOracle::new(4)
        .map(&items, |_, &x| {
            if x == 57 {
                panic!("injected fault at {x}");
            }
            x
        })
        .unwrap_err();
    let ExecError::WorkerPanicked { message, .. } = err;
    assert!(message.contains("injected fault"), "got: {message}");
}

#[test]
fn panicking_sequential_worker_surfaces_as_error() {
    let items: Vec<u32> = (0..10).collect();
    let err = ParallelOracle::new(1)
        .map(&items, |_, &x| {
            if x == 3 {
                panic!("sequential fault");
            }
            x
        })
        .unwrap_err();
    let ExecError::WorkerPanicked { worker, message } = err;
    assert_eq!(worker, 0);
    assert!(message.contains("sequential fault"));
}

#[test]
fn panicking_race_entrant_surfaces_as_error_not_hang() {
    for threads in [1, 4] {
        // Entrant 0 panics. Under supervision a panic parks a fault and
        // never cancels siblings, so the survivors give up on their own
        // rather than waiting for a stop that will not come.
        let entrants: Vec<_> = (0..4)
            .map(|i| {
                move |_: &StopFlag, _: u32| -> Attempt<u32> {
                    if i == 0 {
                        panic!("poisoned worker");
                    }
                    Attempt::GaveUp(None)
                }
            })
            .collect();
        let race = Supervisor::new(threads, RetryPolicy::new(0, 0)).race(entrants);
        assert!(race.win.is_none(), "threads={threads}");
        match first_panic(&race.logs) {
            Some(ExecError::WorkerPanicked { worker, message }) => {
                assert_eq!(worker, 0, "threads={threads}");
                assert!(message.contains("poisoned worker"), "threads={threads}");
            }
            other => panic!("unexpected report {other:?}"),
        }
    }
}

#[test]
fn cache_survives_a_panicking_computation() {
    // A panic inside the miss computation happens outside the shard
    // lock, so the cache is not poisoned and keeps serving queries.
    let cache: QueryCache<u64, u64> = QueryCache::new();
    let attempts = AtomicUsize::new(0);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_insert_with(&7, || {
            attempts.fetch_add(1, Ordering::Relaxed);
            panic!("compute failed");
        })
    }));
    assert!(r.is_err());
    // The failed computation left no binding behind…
    assert!(cache.is_empty());
    // …and the cache still works.
    assert_eq!(cache.get_or_insert_with(&7, || 49), 49);
    assert_eq!(cache.get(&7), Some(49));
}

#[test]
fn panicking_closure_never_leaves_a_reserved_slot_stuck() {
    // Single-flight regression (ISSUE 5 satellite): a leader claims the
    // key, panics mid-compute, and every concurrent waiter on the same
    // key must still terminate with a value — the claim is released on
    // unwind, never left reserved forever.
    let cache: QueryCache<u64, u64> = QueryCache::new();
    let computed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for worker in 0..8 {
            let cache = &cache;
            let computed = &computed;
            s.spawn(move || {
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_insert_with(&13, || {
                        // The first two leaders die; a later one delivers.
                        if computed.fetch_add(1, Ordering::Relaxed) < 2 {
                            panic!("leader {worker} died mid-compute");
                        }
                        169
                    })
                }));
                if let Ok(v) = got {
                    assert_eq!(v, 169);
                }
            });
        }
    });
    // Termination of the scope is the liveness assertion; the value must
    // also have been published for everyone who follows.
    assert_eq!(cache.get(&13), Some(169));
    // With the claim released, at most leader-failures + 1 computations
    // ran — not one per waiter.
    assert!(computed.load(Ordering::Relaxed) >= 3);
}
