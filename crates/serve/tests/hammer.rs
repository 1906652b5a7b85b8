//! Multithreaded hammer test for the plan caches (satellite of the
//! hc-check PR): drive `SharedPlanCache` from 1, 2 and 8 threads through
//! the facade's scoped spawn and assert the counter invariants hold
//! exactly —
//!
//! * `requests == hits + misses` (every lookup is counted once),
//! * `requests` equals the number of lookups issued,
//! * `rejected <= misses` (only misses can be rejected),
//! * quarantined fingerprints are **never** served from residency, and
//!   the poisoned `Arc` is never handed out again.
//!
//! A one-shard cache is driven through the same workload (serially) as
//! the control: the four-shard cache must agree with it on every
//! deterministic counter.

use std::sync::Arc;

use gpu_sim::DeviceSpec;
use graph_sparse::{gen, Csr, StructureFingerprint};
use hc_core::PlanSpec;
use hc_parallel::sync::thread;
use hc_parallel::sync::{AtomicU64, Ordering};
use hc_serve::SharedPlanCache;

fn graphs(n: usize) -> Vec<Csr> {
    (0..n)
        .map(|i| gen::erdos_renyi(160, 700, 100 + i as u64))
        .collect()
}

/// Issue `rounds` passes over `gs` from `nthreads` workers, returning
/// the number of lookups issued and hits observed by the callers.
fn hammer(
    cache: &SharedPlanCache,
    gs: &[Csr],
    dev: &DeviceSpec,
    nthreads: usize,
    rounds: usize,
) -> (u64, u64) {
    let issued = AtomicU64::new_untracked(0);
    let observed_hits = AtomicU64::new_untracked(0);
    thread::scope(|s| {
        let (issued, observed_hits) = (&issued, &observed_hits);
        for t in 0..nthreads {
            s.spawn(move |_| {
                for _ in 0..rounds {
                    // Stagger start positions so threads collide on
                    // different fingerprints.
                    for i in 0..gs.len() {
                        let (plan, hit) = cache.get_or_prepare(&gs[(i + t) % gs.len()], dev);
                        assert!(plan.approx_bytes() > 0);
                        issued.fetch_add(1, Ordering::Relaxed);
                        if hit {
                            observed_hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    })
    .expect("hammer workers must not panic");
    (
        issued.load(Ordering::Relaxed),
        observed_hits.load(Ordering::Relaxed),
    )
}

#[test]
fn counters_stay_consistent_at_1_2_and_8_threads() {
    let dev = DeviceSpec::rtx3090();
    let gs = graphs(6);
    for nthreads in [1usize, 2, 8] {
        let cache = SharedPlanCache::new(u64::MAX / 16, PlanSpec::hybrid(), 4);
        let rounds = 4;
        let (issued, observed_hits) = hammer(&cache, &gs, &dev, nthreads, rounds);
        let s = cache.stats();
        assert_eq!(issued, (nthreads * rounds * gs.len()) as u64);
        assert_eq!(
            s.requests, issued,
            "every lookup counted at {nthreads} threads"
        );
        assert_eq!(
            s.hits + s.misses,
            s.requests,
            "hits+misses==requests at {nthreads} threads: {s:?}"
        );
        assert_eq!(s.hits, observed_hits, "cache hits match caller view");
        assert!(s.rejected <= s.misses, "{s:?}");
        assert_eq!(s.rejected, 0, "budget is effectively unbounded: {s:?}");
        // Every distinct structure missed at least once (first toucher)
        // and at most once per thread (racers preparing concurrently).
        assert!(s.misses >= gs.len() as u64, "{s:?}");
        assert!(s.misses <= (gs.len() * nthreads) as u64, "{s:?}");
        assert_eq!(cache.len(), gs.len());
    }
}

#[test]
fn single_thread_matches_unsharded_control_exactly() {
    let dev = DeviceSpec::rtx3090();
    let gs = graphs(5);
    let shared = SharedPlanCache::new(u64::MAX / 16, PlanSpec::hybrid(), 4);
    let control = SharedPlanCache::new(u64::MAX / 16, PlanSpec::hybrid(), 1);
    for round in 0..3 {
        for g in &gs {
            let (_, hit_s) = shared.get_or_prepare(g, &dev);
            let (_, hit_c) = control.get_or_prepare(g, &dev);
            assert_eq!(hit_s, hit_c, "round {round}");
        }
    }
    let s = shared.stats();
    let c = control.stats();
    assert_eq!(
        (s.requests, s.hits, s.misses),
        (c.requests, c.hits, c.misses)
    );
    assert_eq!(s.rejected, c.rejected);
    assert_eq!(shared.len(), control.len());
}

#[test]
fn quarantined_fingerprints_are_never_served_under_contention() {
    let dev = DeviceSpec::rtx3090();
    let gs = graphs(4);
    let cache = Arc::new(SharedPlanCache::new(u64::MAX / 16, PlanSpec::hybrid(), 4));
    // Warm the cache, then quarantine the first two structures.
    let mut poisoned = Vec::new();
    for g in &gs {
        poisoned.push(cache.get_or_prepare(g, &dev).0);
    }
    let bad: Vec<StructureFingerprint> = gs[..2].iter().map(StructureFingerprint::of).collect();
    assert!(cache.quarantine(bad[0]));
    assert!(cache.quarantine(bad[1]));

    let serves = AtomicU64::new_untracked(0);
    thread::scope(|s| {
        let (cache, gs, bad, poisoned, serves, dev) = (&cache, &gs, &bad, &poisoned, &serves, &dev);
        for t in 0..8usize {
            s.spawn(move |_| {
                for r in 0..3usize {
                    for g in gs {
                        let fp = StructureFingerprint::of(g);
                        let (plan, hit) = cache.get_or_prepare(g, dev);
                        serves.fetch_add(1, Ordering::Relaxed);
                        if bad.contains(&fp) {
                            assert!(!hit, "quarantined fp served from cache (t{t} r{r})");
                            for p in &poisoned[..2] {
                                assert!(
                                    !Arc::ptr_eq(&plan, p),
                                    "poisoned plan re-served (t{t} r{r})"
                                );
                            }
                        }
                    }
                }
            });
        }
    })
    .expect("workers must not panic");

    let s = cache.stats();
    assert_eq!(serves.load(Ordering::Relaxed), 8 * 3 * 4);
    assert_eq!(s.quarantined, 2);
    // Every request for a quarantined structure after the quarantine
    // call is a quarantine miss: 8 threads × 3 rounds × 2 structures.
    assert_eq!(s.quarantine_misses, 8 * 3 * 2);
    assert!(cache.is_quarantined(bad[0]) && cache.is_quarantined(bad[1]));
    // Healthy structures stayed resident throughout.
    assert_eq!(cache.len(), 2);
}
