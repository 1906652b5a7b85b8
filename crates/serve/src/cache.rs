//! Byte-budgeted LRU cache of prepared execution plans: one lane of
//! [`SharedPlanCache`](crate::SharedPlanCache), which owns the locking
//! and the quarantine registry.
//!
//! Keys are structure fingerprints, so any two graphs with identical CSR
//! structure — regardless of values — share one plan. The budget charges
//! each plan its [`Plan::approx_bytes`]; inserting past the budget evicts
//! least-recently-used plans until the newcomer fits. A plan larger than
//! the whole budget is prepared and returned but never retained (the
//! `rejected` counter), which also makes a zero-byte budget an exact model
//! of "caching disabled": every request misses, every result stays
//! correct.

use std::collections::HashMap;
use std::sync::Arc;

use graph_sparse::StructureFingerprint;
use hc_core::{Plan, WorkspaceStats};

/// Cache traffic counters. `requests == hits + misses` always holds;
/// `rejected` counts the subset of misses whose plan was too large to
/// retain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served.
    pub requests: u64,
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to prepare a plan.
    pub misses: u64,
    /// Resident plans evicted to make room.
    pub evictions: u64,
    /// Prepared plans too large for the budget (returned, not retained).
    pub rejected: u64,
    /// Structures quarantined after producing a fault (first
    /// registrations only; see
    /// [`SharedPlanCache::quarantine`](crate::SharedPlanCache::quarantine)).
    pub quarantined: u64,
    /// Misses forced by quarantine: the structure was (or would have been)
    /// cached, but its plans are barred from residency.
    pub quarantine_misses: u64,
    /// Hits served from a plan flagged stale (a mutation superseded its
    /// structure and the patched replacement has not been swapped in yet).
    /// A subset of `hits`.
    pub stale_hits: u64,
    /// Patched plans swapped in over their predecessor (the old entry is
    /// removed, the new one admitted first-insert-wins).
    pub swaps: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (0 when none served).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

struct Entry {
    plan: Arc<Plan>,
    bytes: u64,
    last_used: u64,
    /// A mutation superseded this plan's structure; it keeps serving
    /// (flagged) until the patched replacement is swapped in.
    stale: bool,
}

/// Structure-keyed LRU plan cache: one shard of the
/// [`SharedPlanCache`](crate::SharedPlanCache), which fixes the plan spec
/// for every lane and keeps the one quarantine set.
pub(crate) struct PlanCache {
    budget: u64,
    entries: HashMap<StructureFingerprint, Entry>,
    bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// Empty shard with a byte budget.
    pub fn new(budget_bytes: u64) -> PlanCache {
        PlanCache {
            budget: budget_bytes,
            entries: HashMap::new(),
            bytes: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Record a lookup: on a hit, refresh the LRU stamp and return the
    /// resident plan plus its staleness flag; on a miss, count it and
    /// return `None` — the caller prepares the plan outside the shard
    /// lock and offers it back via [`admit`](PlanCache::admit), so no
    /// lock is ever held across `Plan::prepare`.
    pub fn touch(&mut self, fp: StructureFingerprint) -> Option<(Arc<Plan>, bool)> {
        self.stats.requests += 1;
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&fp) {
            e.last_used = self.clock;
            self.stats.hits += 1;
            if e.stale {
                self.stats.stale_hits += 1;
            }
            return Some((Arc::clone(&e.plan), e.stale));
        }
        self.stats.misses += 1;
        None
    }

    /// The resident plan for `fp`, without counting a request or bumping
    /// the LRU stamp. The patch path uses this to fetch the superseded
    /// plan as patch base without perturbing eviction order.
    pub fn peek(&self, fp: StructureFingerprint) -> Option<Arc<Plan>> {
        self.entries.get(&fp).map(|e| Arc::clone(&e.plan))
    }

    /// Flag the resident plan for `fp` stale: a mutation superseded its
    /// structure, and until the patched plan is swapped in it keeps
    /// serving with every hit counted in `stale_hits`. Returns whether a
    /// plan was resident to flag.
    pub fn mark_stale(&mut self, fp: StructureFingerprint) -> bool {
        if let Some(e) = self.entries.get_mut(&fp) {
            e.stale = true;
            true
        } else {
            false
        }
    }

    /// Remove the entry for `fp` (the swap and quarantine paths retire
    /// plans this way; not counted as an eviction). Returns whether a
    /// plan was resident.
    pub fn remove(&mut self, fp: StructureFingerprint) -> bool {
        if let Some(e) = self.entries.remove(&fp) {
            self.bytes -= e.bytes;
            true
        } else {
            false
        }
    }

    /// Count a patched-plan swap (the new structure's shard owns the
    /// counter).
    pub fn note_swap(&mut self) {
        self.stats.swaps += 1;
    }

    /// Count a miss that quarantine barred from admission (pairs with a
    /// [`touch`](PlanCache::touch) miss).
    pub fn note_quarantine_miss(&mut self) {
        self.stats.quarantine_misses += 1;
    }

    /// Count a structure's first quarantine registration (the structure's
    /// shard owns the counter).
    pub fn note_quarantined(&mut self) {
        self.stats.quarantined += 1;
    }

    /// Offer a freshly prepared plan for residency after a
    /// [`touch`](PlanCache::touch) miss. First insert wins: if a
    /// concurrent racer already admitted a plan for `fp`, the resident
    /// plan is returned (so every caller serves the same `Arc`) and the
    /// offered one is dropped. Oversized plans are counted `rejected` and
    /// returned unretained; otherwise LRU entries are evicted until the
    /// newcomer fits.
    pub fn admit(&mut self, fp: StructureFingerprint, plan: Arc<Plan>) -> Arc<Plan> {
        if let Some(e) = self.entries.get_mut(&fp) {
            e.last_used = self.clock;
            return Arc::clone(&e.plan);
        }
        let bytes = plan.approx_bytes();
        if bytes > self.budget {
            self.stats.rejected += 1;
            return plan;
        }
        while self.bytes + bytes > self.budget {
            self.evict_lru();
        }
        self.bytes += bytes;
        self.entries.insert(
            fp,
            Entry {
                plan: Arc::clone(&plan),
                bytes,
                last_used: self.clock,
                stale: false,
            },
        );
        plan
    }

    /// Drop the least-recently-used entry. `last_used` stamps are unique
    /// (one clock tick per request), so the victim — and therefore the
    /// whole eviction sequence — is deterministic despite `HashMap`'s
    /// arbitrary iteration order.
    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(fp, _)| *fp)
            .expect("eviction requested on an empty cache");
        let e = self
            .entries
            .remove(&victim)
            .expect("victim key came from this map");
        self.bytes -= e.bytes;
        self.stats.evictions += 1;
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes_used(&self) -> u64 {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Resident fingerprints in LRU order, oldest first. `last_used`
    /// stamps are unique, so the order is total and deterministic — it is
    /// the recoverable residency state the durability layer persists:
    /// re-admitting plans in this order reproduces every future eviction
    /// decision.
    pub fn resident_lru(&self) -> Vec<StructureFingerprint> {
        let mut v: Vec<(u64, StructureFingerprint)> = self
            .entries
            .iter()
            .map(|(fp, e)| (e.last_used, *fp))
            .collect();
        v.sort_by_key(|&(t, _)| t);
        v.into_iter().map(|(_, fp)| fp).collect()
    }

    /// Re-admit a deterministically rebuilt plan during recovery. The
    /// entry takes the next clock stamp — callers insert in persisted
    /// [`resident_lru`](PlanCache::resident_lru) order, which restores
    /// the relative recency that eviction decisions depend on — and is
    /// charged against the budget, but **no traffic is counted and
    /// nothing is evicted**: restoring state is not traffic, and a
    /// restored set was resident together before the crash so it fits by
    /// construction (an oversized plan is dropped, as `admit` would).
    /// The caller has already checked the quarantine registry.
    pub fn restore_resident(&mut self, plan: Arc<Plan>) {
        let fp = plan.fingerprint;
        if self.entries.contains_key(&fp) {
            return;
        }
        let bytes = plan.approx_bytes();
        if self.bytes + bytes > self.budget {
            return;
        }
        self.clock += 1;
        self.bytes += bytes;
        self.entries.insert(
            fp,
            Entry {
                plan,
                bytes,
                last_used: self.clock,
                stale: false,
            },
        );
    }

    /// Seed the cumulative statistics from persisted state. Recovery
    /// seeds one shard with the pre-crash totals so the aggregate picks
    /// up exactly where the crashed process left off.
    pub fn seed_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }

    /// Aggregate workspace counters over the resident plans — how much
    /// per-request allocation the cached population is amortizing away.
    /// Evicted and rejected plans take their counters with them, so this
    /// reflects the plans still serving.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let mut s = WorkspaceStats::default();
        for e in self.entries.values() {
            s.add(&e.plan.workspace_stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use graph_sparse::{gen, Csr, DenseMatrix};
    use hc_core::PlanSpec;

    fn graphs() -> Vec<Csr> {
        vec![
            gen::erdos_renyi(256, 1_000, 1),
            gen::erdos_renyi(256, 1_000, 2),
            gen::erdos_renyi(256, 1_000, 3),
        ]
    }

    /// One lookup the way the sharded cache issues it: touch, and on a
    /// miss prepare and offer the plan back.
    fn serve(cache: &mut PlanCache, a: &Csr, dev: &DeviceSpec) -> (Arc<Plan>, bool) {
        let fp = StructureFingerprint::of(a);
        match cache.touch(fp) {
            Some((plan, _stale)) => (plan, true),
            None => {
                let plan = Arc::new(Plan::prepare(a, PlanSpec::hybrid(), dev));
                (cache.admit(fp, plan), false)
            }
        }
    }

    fn resident(cache: &PlanCache, fp: StructureFingerprint) -> bool {
        cache.peek(fp).is_some()
    }

    #[test]
    fn zero_budget_disables_caching_but_stays_correct() {
        let dev = DeviceSpec::rtx3090();
        let mut cache = PlanCache::new(0);
        let a = &graphs()[0];
        let x = DenseMatrix::random_features(a.nrows, 16, 9);
        let mut outputs = Vec::new();
        for _ in 0..3 {
            let (plan, hit) = serve(&mut cache, a, &dev);
            assert!(!hit);
            outputs.push(plan.execute(a, &x, &dev).z);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        let s = cache.stats();
        assert_eq!((s.requests, s.hits, s.misses), (3, 0, 3));
        assert_eq!(s.rejected, 3);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn single_plan_larger_than_budget_is_returned_not_retained() {
        let dev = DeviceSpec::rtx3090();
        let a = &graphs()[0];
        // Find the plan's real size, then set the budget just below it.
        let bytes = Plan::prepare(a, PlanSpec::hybrid(), &dev).approx_bytes();
        let mut cache = PlanCache::new(bytes - 1);
        let (plan, hit) = serve(&mut cache, a, &dev);
        assert!(!hit);
        assert_eq!(plan.approx_bytes(), bytes);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.stats().evictions, 0);
        // At exactly the budget it fits.
        let mut cache = PlanCache::new(bytes);
        serve(&mut cache, a, &dev);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes_used(), bytes);
    }

    #[test]
    fn lru_evicts_in_exact_recency_order() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs();
        let fps: Vec<StructureFingerprint> = gs.iter().map(StructureFingerprint::of).collect();
        let bytes: Vec<u64> = gs
            .iter()
            .map(|g| Plan::prepare(g, PlanSpec::hybrid(), &dev).approx_bytes())
            .collect();
        // Budget holds exactly two of the three plans.
        let mut cache = PlanCache::new(bytes[0] + bytes[1].max(bytes[2]));

        serve(&mut cache, &gs[0], &dev); // [0]
        serve(&mut cache, &gs[1], &dev); // [0, 1]
        serve(&mut cache, &gs[0], &dev); // touch 0 → 1 is now LRU
        serve(&mut cache, &gs[2], &dev); // evicts 1, not 0
        assert!(resident(&cache, fps[0]));
        assert!(!resident(&cache, fps[1]));
        assert!(resident(&cache, fps[2]));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_lru(), vec![fps[0], fps[2]]);

        // Re-inserting 1 now evicts 0 (LRU after the touch order above).
        serve(&mut cache, &gs[1], &dev);
        assert!(!resident(&cache, fps[0]));
        assert!(resident(&cache, fps[1]));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn counters_account_for_every_request() {
        let dev = DeviceSpec::rtx3090();
        let gs = graphs();
        let mut cache = PlanCache::new(u64::MAX);
        for round in 0..4 {
            for g in &gs {
                let (_, hit) = serve(&mut cache, g, &dev);
                assert_eq!(hit, round > 0);
            }
        }
        let s = cache.stats();
        assert_eq!(s.requests, 12);
        assert_eq!(s.hits + s.misses, s.requests);
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 9);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.rejected, 0);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stale_flag_sticks_until_removal_and_counts_hits() {
        let dev = DeviceSpec::rtx3090();
        let a = &graphs()[0];
        let fp = StructureFingerprint::of(a);
        let mut cache = PlanCache::new(u64::MAX);
        assert!(!cache.mark_stale(fp), "nothing resident yet");
        let (plan, _) = serve(&mut cache, a, &dev);
        assert!(resident(&cache, fp));
        assert!(cache.mark_stale(fp));
        // Stale plans keep serving, flagged and counted.
        let (p, stale) = cache.touch(fp).expect("resident");
        assert!(stale);
        assert!(Arc::ptr_eq(&p, &plan));
        assert_eq!(cache.stats().stale_hits, 1);
        // peek does not count anything.
        assert!(resident(&cache, fp));
        let s = cache.stats();
        assert_eq!((s.requests, s.hits), (2, 1));
        // Removal retires the entry without an eviction tick.
        assert!(cache.remove(fp));
        assert!(!cache.remove(fp));
        assert_eq!(cache.bytes_used(), 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reweighted_graph_hits_the_same_plan() {
        let dev = DeviceSpec::rtx3090();
        let a = graphs().remove(0);
        let mut b = a.clone();
        for v in &mut b.vals {
            *v *= 7.0;
        }
        let mut cache = PlanCache::new(u64::MAX);
        let (pa, hit_a) = serve(&mut cache, &a, &dev);
        let (pb, hit_b) = serve(&mut cache, &b, &dev);
        assert!(!hit_a);
        assert!(hit_b, "same structure must hit regardless of values");
        assert!(Arc::ptr_eq(&pa, &pb));
    }
}
