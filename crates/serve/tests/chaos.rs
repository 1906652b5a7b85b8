//! Chaos suite: randomized fault schedules against the in-order front
//! (`FrontConfig::in_order`: one request per epoch, no cohorts).
//!
//! The serving contract under test:
//!
//! * with faults **disabled**, the resilient path is bit-identical to the
//!   plain one (resilience is free when nothing fails);
//! * with faults **enabled**, every request either returns a result
//!   bit-identical to a fault-free execution of the step that produced it
//!   (`Ok`/`Degraded`) or a typed error (`Failed`) — the process never
//!   panics;
//! * once a structure is quarantined, no request for it ever hits the
//!   cache again.

use std::collections::HashSet;
use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig};
use graph_sparse::{gen, Csr, DenseMatrix, StructureFingerprint};
use hc_core::{FallbackStep, KernelFamily, PlanSpec, ResiliencePolicy};
use hc_serve::{Front, FrontConfig, FrontRequest, Outcome, Request, TenantId};
use proptest::prelude::*;

fn graphs() -> Vec<Arc<Csr>> {
    vec![
        Arc::new(gen::erdos_renyi(96, 450, 1)),
        Arc::new(gen::community(128, 700, 8, 0.9, 2)),
        Arc::new(gen::molecules(80, 200, 3)),
    ]
}

fn requests(n: usize) -> Vec<FrontRequest> {
    let gs = graphs();
    (0..n)
        .map(|i| {
            let g = Arc::clone(&gs[i % gs.len()]);
            FrontRequest {
                tenant: TenantId(0),
                request: Request {
                    features: DenseMatrix::random_features(g.ncols, 8, 100 + i as u64),
                    graph: g,
                },
            }
        })
        .collect()
}

fn in_order(budget: u64, spec: PlanSpec, policy: ResiliencePolicy) -> Front {
    Front::new(budget, spec, 1, FrontConfig::in_order(policy))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline invariant: under any fault schedule, every served
    /// result is bit-identical to a fault-free run of the step that
    /// produced it, failures are typed, and quarantine is permanent.
    #[test]
    fn every_outcome_is_exact_or_typed_under_faults(
        seed in 0u64..1_000_000,
        rate in 0.05f64..0.6,
        family_ix in 0usize..4,
        retries in 0u32..3,
        budget_ix in 0usize..2,
    ) {
        let dev = DeviceSpec::rtx3090();
        let family = KernelFamily::ALL[family_ix];
        let spec = PlanSpec { family, use_loa: false };
        let budget = [60_000, u64::MAX][budget_ix];
        let policy = ResiliencePolicy {
            max_retries: retries,
            faults: FaultConfig::uniform(seed, rate),
            ..Default::default()
        };
        let trace = requests(9);
        let front = in_order(budget, spec, policy);
        let responses = front.run_trace(&trace, &dev).responses;
        let reqs: Vec<&Request> = trace.iter().map(|fr| &fr.request).collect();
        // The cache as request i found it: serving is deterministic, so a
        // fresh front that served only the first i requests holds it.
        let quarantined_before_serve: Vec<bool> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let prefix = in_order(budget, spec, policy);
                prefix.run_trace(&trace[..i], &dev);
                prefix.cache().is_quarantined(StructureFingerprint::of(&req.graph))
            })
            .collect();

        // Fault-free references per (structure, step) — plans prepared
        // outside any fault scope.
        let mut clean = std::collections::HashMap::new();
        for req in &reqs {
            let fp = StructureFingerprint::of(&req.graph);
            clean.entry(fp).or_insert_with(|| {
                hc_core::Plan::prepare(&req.graph, spec, &dev)
            });
        }

        let mut seen_quarantine = HashSet::new();
        for (i, (req, resp)) in reqs.iter().zip(&responses).enumerate() {
            let fp = StructureFingerprint::of(&req.graph);
            let plan = &clean[&fp];
            match &resp.outcome {
                Outcome::Ok(z) => {
                    prop_assert_eq!(
                        z, &plan.execute_as(family, &req.graph, &req.features, &dev).z,
                        "request {}: Ok result must be bit-clean", i
                    );
                }
                Outcome::Degraded { z, fallback, .. } => {
                    let want = match fallback {
                        FallbackStep::Family(f) =>
                            plan.execute_as(*f, &req.graph, &req.features, &dev).z,
                        FallbackStep::CpuReference =>
                            req.graph.spmm_reference(&req.features),
                    };
                    prop_assert_eq!(
                        z, &want,
                        "request {}: degraded result must match fault-free {}", i, fallback
                    );
                }
                Outcome::Failed(e) => {
                    // Typed, displayable, and chain-shaped: only
                    // exhaustion can end a well-formed request.
                    prop_assert!(
                        matches!(e, hc_core::HcError::FallbacksExhausted { .. }),
                        "request {}: unexpected failure {}", i, e
                    );
                }
            }
            // Quarantine is forever: a structure quarantined before this
            // request must not have produced a cache hit.
            if quarantined_before_serve[i] {
                prop_assert!(!resp.hit, "request {}: served a quarantined structure from cache", i);
            }
            if front.cache().is_quarantined(fp) {
                seen_quarantine.insert(fp);
            }
        }
        // And the cache agrees nothing quarantined is resident.
        for fp in seen_quarantine {
            prop_assert!(front.cache().peek(fp).is_none());
        }
        let s = front.cache().stats();
        prop_assert_eq!(s.hits + s.misses, s.requests);
        prop_assert_eq!(s.quarantined as usize, {
            let mut q = 0;
            for g in graphs() {
                if front.cache().is_quarantined(StructureFingerprint::of(&g)) {
                    q += 1;
                }
            }
            q
        });
    }

    /// Resilience must be invisible when faults are off: the resilient
    /// front's stream equals the default front's, bit for bit, outcome
    /// for outcome.
    #[test]
    fn disabled_faults_are_bit_identical_to_plain_serving(
        family_ix in 0usize..4,
        n in 4usize..10,
    ) {
        let dev = DeviceSpec::rtx3090();
        let spec = PlanSpec { family: KernelFamily::ALL[family_ix], use_loa: false };
        let reqs = requests(n);

        let a = in_order(u64::MAX, spec, ResiliencePolicy::default()).run_trace(&reqs, &dev);
        let b = in_order(
            u64::MAX,
            spec,
            ResiliencePolicy { faults: FaultConfig::off(), ..Default::default() },
        )
        .run_trace(&reqs, &dev);
        prop_assert_eq!(a.responses.len(), b.responses.len());
        for (ra, rb) in a.responses.iter().zip(&b.responses) {
            prop_assert_eq!(&ra.outcome, &rb.outcome);
            prop_assert!(matches!(ra.outcome, Outcome::Ok(_)));
            prop_assert_eq!(ra.hit, rb.hit);
            prop_assert_eq!(ra.wasted_sim_ms, 0.0);
        }
        prop_assert_eq!(a.cache, b.cache);
        prop_assert_eq!(a.cache.quarantined, 0);
    }

    /// Same seed, same schedule, same everything: a chaos batch re-run is
    /// reproducible end to end.
    #[test]
    fn chaos_batches_are_reproducible(
        seed in 0u64..1_000_000,
        rate in 0.1f64..0.7,
    ) {
        let dev = DeviceSpec::rtx3090();
        let spec = PlanSpec::hybrid();
        let policy = ResiliencePolicy {
            faults: FaultConfig::uniform(seed, rate),
            ..Default::default()
        };
        let reqs = requests(8);
        let run = || {
            let rep = in_order(u64::MAX, spec, policy).run_trace(&reqs, &dev);
            (rep.responses, rep.cache)
        };
        let (ra, sa) = run();
        let (rb, sb) = run();
        prop_assert_eq!(sa, sb);
        for (x, y) in ra.iter().zip(&rb) {
            prop_assert_eq!(&x.outcome, &y.outcome);
            prop_assert_eq!(x.hit, y.hit);
            prop_assert_eq!(x.wasted_sim_ms, y.wasted_sim_ms);
        }
    }
}
