//! Property-based invariants of the online fleet control plane: request
//! conservation across heterogeneous fleets, the autoscaler's replica
//! floor, and memory-budget safety of capability-aware dispatch.

use proptest::prelude::*;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    DispatchPolicy, ExecutionBackend, FleetConfig, FleetController, ScaleKind, SchedulerConfig,
    SingleGpuBackend, SloAutoscaler, TraceConfig,
};

/// The heterogeneous replica menu: device × engine pairs with different
/// capacities and capabilities (the dense 12 GiB replica cannot hold the
/// model at all, so it exercises the capability gate).
fn replica(idx: usize, scfg: &SchedulerConfig) -> Box<dyn ExecutionBackend> {
    let model = MoeModelConfig::qwen2_moe();
    let (device, engine) = match idx % 4 {
        0 => (DeviceSpec::a100_40g(), EngineKind::Samoyeds),
        1 => (DeviceSpec::rtx4070_super(), EngineKind::Samoyeds),
        2 => (DeviceSpec::a100_40g(), EngineKind::Transformers),
        _ => (DeviceSpec::rtx4070_super(), EngineKind::Transformers),
    };
    Box::new(SingleGpuBackend::new(device, &model, engine, scfg))
}

fn policy(idx: usize) -> DispatchPolicy {
    match idx % 2 {
        0 => DispatchPolicy::LeastOutstandingTokens,
        _ => DispatchPolicy::RoundRobin,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The online dispatcher conserves requests over any heterogeneous
    /// fleet: the union of the per-replica assignment logs plus the
    /// unroutable set is exactly the input trace, with no duplicates, and
    /// every request ends up completed or rejected.
    #[test]
    fn online_dispatch_conserves_requests(
        num_requests in 1usize..40,
        rate in 1.0f64..40.0,
        first_replica in 0usize..4,
        second_replica in 0usize..4,
        policy_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let scfg = SchedulerConfig::default();
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: rate,
            prompt_len_range: (16, 256),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        let config = FleetConfig {
            policy: policy(policy_idx),
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(replica(first_replica, &scfg))
            .with_replica(replica(second_replica, &scfg))
            .run(&trace);

        prop_assert_eq!(metrics.completed + metrics.rejected, trace.len());
        let mut ids: Vec<u64> = metrics
            .per_replica
            .iter()
            .flat_map(|r| r.assigned_ids.iter().copied())
            .chain(metrics.unroutable_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        let expected: Vec<u64> = trace.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids, expected);
        // Routing is capability-aware: a replica is only handed requests it
        // could admit, so no replica-level rejection ever happens — every
        // rejection is an explicit fleet-level unroutable.
        for r in &metrics.per_replica {
            prop_assert_eq!(r.metrics.rejected, 0);
            prop_assert_eq!(r.metrics.completed, r.assigned);
        }
        prop_assert_eq!(metrics.rejected, metrics.unroutable_ids.len());
    }

    /// The autoscaler never drops the fleet below one replica, never
    /// exceeds the ceiling, and never admits a request past a replica's
    /// memory budget, whatever the SLO, warm-up or burstiness.
    #[test]
    fn autoscaler_respects_floor_ceiling_and_budgets(
        num_requests in 4usize..48,
        rate in 4.0f64..200.0,
        slo_ms in 100.0f64..2_000.0,
        warmup_ms in 0.0f64..3_000.0,
        max_replicas in 1usize..5,
        policy_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let scfg = SchedulerConfig::default();
        let trace = TraceConfig {
            num_requests,
            arrival_rate_rps: rate,
            prompt_len_range: (16, 256),
            output_len_range: (2, 24),
            seed,
        }
        .generate();
        let config = FleetConfig {
            policy: policy(policy_idx),
            warmup_ms,
            min_replicas: 1,
            max_replicas,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(replica(0, &scfg))
            .with_factory(move || replica(0, &scfg))
            .with_autoscaler(SloAutoscaler::new(slo_ms))
            .run(&trace);

        prop_assert_eq!(metrics.completed, trace.len());
        // Timeline sanity: the fleet never reports fewer than one replica
        // or more than the ceiling, and peak tracks the events.
        for e in &metrics.scale_events {
            prop_assert!(e.replicas_after >= 1, "floor violated: {:?}", e);
            prop_assert!(e.replicas_after <= max_replicas, "ceiling violated: {:?}", e);
        }
        prop_assert!(metrics.replicas >= 1);
        prop_assert!(metrics.replicas <= max_replicas);
        // Replaying the timeline never crosses the floor or the ceiling.
        let mut live = 1usize;
        for e in &metrics.scale_events {
            match e.kind {
                ScaleKind::Out => live += 1,
                ScaleKind::In => live -= 1,
            }
            prop_assert_eq!(live, e.replicas_after);
            prop_assert!(live >= 1 && live <= max_replicas);
        }
        // Budget safety end to end: no replica's peak footprint exceeds its
        // budget, and scaled-out replicas charge their warm-up.
        for r in &metrics.per_replica {
            prop_assert!(
                r.metrics.peak_memory_gib <= r.metrics.budget_gib,
                "replica {} used {:.2} of {:.2} GiB",
                r.description,
                r.metrics.peak_memory_gib,
                r.metrics.budget_gib,
            );
            prop_assert_eq!(r.metrics.rejected, 0);
            prop_assert!((r.ready_ms - r.spawned_ms - if r.spawned_ms > 0.0 { warmup_ms } else { 0.0 }).abs() < 1e-9);
        }
    }
}
