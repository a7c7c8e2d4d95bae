//! Co-located equivalence suite for prefill/decode disaggregation.
//!
//! The ratio-0 endpoint of the disaggregation sweep — no decode pods, so
//! the KV handoff is disabled — must reproduce the plain co-located
//! `FleetController` bit for bit: every `FleetMetrics` field, every latency
//! percentile, every scale-event reason string, every per-replica
//! breakdown. This is the same discipline `fault_equivalence.rs` applies to
//! the chaos layer: an armed-but-idle subsystem must be free. The scenarios
//! mirror that suite (fixed fleets, heterogeneous round-robin, SLO
//! autoscaling with warm-up) so the pin covers the same surface.

use samoyeds_gpu_sim::{DeviceSpec, LinkSpec};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    BurstPhase, BurstyTraceConfig, DisaggregationConfig, DispatchPolicy, ExecutionBackend,
    FleetConfig, FleetController, FleetMetrics, MemoryModel, Request, SchedulerConfig,
    SingleGpuBackend, SloAutoscaler, TraceConfig,
};

fn single(
    device: DeviceSpec,
    engine: EngineKind,
    scfg: &SchedulerConfig,
) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        engine,
        scfg,
    ))
}

fn poisson_trace() -> Vec<Request> {
    TraceConfig {
        num_requests: 48,
        arrival_rate_rps: 30.0,
        prompt_len_range: (32, 384),
        output_len_range: (4, 32),
        seed: 23,
    }
    .generate()
}

fn bursty_trace() -> Vec<Request> {
    BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 8,
            },
            BurstPhase {
                arrival_rate_rps: 150.0,
                num_requests: 60,
            },
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 8,
            },
        ],
        prompt_len_range: (64, 256),
        output_len_range: (16, 48),
        seed: 17,
    }
    .generate()
}

/// A disaggregation config whose decode side is empty — every replica is a
/// prefill pod and the handoff machinery never engages.
fn ratio_zero(prefill: Vec<usize>) -> DisaggregationConfig {
    DisaggregationConfig::uniform(
        prefill,
        Vec::new(),
        MemoryModel::new(
            &DeviceSpec::a100_40g(),
            EngineKind::Samoyeds,
            &MoeModelConfig::qwen2_moe(),
        ),
        LinkSpec {
            name: "kv link".to_string(),
            latency_us: 5.0,
            bandwidth_gbps: 50.0,
        },
    )
}

/// Exact `f64` / structural equality on every `FleetMetrics` field.
fn assert_metrics_equal(disagg: &FleetMetrics, plain: &FleetMetrics) {
    assert!(disagg.faults.is_empty());
    assert!(disagg.failed_ids.is_empty());
    assert_eq!(disagg.engine, plain.engine);
    assert_eq!(disagg.replicas, plain.replicas);
    assert_eq!(disagg.completed, plain.completed);
    assert_eq!(disagg.rejected, plain.rejected);
    assert_eq!(disagg.output_tokens_per_s, plain.output_tokens_per_s);
    assert_eq!(disagg.request_latency, plain.request_latency);
    assert_eq!(disagg.ttft, plain.ttft);
    assert_eq!(disagg.tpot, plain.tpot);
    assert_eq!(disagg.makespan_ms, plain.makespan_ms);
    assert_eq!(disagg.unroutable_ids, plain.unroutable_ids);
    assert_eq!(disagg.drain_incomplete, plain.drain_incomplete);
    assert_eq!(
        disagg.drain_incomplete_replicas,
        plain.drain_incomplete_replicas
    );
    assert_eq!(disagg.scale_events.len(), plain.scale_events.len());
    for (a, b) in disagg.scale_events.iter().zip(&plain.scale_events) {
        assert_eq!(a.at_ms, b.at_ms);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.replicas_after, b.replicas_after);
        assert_eq!(a.reason, b.reason);
    }
    assert_eq!(disagg.per_replica.len(), plain.per_replica.len());
    for (a, b) in disagg.per_replica.iter().zip(&plain.per_replica) {
        assert_eq!(a.description, b.description);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.spawned_ms, b.spawned_ms);
        assert_eq!(a.ready_ms, b.ready_ms);
        assert_eq!(a.retired_ms, b.retired_ms);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.assigned_ids, b.assigned_ids);
        assert_eq!(a.metrics.engine, b.metrics.engine);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.rejected, b.metrics.rejected);
        assert_eq!(a.metrics.output_tokens_per_s, b.metrics.output_tokens_per_s);
        assert_eq!(
            a.metrics.processed_tokens_per_s,
            b.metrics.processed_tokens_per_s
        );
        assert_eq!(a.metrics.request_latency, b.metrics.request_latency);
        assert_eq!(a.metrics.ttft, b.metrics.ttft);
        assert_eq!(a.metrics.tpot, b.metrics.tpot);
        assert_eq!(a.metrics.makespan_ms, b.metrics.makespan_ms);
        assert_eq!(a.metrics.peak_memory_gib, b.metrics.peak_memory_gib);
        assert_eq!(a.metrics.budget_gib, b.metrics.budget_gib);
        assert_eq!(a.metrics.servable, b.metrics.servable);
    }
}

#[test]
fn ratio_zero_on_a_fixed_fleet_matches_the_plain_controller() {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig::default();
    for trace in [poisson_trace(), bursty_trace()] {
        let plain = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        let disagg = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(ratio_zero(vec![0, 1]))
            .run(&trace);
        assert_metrics_equal(&disagg, &plain);
    }
}

#[test]
fn ratio_zero_on_a_heterogeneous_round_robin_fleet_matches_the_plain_controller() {
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        policy: DispatchPolicy::RoundRobin,
        ..FleetConfig::default()
    };
    let build = || {
        vec![
            single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg),
            single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg),
            single(DeviceSpec::rtx4070_super(), EngineKind::Transformers, &scfg),
        ]
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let mut plain_controller = FleetController::new(config);
        for backend in build() {
            plain_controller = plain_controller.with_replica(backend);
        }
        let plain = plain_controller.run(&trace);
        let mut disagg_controller =
            FleetController::new(config).with_disaggregation(ratio_zero(vec![0, 1, 2]));
        for backend in build() {
            disagg_controller = disagg_controller.with_replica(backend);
        }
        let disagg = disagg_controller.run(&trace);
        assert_metrics_equal(&disagg, &plain);
    }
}

#[test]
fn ratio_zero_on_an_autoscaled_fleet_matches_the_plain_controller() {
    // Scale-outs, warm-up completions, drains and retirements must land at
    // the same instants with the same reason strings even with the
    // disaggregation machinery armed (but transfer-disabled).
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let plain = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&trace);
        let disagg = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .with_disaggregation(ratio_zero(vec![0]))
            .run(&trace);
        assert_metrics_equal(&disagg, &plain);
    }
}
