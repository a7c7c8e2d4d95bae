//! Telemetry is observation, never steering: installing any sink must leave
//! every `FleetMetrics` field bit-identical to the sink-free run — the same
//! frozen-path discipline the backend/fleet/event equivalence suites
//! enforce. This suite pins that, and checks the event stream agrees with
//! the metrics it shadows.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    request_timelines, BurstPhase, BurstyTraceConfig, DispatchPolicy, ExecutionBackend,
    FleetConfig, FleetController, FleetMetrics, MetricsRegistry, NullSink, Request,
    SchedulerConfig, SharedSink, SingleGpuBackend, SloAutoscaler, TraceEvent, TraceRecorder,
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

fn bursty_trace() -> Vec<Request> {
    BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 10,
            },
            BurstPhase {
                arrival_rate_rps: 120.0,
                num_requests: 50,
            },
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 10,
            },
        ],
        prompt_len_range: (64, 256),
        output_len_range: (8, 32),
        seed: 17,
    }
    .generate()
}

/// A heterogeneous autoscaled fleet — the configuration that exercises every
/// emission site: routing, admission, steps, scale-out/in, warm-up, drain.
fn controller(scfg: SchedulerConfig) -> FleetController {
    let config = FleetConfig {
        scheduler: scfg,
        policy: DispatchPolicy::LeastOutstandingTokens,
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    FleetController::new(config)
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Samoyeds,
            &scfg,
        ))
        .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(400.0))
}

/// Every field of `FleetMetrics`, compared bit-for-bit (floats by `to_bits`
/// via exact equality — any drift is a failure, not a tolerance question).
fn assert_metrics_identical(a: &FleetMetrics, b: &FleetMetrics) {
    assert_eq!(a.engine, b.engine);
    assert_eq!(a.replicas, b.replicas);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(
        a.output_tokens_per_s.to_bits(),
        b.output_tokens_per_s.to_bits()
    );
    assert_eq!(a.request_latency, b.request_latency);
    assert_eq!(a.ttft, b.ttft);
    assert_eq!(a.tpot, b.tpot);
    assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits());
    assert_eq!(a.unroutable_ids, b.unroutable_ids);
    assert_eq!(a.drain_incomplete, b.drain_incomplete);
    assert_eq!(a.scale_events.len(), b.scale_events.len());
    for (x, y) in a.scale_events.iter().zip(&b.scale_events) {
        assert_eq!(x.at_ms.to_bits(), y.at_ms.to_bits());
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.replicas_after, y.replicas_after);
        assert_eq!(x.reason, y.reason);
    }
    assert_eq!(a.per_replica.len(), b.per_replica.len());
    for (x, y) in a.per_replica.iter().zip(&b.per_replica) {
        assert_eq!(x.description, y.description);
        assert_eq!(x.engine, y.engine);
        assert_eq!(x.spawned_ms.to_bits(), y.spawned_ms.to_bits());
        assert_eq!(x.ready_ms.to_bits(), y.ready_ms.to_bits());
        assert_eq!(
            x.retired_ms.map(f64::to_bits),
            y.retired_ms.map(f64::to_bits)
        );
        assert_eq!(x.assigned, y.assigned);
        assert_eq!(x.assigned_ids, y.assigned_ids);
        assert_eq!(x.metrics.completed, y.metrics.completed);
        assert_eq!(x.metrics.rejected, y.metrics.rejected);
        assert_eq!(
            x.metrics.output_tokens_per_s.to_bits(),
            y.metrics.output_tokens_per_s.to_bits()
        );
        assert_eq!(x.metrics.request_latency, y.metrics.request_latency);
        assert_eq!(x.metrics.ttft, y.metrics.ttft);
        assert_eq!(x.metrics.tpot, y.metrics.tpot);
        assert_eq!(
            x.metrics.makespan_ms.to_bits(),
            y.metrics.makespan_ms.to_bits()
        );
        assert_eq!(
            x.metrics.peak_memory_gib.to_bits(),
            y.metrics.peak_memory_gib.to_bits()
        );
    }
}

#[test]
fn null_sink_and_recording_sinks_leave_fleet_metrics_bit_identical() {
    let scfg = SchedulerConfig::default();
    let trace = bursty_trace();

    let baseline = controller(scfg).run(&trace);

    let (null_sink, _null) = SharedSink::new(NullSink);
    let with_null = controller(scfg).with_sink(null_sink).run(&trace);
    assert_metrics_identical(&baseline, &with_null);

    let (rec_sink, recorder) = SharedSink::new(TraceRecorder::new());
    let with_recorder = controller(scfg).with_sink(rec_sink).run(&trace);
    assert_metrics_identical(&baseline, &with_recorder);

    let (reg_sink, registry) = SharedSink::new(MetricsRegistry::new());
    let with_registry = controller(scfg).with_sink(reg_sink).run(&trace);
    assert_metrics_identical(&baseline, &with_registry);

    // A bounded ring drops old events but must not perturb the run either.
    let (ring_sink, ring) = SharedSink::new(TraceRecorder::bounded(64));
    let with_ring = controller(scfg).with_sink(ring_sink).run(&trace);
    assert_metrics_identical(&baseline, &with_ring);
    let ring = ring.borrow();
    assert_eq!(ring.len(), 64);
    assert!(
        ring.dropped() > 0,
        "the burst emits far more than 64 events"
    );

    // The shadow stream agrees with the metrics it narrates.
    let events = recorder.borrow().events();
    let completions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Completed { .. }))
        .count();
    assert_eq!(completions, baseline.completed);
    let arrivals = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Arrival { .. }))
        .count();
    assert_eq!(arrivals, trace.len());
    let unroutable = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Unroutable { .. }))
        .count();
    assert_eq!(unroutable, baseline.unroutable_ids.len());
    let scale_outs = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ScaleOut { .. }))
        .count();
    assert_eq!(scale_outs, baseline.scale_outs());
    let scale_ins = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ScaleIn { .. }))
        .count();
    assert_eq!(scale_ins, baseline.scale_ins());
    let commissions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ReplicaCommissioned { .. }))
        .count();
    assert_eq!(commissions, baseline.per_replica.len());

    // The registry's counters shadow the same run.
    let registry = registry.borrow();
    assert_eq!(registry.arrivals as usize, trace.len());
    assert_eq!(registry.completed as usize, baseline.completed);
    assert_eq!(
        registry.routed as usize,
        baseline
            .per_replica
            .iter()
            .map(|r| r.assigned)
            .sum::<usize>()
    );
    assert_eq!(registry.scale_outs as usize, baseline.scale_outs());
    assert!(registry.steps > 0);
    assert!(
        !registry.snapshots.is_empty(),
        "the autoscaled run consults ticks, so snapshots must land"
    );
}

#[test]
fn request_timelines_attribute_latency_exactly_and_match_completions() {
    let scfg = SchedulerConfig::default();
    let trace = bursty_trace();
    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let metrics = controller(scfg).with_sink(sink).run(&trace);

    let events = recorder.borrow().events();
    let timelines = request_timelines(&events);
    assert_eq!(timelines.len(), metrics.completed);
    for t in &timelines {
        let sum = t.queue_ms() + t.prefill_ms() + t.decode_ms();
        assert!(
            (sum - t.latency_ms()).abs() <= 1e-9 * t.latency_ms().max(1.0),
            "attribution must sum to end-to-end latency: {sum} vs {}",
            t.latency_ms()
        );
        assert!(t.queue_ms() >= 0.0 && t.prefill_ms() >= 0.0 && t.decode_ms() >= 0.0);
        // The serving replica is one the dispatch log routed this id to.
        assert!(metrics.per_replica[t.replica].assigned_ids.contains(&t.id));
    }
    // Pooled attribution agrees with the pooled metrics distributions.
    let mean_latency =
        timelines.iter().map(|t| t.latency_ms()).sum::<f64>() / timelines.len() as f64;
    assert!((mean_latency - metrics.request_latency.mean_ms).abs() < 1e-6);
}

#[test]
fn offline_scheduler_emits_the_same_lifecycle_through_its_sink() {
    use samoyeds_serve::Scheduler;

    let scfg = SchedulerConfig::default();
    let trace = samoyeds_serve::TraceConfig {
        num_requests: 20,
        arrival_rate_rps: 15.0,
        prompt_len_range: (32, 256),
        output_len_range: (4, 16),
        seed: 7,
    }
    .generate();
    let backend = SingleGpuBackend::new(
        DeviceSpec::a100_40g(),
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        &scfg,
    );
    let baseline = Scheduler::from_backend(backend.clone(), scfg).run(&trace);

    let (sink, recorder) = SharedSink::new(TraceRecorder::new());
    let traced = Scheduler::from_backend(backend, scfg)
        .with_sink(sink)
        .run(&trace);

    // The offline path is equally unperturbed...
    assert_eq!(baseline.completed.len(), traced.completed.len());
    assert_eq!(baseline.makespan_ms.to_bits(), traced.makespan_ms.to_bits());
    assert_eq!(baseline.steps.len(), traced.steps.len());
    for (a, b) in baseline.completed.iter().zip(&traced.completed) {
        assert_eq!(a.request.id, b.request.id);
        assert_eq!(a.finished_ms.to_bits(), b.finished_ms.to_bits());
    }
    // ...and its stream carries a step span per executed step with the
    // single-GPU cost split (no collectives), plus one first-token and one
    // completion event per request.
    let events = recorder.borrow().events();
    let steps: Vec<_> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Step {
                total_ms,
                collective_ms,
                intra_island_ms,
                spine_ms,
                ..
            } => Some((total_ms, collective_ms, intra_island_ms, spine_ms)),
            _ => None,
        })
        .collect();
    assert_eq!(steps.len(), baseline.steps.len());
    for ((total, collective, intra, spine), record) in steps.iter().zip(&baseline.steps) {
        assert_eq!(total.to_bits(), record.time_ms.to_bits());
        assert_eq!(*collective, 0.0);
        assert_eq!(*intra, 0.0);
        assert_eq!(*spine, 0.0);
    }
    let first_tokens = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FirstToken { .. }))
        .count();
    assert_eq!(first_tokens, traced.completed.len());
    let timelines = request_timelines(&events);
    assert_eq!(timelines.len(), traced.completed.len());
    for (t, c) in timelines.iter().zip(&traced.completed) {
        assert_eq!(t.id, c.request.id);
        assert_eq!(t.admitted_ms.to_bits(), c.admitted_ms.to_bits());
        assert_eq!(t.first_token_ms.to_bits(), c.first_token_ms.to_bits());
        assert_eq!(t.finished_ms.to_bits(), c.finished_ms.to_bits());
    }
}
