//! Frozen-legacy equivalence suite for the event-driven fleet core.
//!
//! `legacy` below freezes `FleetController::run` exactly as it existed
//! before the event-queue refactor: a fixed tick loop (`next_tick +=
//! tick_ms` accumulation and all), per-arrival advances, `ready_ms`-based
//! routability, a panicking drain guard, and the shared aggregation —
//! re-expressed against the crate's public API. Running both the frozen loop
//! and today's event-driven loop on shared traces and asserting exact `f64`
//! equality on every `FleetMetrics` field (admissions, rejections, latency
//! percentiles, the scale-event timeline with its reason strings, per-replica
//! breakdowns) proves the refactor changed the *mechanism* — next-event time
//! advance, tick elision for non-scaling policies — without moving a single
//! bit of the *results*. Same discipline as `backend_equivalence.rs` and
//! `fleet_equivalence.rs`.
//!
//! Both sides run today's `SloAutoscaler`, so the suite pins the loop
//! refactor, not the (separately fixed and tested) policy streak handling.
//! The scenarios use tick periods (200 ms, 250 ms) whose running sums are
//! exact in `f64`, so the legacy accumulated schedule and the event core's
//! derived `k * tick_ms` schedule coincide bit-for-bit.

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    BurstPhase, BurstyTraceConfig, DispatchPolicy, ExecutionBackend, FleetConfig, FleetController,
    FleetMetrics, NoAutoscale, Request, SchedulerConfig, SingleGpuBackend, SloAutoscaler,
    TraceConfig,
};

/// The pre-event-core tick-driven fleet loop, frozen for comparison.
mod legacy {
    use samoyeds_moe::engines::EngineKind;
    use samoyeds_serve::metrics::{latency_summary, ServingMetrics};
    use samoyeds_serve::request::Request;
    use samoyeds_serve::scheduler::{ReplicaDriver, SchedulerConfig};
    use samoyeds_serve::{
        AutoscalePolicy, DispatchPolicy, ExecutionBackend, FleetConfig, FleetMetrics,
        FleetObservation, ReplicaBreakdown, ScaleDecision, ScaleEvent, ScaleKind,
    };

    struct Slot {
        driver: ReplicaDriver<Box<dyn ExecutionBackend>>,
        description: String,
        spawned_ms: f64,
        ready_ms: f64,
        draining: bool,
        retired_ms: Option<f64>,
        assigned_ids: Vec<u64>,
    }

    impl Slot {
        fn new(
            backend: Box<dyn ExecutionBackend>,
            scfg: SchedulerConfig,
            spawned_ms: f64,
            ready_ms: f64,
        ) -> Self {
            let description = backend.describe();
            Self {
                driver: ReplicaDriver::new(backend, scfg),
                description,
                spawned_ms,
                ready_ms,
                draining: false,
                retired_ms: None,
                assigned_ids: Vec::new(),
            }
        }

        fn commissioned(&self) -> bool {
            !self.draining && self.retired_ms.is_none()
        }

        fn routable(&self, now_ms: f64) -> bool {
            self.commissioned() && self.ready_ms <= now_ms
        }
    }

    /// Verbatim pre-refactor `FleetController::run`: the fixed tick loop
    /// with accumulated `next_tick`, and the drain loop with its panicking
    /// safety guard.
    pub fn run_frozen(
        config: FleetConfig,
        initial: Vec<Box<dyn ExecutionBackend>>,
        factory: Option<Box<dyn Fn() -> Box<dyn ExecutionBackend>>>,
        mut autoscaler: Box<dyn AutoscalePolicy>,
        trace: &[Request],
    ) -> FleetMetrics {
        assert!(!initial.is_empty());
        let scfg = config.scheduler;
        let mut slots: Vec<Slot> = initial
            .into_iter()
            .map(|backend| Slot::new(backend, scfg, 0.0, 0.0))
            .collect();
        let mut events: Vec<ScaleEvent> = Vec::new();
        let mut unroutable: Vec<u64> = Vec::new();
        let mut peak_replicas = slots.len();
        let mut rr_cursor = 0usize;
        let mut next_tick = config.tick_ms;

        for request in trace {
            while next_tick <= request.arrival_ms {
                control_tick(
                    next_tick,
                    &config,
                    autoscaler.as_mut(),
                    factory.as_deref(),
                    &mut slots,
                    &mut events,
                    &mut peak_replicas,
                );
                next_tick += config.tick_ms;
            }
            for slot in slots.iter_mut() {
                slot.driver.advance_to(request.arrival_ms);
            }

            let eligible: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| {
                    slot.routable(request.arrival_ms) && slot.driver.can_ever_admit(request)
                })
                .map(|(i, _)| i)
                .collect();
            let Some(&target) = (match config.policy {
                DispatchPolicy::RoundRobin => {
                    let picked = eligible.get(rr_cursor.checked_rem(eligible.len()).unwrap_or(0));
                    rr_cursor = rr_cursor.wrapping_add(1);
                    picked
                }
                DispatchPolicy::LeastOutstandingTokens => eligible
                    .iter()
                    .min_by_key(|&&i| slots[i].driver.outstanding_tokens()),
            }) else {
                unroutable.push(request.id);
                continue;
            };
            slots[target].driver.enqueue(*request);
            slots[target].assigned_ids.push(request.id);
        }

        let mut guard = 0usize;
        while slots.iter().any(|slot| !slot.driver.is_drained()) {
            control_tick(
                next_tick,
                &config,
                autoscaler.as_mut(),
                factory.as_deref(),
                &mut slots,
                &mut events,
                &mut peak_replicas,
            );
            next_tick += config.tick_ms;
            guard += 1;
            assert!(guard < 10_000_000, "legacy drain guard");
        }

        finalize(slots, events, unroutable, peak_replicas)
    }

    #[allow(clippy::too_many_arguments)]
    fn control_tick(
        t: f64,
        config: &FleetConfig,
        autoscaler: &mut dyn AutoscalePolicy,
        factory: Option<&dyn Fn() -> Box<dyn ExecutionBackend>>,
        slots: &mut Vec<Slot>,
        events: &mut Vec<ScaleEvent>,
        peak_replicas: &mut usize,
    ) {
        for slot in slots.iter_mut() {
            slot.driver.advance_to(t);
            if slot.draining && slot.retired_ms.is_none() && slot.driver.is_drained() {
                slot.retired_ms = Some(t);
            }
        }

        let obs = observe(t, config, slots);
        match autoscaler.decide(&obs) {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleOut => {
                let commissioned = slots.iter().filter(|s| s.commissioned()).count();
                if commissioned < config.max_replicas {
                    if let Some(factory) = factory {
                        slots.push(Slot::new(
                            factory(),
                            config.scheduler,
                            t,
                            t + config.warmup_ms,
                        ));
                        events.push(ScaleEvent {
                            at_ms: t,
                            kind: ScaleKind::Out,
                            replicas_after: commissioned + 1,
                            reason: describe_observation(&obs),
                        });
                    }
                }
            }
            ScaleDecision::ScaleIn => {
                let commissioned = slots.iter().filter(|s| s.commissioned()).count();
                let routable_capable = slots
                    .iter()
                    .filter(|s| s.routable(t) && s.driver.can_serve_model())
                    .count();
                let candidate = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.commissioned())
                    .filter(|(_, s)| {
                        !s.driver.can_serve_model()
                            || s.ready_ms > t
                            || routable_capable > config.min_replicas
                    })
                    .min_by(|(ia, a), (ib, b)| {
                        a.driver
                            .can_serve_model()
                            .cmp(&b.driver.can_serve_model())
                            .then(
                                a.driver
                                    .outstanding_tokens()
                                    .cmp(&b.driver.outstanding_tokens()),
                            )
                            .then(
                                b.spawned_ms
                                    .partial_cmp(&a.spawned_ms)
                                    .expect("spawn times are finite"),
                            )
                            .then(ib.cmp(ia))
                    })
                    .map(|(i, _)| i);
                if let Some(i) = candidate {
                    let commissioned_capable = slots
                        .iter()
                        .filter(|s| s.commissioned() && s.driver.can_serve_model())
                        .count();
                    let allowed = if slots[i].driver.can_serve_model() {
                        commissioned_capable > config.min_replicas
                    } else {
                        commissioned > 1
                    };
                    if allowed {
                        slots[i].draining = true;
                        if slots[i].driver.is_drained() {
                            slots[i].retired_ms = Some(t);
                        }
                        events.push(ScaleEvent {
                            at_ms: t,
                            kind: ScaleKind::In,
                            replicas_after: commissioned - 1,
                            reason: describe_observation(&obs),
                        });
                    }
                }
            }
        }
        *peak_replicas = (*peak_replicas).max(slots.iter().filter(|s| s.commissioned()).count());
    }

    fn observe(t: f64, config: &FleetConfig, slots: &[Slot]) -> FleetObservation {
        let window_start = (t - config.window_ms).max(0.0);
        let mut ttfts = Vec::new();
        for slot in slots {
            for c in slot.driver.completed().iter().rev() {
                if c.finished_ms <= window_start {
                    break;
                }
                if c.first_token_ms > window_start && c.first_token_ms <= t {
                    ttfts.push(c.ttft_ms());
                }
            }
            for r in slot.driver.running_requests() {
                if let Some(first) = r.first_token_ms {
                    if first > window_start && first <= t {
                        ttfts.push(first - r.request.arrival_ms);
                    }
                }
            }
        }
        let p95_ttft_ms = if ttfts.is_empty() {
            None
        } else {
            Some(latency_summary(&ttfts).p95_ms)
        };
        let max_pending_wait_ms = slots
            .iter()
            .filter(|s| s.retired_ms.is_none())
            .filter_map(|s| s.driver.oldest_unserved_arrival_ms())
            .map(|arrival| (t - arrival).max(0.0))
            .fold(0.0f64, f64::max);

        let mut busy_ms = 0.0;
        let mut available_ms = 0.0;
        for slot in slots.iter().filter(|s| s.retired_ms.is_none()) {
            let since = window_start.max(slot.ready_ms);
            if since < t {
                busy_ms += slot.driver.busy_ms_between(since, t);
                available_ms += t - since;
            }
        }
        FleetObservation {
            now_ms: t,
            routable_replicas: slots.iter().filter(|s| s.routable(t)).count(),
            warming_replicas: slots
                .iter()
                .filter(|s| s.commissioned() && s.ready_ms > t)
                .count(),
            p95_ttft_ms,
            max_pending_wait_ms,
            utilization: if available_ms > 0.0 {
                busy_ms / available_ms
            } else {
                0.0
            },
            outstanding_tokens: slots.iter().map(|s| s.driver.outstanding_tokens()).sum(),
            queued_requests: slots.iter().map(|s| s.driver.queued_requests()).sum(),
        }
    }

    fn describe_observation(obs: &FleetObservation) -> String {
        format!(
            "p95 TTFT {} · max wait {:.0} ms · util {:.0}% · {} queued",
            obs.p95_ttft_ms
                .map_or_else(|| "-".to_string(), |p| format!("{p:.0} ms")),
            obs.max_pending_wait_ms,
            obs.utilization * 100.0,
            obs.queued_requests,
        )
    }

    fn finalize(
        slots: Vec<Slot>,
        scale_events: Vec<ScaleEvent>,
        unroutable_ids: Vec<u64>,
        peak_replicas: usize,
    ) -> FleetMetrics {
        let mut per_replica = Vec::with_capacity(slots.len());
        let mut latencies = Vec::new();
        let mut ttfts = Vec::new();
        let mut tpots = Vec::new();
        let mut completed = 0usize;
        let mut rejected = unroutable_ids.len();
        let mut output_tokens = 0usize;
        let mut makespan_ms = 0.0f64;
        for slot in slots {
            let result = slot.driver.finish();
            completed += result.completed.len();
            rejected += result.rejected.len();
            output_tokens += result.output_tokens();
            makespan_ms = makespan_ms.max(result.makespan_ms);
            latencies.extend(result.completed.iter().map(|c| c.latency_ms()));
            ttfts.extend(result.completed.iter().map(|c| c.ttft_ms()));
            tpots.extend(result.completed.iter().filter_map(|c| c.tpot_ms()));
            per_replica.push(ReplicaBreakdown {
                engine: result.engine,
                metrics: ServingMetrics::from_result(&result),
                description: slot.description,
                spawned_ms: slot.spawned_ms,
                ready_ms: slot.ready_ms,
                retired_ms: slot.retired_ms,
                assigned: slot.assigned_ids.len(),
                assigned_ids: slot.assigned_ids,
            });
        }
        FleetMetrics {
            engine: per_replica
                .first()
                .map(|r| r.engine)
                .unwrap_or(EngineKind::Samoyeds),
            replicas: peak_replicas,
            completed,
            rejected,
            output_tokens_per_s: if makespan_ms > 0.0 {
                output_tokens as f64 / (makespan_ms / 1e3)
            } else {
                0.0
            },
            request_latency: latency_summary(&latencies),
            ttft: latency_summary(&ttfts),
            tpot: latency_summary(&tpots),
            makespan_ms,
            per_replica,
            scale_events,
            unroutable_ids,
            failed_ids: Vec::new(),
            faults: Vec::new(),
            drain_incomplete: false,
            drain_incomplete_replicas: Vec::new(),
        }
    }
}

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

/// Exact `f64` / structural equality on every `FleetMetrics` field.
fn assert_metrics_equal(event_driven: &FleetMetrics, frozen: &FleetMetrics) {
    assert_eq!(event_driven.engine, frozen.engine);
    assert_eq!(event_driven.replicas, frozen.replicas);
    assert_eq!(event_driven.completed, frozen.completed);
    assert_eq!(event_driven.rejected, frozen.rejected);
    assert_eq!(event_driven.output_tokens_per_s, frozen.output_tokens_per_s);
    assert_eq!(event_driven.request_latency, frozen.request_latency);
    assert_eq!(event_driven.ttft, frozen.ttft);
    assert_eq!(event_driven.tpot, frozen.tpot);
    assert_eq!(event_driven.makespan_ms, frozen.makespan_ms);
    assert_eq!(event_driven.unroutable_ids, frozen.unroutable_ids);
    assert!(!event_driven.drain_incomplete);
    assert_eq!(event_driven.scale_events.len(), frozen.scale_events.len());
    for (a, b) in event_driven.scale_events.iter().zip(&frozen.scale_events) {
        assert_eq!(a.at_ms, b.at_ms);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.replicas_after, b.replicas_after);
        assert_eq!(a.reason, b.reason);
    }
    assert_eq!(event_driven.per_replica.len(), frozen.per_replica.len());
    for (a, b) in event_driven.per_replica.iter().zip(&frozen.per_replica) {
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
fn fixed_fleet_with_elided_ticks_matches_the_frozen_tick_loop() {
    // NoAutoscale elides the tick schedule entirely: the fleet advances on
    // arrivals and step completions alone. The frozen loop still ticks every
    // 200 ms; both must land on identical metrics.
    let scfg = SchedulerConfig::default();
    let config = FleetConfig::default();
    for trace in [poisson_trace(), bursty_trace()] {
        let event_driven = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        let frozen = legacy::run_frozen(
            config,
            vec![
                single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg),
                single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg),
            ],
            None,
            Box::new(NoAutoscale),
            &trace,
        );
        assert_metrics_equal(&event_driven, &frozen);
    }
}

#[test]
fn heterogeneous_round_robin_fleet_matches_the_frozen_tick_loop() {
    // Mixed fleet with dead weight (dense weights can never fit the 12 GiB
    // card) under round-robin: eligibility filtering and the wrapping
    // cursor must interleave identically.
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
        let mut controller = FleetController::new(config);
        for backend in build() {
            controller = controller.with_replica(backend);
        }
        let event_driven = controller.run(&trace);
        let frozen = legacy::run_frozen(config, build(), None, Box::new(NoAutoscale), &trace);
        assert_metrics_equal(&event_driven, &frozen);
    }
}

#[test]
fn autoscaled_fleet_matches_the_frozen_tick_loop() {
    // SLO-driven autoscaling with warm-up: scale-outs, warm-up completions,
    // drains and retirements must land at the same instants with the same
    // reason strings. Both sides run today's `SloAutoscaler`.
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        warmup_ms: 500.0,
        max_replicas: 4,
        ..FleetConfig::default()
    };
    let mut timeline_events = 0;
    for trace in [poisson_trace(), bursty_trace()] {
        let event_driven = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&trace);
        let frozen = legacy::run_frozen(
            config,
            vec![single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg)],
            Some(Box::new(move || {
                single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg)
            })),
            Box::new(SloAutoscaler::new(400.0)),
            &trace,
        );
        assert_metrics_equal(&event_driven, &frozen);
        timeline_events += event_driven.scale_events.len();
    }
    // The scenario actually exercises the timeline (the burst forces
    // scale-outs and the post-burst idle forces scale-ins).
    assert!(timeline_events >= 2, "only {timeline_events} scale events");
}

#[test]
fn zero_warmup_round_robin_fleet_matches_the_frozen_tick_loop() {
    // Zero-length warm-up makes warm-up completion simultaneous with its
    // scale-out tick, and an odd 250 ms tick stresses the tick/arrival
    // interleaving; round-robin dispatch rides along.
    let scfg = SchedulerConfig::default();
    let config = FleetConfig {
        policy: DispatchPolicy::RoundRobin,
        tick_ms: 250.0,
        warmup_ms: 0.0,
        max_replicas: 3,
        ..FleetConfig::default()
    };
    for trace in [poisson_trace(), bursty_trace()] {
        let event_driven = FleetController::new(config)
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .with_factory(move || single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(900.0))
            .run(&trace);
        let frozen = legacy::run_frozen(
            config,
            vec![single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            )],
            Some(Box::new(move || {
                single(DeviceSpec::rtx4070_super(), EngineKind::Samoyeds, &scfg)
            })),
            Box::new(SloAutoscaler::new(900.0)),
            &trace,
        );
        assert_metrics_equal(&event_driven, &frozen);
    }
}
