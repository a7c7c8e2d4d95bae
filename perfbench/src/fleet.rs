//! The fleet workloads: `fleet_short` and `cluster_ep`.
//!
//! Each builds a `FleetController` with `NoAutoscale` over a fixed set of
//! replicas and serves an open-loop Poisson trace generated from the
//! workload seed. The timed section is `FleetController::run`. Simulated
//! figures come from the run's `FleetMetrics` and from a recording
//! `TraceSink` installed on the untimed warm-up repetition only.
//!
//! The traced repetition wraps every replica in [`TimedBackend`] (times and
//! delegates `step_cost`, recording each call's step shape), installs the
//! same sink, and then replays the recorded shapes through `TopKRouter`,
//! `Engine::moe_layer_cost` and, on `cluster_ep`, `dist` placement and
//! cluster stepping, each under its own timer.

use crate::kernel::{price_layer, time_pricing, LayerPrice};
use crate::stats::{
    another_rep, mean, median, percentile, ratio, sample_times, timed, Repetitions,
};
use crate::{Args, Run};
use samoyeds_dist::{ClusterBackend, ClusterConfig, ClusterEngine, PlacementStrategy};
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::{MoeModelConfig, TopKRouter};
use samoyeds_serve::{
    ExecutionBackend, FleetConfig, FleetController, FleetMetrics, LatencySummary, MemoryBudget,
    NoAutoscale, Request, SchedulerConfig, SharedSink, SingleGpuBackend, StepCost, StepWorkload,
    TraceConfig, TraceEvent, TraceSink,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups timed before each timed repetition: at least 3, more until
/// 50 ms have passed (at most 100). The median over the run is reported.
const SETUPS: (usize, usize, f64) = (3, 100, 0.05);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Short,
    ClusterEp,
}

impl Workload {
    pub fn from_name(name: &str) -> Self {
        match name {
            "fleet_short" => Workload::Short,
            "cluster_ep" => Workload::ClusterEp,
            other => unreachable!("not a fleet workload: {other}"),
        }
    }

    /// Replicas in the fleet.
    fn replicas(self) -> usize {
        match self {
            Workload::Short => 8,
            Workload::ClusterEp => 2,
        }
    }

    /// The open-loop Poisson trace.
    fn trace(self, seed: u64) -> TraceConfig {
        let (num_requests, arrival_rate_rps, prompt_len_range, output_len_range) = match self {
            Workload::Short => (50_000, 400.0, (16, 64), (4, 16)),
            Workload::ClusterEp => (6_000, 50.0, (64, 512), (16, 64)),
        };
        TraceConfig {
            num_requests,
            arrival_rate_rps,
            prompt_len_range,
            output_len_range,
            seed,
        }
    }

    /// Fixed (TTFT, TPOT) limits of `sim_slo_attainment`, ms.
    fn slo_ms(self) -> (f64, f64) {
        match self {
            Workload::Short => (185.0, 94.0),
            Workload::ClusterEp => (85.0, 43.5),
        }
    }

    /// The GPU every replica (or pod rank) runs on.
    fn device(self) -> DeviceSpec {
        match self {
            Workload::Short => DeviceSpec::a100_40g(),
            Workload::ClusterEp => DeviceSpec::rtx4070_super(),
        }
    }

    fn backend(self, scfg: &SchedulerConfig) -> Box<dyn ExecutionBackend> {
        match self {
            Workload::Short => Box::new(SingleGpuBackend::new(
                self.device(),
                &model(),
                EngineKind::Samoyeds,
                scfg,
            )),
            Workload::ClusterEp => Box::new(cluster_pod(scfg)),
        }
    }
}

fn model() -> MoeModelConfig {
    MoeModelConfig::qwen2_moe()
}

/// One `cluster_ep` pod: 4 RTX 4070 Super in their node topology.
fn cluster_pod(scfg: &SchedulerConfig) -> ClusterBackend {
    ClusterBackend::new(
        ClusterConfig::new(DeviceSpec::rtx4070_super(), 4, ClusterEngine::Samoyeds)
            .with_node_topology(),
        model(),
        scfg,
    )
}

fn fleet_config(workload: Workload) -> FleetConfig {
    FleetConfig {
        max_replicas: workload.replicas(),
        ..FleetConfig::default()
    }
}

struct Inputs {
    trace: Vec<Request>,
    backends: Vec<Box<dyn ExecutionBackend>>,
}

fn setup(workload: Workload, seed: u64) -> Inputs {
    let scfg = fleet_config(workload).scheduler;
    Inputs {
        trace: workload.trace(seed).generate(),
        backends: (0..workload.replicas())
            .map(|_| workload.backend(&scfg))
            .collect(),
    }
}

fn controller(
    workload: Workload,
    backends: Vec<Box<dyn ExecutionBackend>>,
    sink: Option<SharedSink>,
) -> FleetController {
    let mut fleet = FleetController::new(fleet_config(workload)).with_autoscaler(NoAutoscale);
    if let Some(sink) = sink {
        fleet = fleet.with_sink(sink);
    }
    backends
        .into_iter()
        .fold(fleet, |fleet, backend| fleet.with_replica(backend))
}

/// Exact event counts, in `serve.events.*` order; `STEP` and `TOTAL` index
/// the step and all-events counts.
const STEP: usize = 3;
const TOTAL: usize = 6;
const EVENT_NAMES: [&str; 7] = [
    "serve.events.arrival",
    "serve.events.admitted",
    "serve.events.rejected",
    "serve.events.step",
    "serve.events.first_token",
    "serve.events.completed",
    "serve.events.total",
];

/// A completed request's simulated timings, ms.
#[derive(Debug, Clone, Copy)]
struct Served {
    queue_wait: f64,
    ttft: f64,
    tpot: Option<f64>,
}

/// The recording sink: event counts, per-request timings and step sizes.
#[derive(Debug, Default)]
struct RunSink {
    events: [u64; 7],
    served: Vec<Served>,
    step_tokens: Vec<f64>,
}

impl TraceSink for RunSink {
    fn record(&mut self, event: TraceEvent) {
        self.events[TOTAL] += 1;
        match event {
            TraceEvent::Arrival { .. } => self.events[0] += 1,
            TraceEvent::Admitted { .. } => self.events[1] += 1,
            TraceEvent::Rejected { .. } => self.events[2] += 1,
            TraceEvent::Step {
                prefill_tokens,
                decode_tokens,
                ..
            } => {
                self.events[STEP] += 1;
                self.step_tokens
                    .push((prefill_tokens + decode_tokens) as f64);
            }
            TraceEvent::FirstToken { .. } => self.events[4] += 1,
            TraceEvent::Completed {
                arrival_ms,
                admitted_ms,
                first_token_ms,
                finished_ms,
                output_len,
                ..
            } => {
                self.events[5] += 1;
                self.served.push(Served {
                    queue_wait: admitted_ms - arrival_ms,
                    ttft: first_token_ms - arrival_ms,
                    tpot: (output_len >= 2)
                        .then(|| (finished_ms - first_token_ms) / (output_len - 1) as f64),
                });
            }
            _ => {}
        }
    }
}

/// Run the fleet once with a fresh recording sink.
fn run_recorded(
    workload: Workload,
    backends: Vec<Box<dyn ExecutionBackend>>,
    trace: &[Request],
) -> (FleetMetrics, RunSink, f64) {
    let (handle, sink) = SharedSink::new(RunSink::default());
    let fleet = controller(workload, backends, Some(handle));
    let (metrics, wall) = timed(|| fleet.run(trace));
    let sink = Rc::try_unwrap(sink)
        .map(RefCell::into_inner)
        .unwrap_or_else(|shared| std::mem::take(&mut *shared.borrow_mut()));
    (metrics, sink, wall)
}

/// The output check of every fleet run.
fn check(metrics: &FleetMetrics, offered: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let accounted = metrics.completed + metrics.rejected + metrics.failed();
    if accounted != offered {
        problems.push(format!(
            "conservation: completed {} + rejected {} + failed {} != offered {offered}",
            metrics.completed,
            metrics.rejected,
            metrics.failed()
        ));
    }
    if metrics.drain_incomplete {
        problems.push(format!("drain incomplete: {}", metrics.drain_status()));
    }
    problems
}

/// The simulated outputs a repetition must reproduce exactly.
type Outputs = (usize, usize, usize, f64, f64, [LatencySummary; 3]);

fn outputs(m: &FleetMetrics) -> Outputs {
    (
        m.completed,
        m.rejected,
        m.failed(),
        m.output_tokens_per_s,
        m.makespan_ms,
        [m.ttft, m.tpot, m.request_latency],
    )
}

/// Every `sim_*` end-to-end metric and event count of one recorded run.
fn simulated(
    workload: Workload,
    seed: u64,
    metrics: &FleetMetrics,
    sink: &RunSink,
    offered: usize,
) -> Vec<(&'static str, f64)> {
    let (ttft_slo, tpot_slo) = workload.slo_ms();
    let attained = sink
        .served
        .iter()
        .filter(|s| s.ttft <= ttft_slo && s.tpot.is_none_or(|t| t <= tpot_slo))
        .count();
    let price = median_step_price(workload, seed, sink);
    let mut sims = vec![
        ("sim_output_tok_per_s", metrics.output_tokens_per_s),
        ("sim_ttft_p50_ms", metrics.ttft.p50_ms),
        ("sim_ttft_p99_ms", metrics.ttft.p99_ms),
        ("sim_tpot_p50_ms", metrics.tpot.p50_ms),
        ("sim_tpot_p99_ms", metrics.tpot.p99_ms),
        ("sim_slo_attainment", attained as f64 / offered as f64),
        ("sim_kernel_ms", price.samoyeds_ms),
        (
            "sim_kernel_speedup_vs_dense",
            price.dense_ms / price.samoyeds_ms,
        ),
    ];
    sims.extend(
        EVENT_NAMES
            .iter()
            .zip(sink.events)
            .map(|(&n, c)| (n, c as f64)),
    );
    sims
}

/// The kernel-level view of the fleet: the routed expert kernels of one
/// MoE layer at the run's median step size, routed by a plan drawn from the
/// workload seed.
fn median_step_price(workload: Workload, seed: u64, sink: &RunSink) -> LayerPrice {
    let model = model();
    let tokens = (percentile(&sink.step_tokens, 0.5).round() as usize).max(1);
    let plan = TopKRouter::for_config(&model, seed).route(tokens);
    let expert_tokens: Vec<usize> = (0..plan.num_experts())
        .map(|e| plan.tokens_for(e))
        .collect();
    price_layer(
        &workload.device(),
        model.hidden_size,
        model.intermediate_size,
        tokens,
        &expert_tokens,
    )
}

pub fn run(args: &Args, workload: Workload) -> Run {
    let mut run = Run::default();
    let offered = workload.trace(args.seed).num_requests;

    // Warm-up repetition, with the recording sink: the source of the
    // per-request figures and the outputs every timed repetition repeats.
    let inputs = setup(workload, args.seed);
    let (baseline, sink, _) = run_recorded(workload, inputs.backends, &inputs.trace);
    let mut problems = check(&baseline, offered);
    if sink.served.len() != baseline.completed {
        problems.push(format!(
            "sink saw {} completions, metrics report {}",
            sink.served.len(),
            baseline.completed
        ));
    }
    run.op(problems);
    let expected = outputs(&baseline);
    drop(inputs.trace);

    let (min, max, budget) = SETUPS;
    let mut setups = Vec::new();
    let mut reps = Repetitions::default();
    let start = Instant::now();
    while another_rep(reps.walls(), start.elapsed().as_secs_f64(), args.seconds) {
        sample_times(&mut setups, min, max, budget, || setup(workload, args.seed));
        let inputs = setup(workload, args.seed);
        let fleet = controller(workload, inputs.backends, None);
        let (metrics, wall) = timed(|| fleet.run(&inputs.trace));
        reps.push(wall);
        let mut problems = check(&metrics, offered);
        if outputs(&metrics) != expected {
            problems.push("repetition's simulated outputs differ from the warm-up's".into());
        }
        run.op(problems);
    }

    let sims = simulated(workload, args.seed, &baseline, &sink, offered);
    for &(name, value) in &sims {
        run.set(name, value);
        run.digest.insert(name.to_string(), value);
    }
    let wall = run.set_host_time(&reps, sink.events[STEP] as f64);
    run.set("setup_s", median(&setups));
    run.detail("offered", offered);
    run.detail("completed", baseline.completed);
    run.detail("rejected", baseline.rejected);
    run.detail("failed", baseline.failed());
    run.detail("ttft_samples", baseline.completed);
    run.detail(
        "tpot_samples",
        sink.served.iter().filter(|s| s.tpot.is_some()).count(),
    );
    run.detail("setups", setups.len());

    if args.trace {
        traced(&mut run, args, workload, &sims, wall);
    }
    run
}

/// One recorded `step_cost` call.
#[derive(Debug, Clone, Copy)]
struct StepCall {
    step_index: u64,
    step_tokens: usize,
    kv_tokens: usize,
    host_ns: u64,
}

/// Times and delegates `step_cost`; everything else passes through.
struct TimedBackend {
    inner: Box<dyn ExecutionBackend>,
    log: Rc<RefCell<Vec<StepCall>>>,
}

impl ExecutionBackend for TimedBackend {
    fn engine_kind(&self) -> EngineKind {
        self.inner.engine_kind()
    }

    fn model(&self) -> &MoeModelConfig {
        self.inner.model()
    }

    fn supports(&self, config: &MoeModelConfig) -> bool {
        self.inner.supports(config)
    }

    fn memory(&self) -> &dyn MemoryBudget {
        self.inner.memory()
    }

    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
        let start = Instant::now();
        let cost = self.inner.step_cost(workload);
        let host_ns = start.elapsed().as_nanos() as u64;
        self.log.borrow_mut().push(StepCall {
            step_index: workload.step_index,
            step_tokens: workload.step_tokens(),
            kv_tokens: workload.running.iter().map(|r| r.context_tokens()).sum(),
            host_ns,
        });
        cost
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn traced(
    run: &mut Run,
    args: &Args,
    workload: Workload,
    untraced: &[(&str, f64)],
    untraced_wall: f64,
) {
    let offered = workload.trace(args.seed).num_requests;
    let inputs = setup(workload, args.seed);
    let log = Rc::new(RefCell::new(Vec::new()));
    let backends = inputs
        .backends
        .into_iter()
        .map(|inner| {
            Box::new(TimedBackend {
                inner,
                log: log.clone(),
            }) as Box<dyn ExecutionBackend>
        })
        .collect();
    let (metrics, sink, wall) = run_recorded(workload, backends, &inputs.trace);
    let mut problems = check(&metrics, offered);
    if simulated(workload, args.seed, &metrics, &sink, offered) != untraced {
        problems.push("traced repetition's simulated outputs differ from the untraced ones".into());
    }
    run.op(problems);

    let calls = log.take();
    let step_ns: u64 = calls.iter().map(|c| c.host_ns).sum();
    let step_s = step_ns as f64 / 1e9;
    let loop_s = wall - step_s;
    let waits: Vec<f64> = sink.served.iter().map(|s| s.queue_wait).collect();
    let step_cost_us = ratio(step_ns as f64 / 1e3, calls.len() as f64);
    let mut per_layer = vec![
        ("serve.step_cost.calls", calls.len() as f64),
        ("serve.step_cost.host_us", step_cost_us),
        ("serve.step_cost.share", step_s / wall),
        (
            "serve.step_cost.tokens_per_call",
            mean(
                &calls
                    .iter()
                    .map(|c| c.step_tokens as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("serve.loop.host_s", loop_s),
        (
            "serve.loop.host_ns_per_event",
            ratio(loop_s * 1e9, sink.events[TOTAL] as f64),
        ),
        ("serve.queue_wait_ms.p50", percentile(&waits, 0.5)),
        ("serve.queue_wait_ms.p99", percentile(&waits, 0.99)),
        (
            "serve.batch.tokens_per_step.p50",
            percentile(&sink.step_tokens, 0.5),
        ),
        ("trace.host_wall_s", wall),
        ("trace.overhead_ratio", wall / untraced_wall),
    ];
    per_layer.extend(
        EVENT_NAMES
            .iter()
            .zip(sink.events)
            .map(|(&n, c)| (n, c as f64)),
    );
    per_layer.extend(replay_moe(workload, &calls));
    if workload == Workload::ClusterEp {
        per_layer.push(("dist.step_cost.host_us", step_cost_us));
        per_layer.extend(replay_dist(&calls));
    }
    let price = median_step_price(workload, args.seed, &sink);
    let (profile_us, evaluate_us) = time_pricing(&workload.device(), &price.problems);
    per_layer.extend([
        ("kernels.profile.host_us", profile_us),
        ("gpu_sim.evaluate.host_us", evaluate_us),
        ("kernels.sim_flops", price.flops),
        ("kernels.sim_dram_bytes", price.dram_bytes),
    ]);
    for (name, value) in per_layer {
        run.set(name, value);
    }
}

/// Replay the recorded step shapes through the router and the MoE layer
/// cost, as `SingleGpuBackend::step_cost` prices them.
fn replay_moe(workload: Workload, calls: &[StepCall]) -> Vec<(&'static str, f64)> {
    let model = model();
    let seed = fleet_config(workload).scheduler.routing_seed;
    let router = TopKRouter::for_config(&model, seed);
    let engine = Engine::new(EngineKind::Samoyeds, workload.device());
    let (mut route_ns, mut cost_ns, mut tokens, mut evals) = (0u128, 0u128, 0usize, 0usize);
    let mut keys = BTreeSet::new();
    let mut imbalance = 0.0;
    for call in calls {
        let t = Instant::now();
        let plan = router.route_seeded(seed ^ call.step_index, call.step_tokens);
        route_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(engine.moe_layer_cost(&model, call.step_tokens, &plan));
        cost_ns += t.elapsed().as_nanos();
        tokens += call.step_tokens;
        imbalance += plan.imbalance();
        for e in 0..plan.num_experts() {
            let routed = plan.tokens_for(e);
            if routed > 0 {
                evals += 1;
                keys.insert((routed, call.step_tokens));
            }
        }
    }
    let n = calls.len() as f64;
    vec![
        ("moe.route.calls", n),
        ("moe.route.host_us", ratio(route_ns as f64 / 1e3, n)),
        (
            "moe.route.host_ns_per_token",
            ratio(route_ns as f64, tokens as f64),
        ),
        ("moe.route.sim_imbalance", ratio(imbalance, n)),
        ("moe.layer_cost.host_us", ratio(cost_ns as f64 / 1e3, n)),
        ("moe.layer_cost.expert_evals", evals as f64),
        (
            "moe.layer_cost.key_reuse",
            1.0 - ratio(keys.len() as f64, evals as f64),
        ),
    ]
}

/// Replay the recorded `cluster_ep` steps through placement and cluster
/// stepping, as `ClusterBackend::step_cost` does them (with its
/// round-robin fallback).
fn replay_dist(calls: &[StepCall]) -> Vec<(&'static str, f64)> {
    let scfg = fleet_config(Workload::ClusterEp).scheduler;
    let pod = cluster_pod(&scfg);
    let sim = pod.simulator();
    let gpus = sim.cluster().num_gpus.max(1);
    let router = TopKRouter::for_config(sim.model(), scfg.routing_seed);
    let (mut place_ns, mut step_ns, mut fallbacks) = (0u128, 0u128, 0usize);
    let (mut a2a_share, mut straggler) = (0.0, 0.0);
    for call in calls {
        let plan = router.route_seeded(scfg.routing_seed ^ call.step_index, call.step_tokens);
        let loads = plan.expert_loads();
        let kv_local = call.kv_tokens.div_ceil(gpus);
        let step_local = call.step_tokens.div_ceil(gpus);
        let t = Instant::now();
        let placement = sim
            .cluster()
            .strategy
            .place_on(&loads, sim.topology(), sim.memory(), kv_local, step_local)
            .or_else(|_| {
                fallbacks += 1;
                PlacementStrategy::RoundRobin.place(
                    &loads,
                    gpus,
                    sim.memory(),
                    kv_local,
                    step_local,
                )
            });
        place_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let report = placement.and_then(|p| sim.step_with_placement(&plan, p));
        step_ns += t.elapsed().as_nanos();
        if let Ok(report) = report {
            a2a_share += report.all_to_all_fraction();
            straggler += ratio(report.straggler_ms(), report.mean_compute_ms());
        }
    }
    let n = calls.len() as f64;
    vec![
        ("dist.place.host_us", ratio(place_ns as f64 / 1e3, n)),
        ("dist.place.fallback_ratio", ratio(fallbacks as f64, n)),
        ("dist.step.host_us", ratio(step_ns as f64 / 1e3, n)),
        ("dist.sim_all_to_all_share", ratio(a2a_share, n)),
        ("dist.sim_straggler_ratio", ratio(straggler, n)),
    ]
}
