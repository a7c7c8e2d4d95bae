//! Cluster-level comparison reports: GPU-count sweeps over the weight
//! representations, the cluster-serving sweep (continuous batching over the
//! cluster backend) and the fleet-autoscale sweep (the online control plane
//! over heterogeneous fleets on a bursty trace), rendered as markdown.
//!
//! Every sweep cell is deterministic and independent of its neighbours, so
//! each sweep enumerates its cell descriptors up front and prices them with
//! a rayon `par_iter` — cells fill all cores and the entry order stays the
//! canonical (outer × inner) enumeration order either way.

use crate::backend::ClusterBackend;
use crate::cluster::{min_gpus_to_fit, ClusterConfig, ClusterSimulator};
use crate::link::LinkSpec;
use crate::placement::{replan_after_crash, ClusterEngine, ClusterMemoryModel, PlacementStrategy};
use crate::topology::ClusterTopology;
use rayon::prelude::*;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_kernels::samoyeds_kernel::SamoyedsOptions;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::router::TopKRouter;
use samoyeds_serve::{
    chrome_trace_json, request_timelines, AttributionSummary, BurstyTraceConfig,
    DisaggregationConfig, DispatchPolicy, ExecutionBackend, FaultKind, FaultSchedule, FaultSpec,
    FleetConfig, FleetController, FleetMetrics, MemoryModel, MetricsRegistry, RecoveryPolicy,
    Request, RequestTimeline, Scheduler, SchedulerConfig, ServingMetrics, SharedSink,
    SingleGpuBackend, SloAutoscaler, TraceConfig, TraceEvent, TraceRecorder, TraceSink,
};

/// One (device, engine, GPU-count) cell of the sweep.
#[derive(Debug, Clone)]
pub struct ClusterSweepEntry {
    /// Device name.
    pub device: String,
    /// Weight representation.
    pub engine: ClusterEngine,
    /// GPUs in the cluster.
    pub num_gpus: usize,
    /// `None` when no placement fits the per-GPU memory budgets (the OOM
    /// cells); otherwise the step outcome.
    pub outcome: Option<ClusterSweepOutcome>,
}

/// The measured quantities of one feasible cell.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSweepOutcome {
    /// Full-model step time over the batch, milliseconds.
    pub model_time_ms: f64,
    /// One layer's all-to-all time, milliseconds.
    pub all_to_all_ms: f64,
    /// Collective share of the layer step.
    pub all_to_all_fraction: f64,
    /// Batch tokens per second through the MoE stack.
    pub tokens_per_s: f64,
    /// Lowest per-GPU utilization in the step.
    pub min_utilization: f64,
}

/// A GPU-count sweep of one model over devices × engines.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The model swept.
    pub model: String,
    /// Tokens in the step batch.
    pub tokens: usize,
    /// All sweep cells, in (device, engine, gpus) order.
    pub entries: Vec<ClusterSweepEntry>,
}

impl ClusterReport {
    /// Sweep `model` over 1/2/4/8 GPUs of the paper's consumer card (RTX
    /// 4070 Super, PCIe) and the datacenter A100 (NVLink), comparing dense
    /// vs VENOM vs Samoyeds weights. The routing plan is deterministic in
    /// `seed`.
    pub fn gpu_count_sweep(model: &MoeModelConfig, tokens: usize, seed: u64) -> Self {
        let plan = TopKRouter::for_config(model, seed).route(tokens);
        let mut cells = Vec::new();
        for device in [DeviceSpec::rtx4070_super(), DeviceSpec::a100_40g()] {
            for engine in ClusterEngine::all() {
                for num_gpus in [1usize, 2, 4, 8] {
                    cells.push((device.clone(), engine, num_gpus));
                }
            }
        }
        let entries: Vec<ClusterSweepEntry> = cells
            .par_iter()
            .map(|(device, engine, num_gpus)| {
                let sim = ClusterSimulator::new(
                    ClusterConfig::new(device.clone(), *num_gpus, *engine),
                    model.clone(),
                );
                let outcome = sim.step(&plan).ok().map(|report| ClusterSweepOutcome {
                    model_time_ms: report.model_time_ms,
                    all_to_all_ms: report.all_to_all_ms,
                    all_to_all_fraction: report.all_to_all_fraction(),
                    tokens_per_s: report.tokens_per_s(),
                    min_utilization: report.utilization().into_iter().fold(1.0f64, f64::min),
                });
                ClusterSweepEntry {
                    device: device.name.clone(),
                    engine: *engine,
                    num_gpus: *num_gpus,
                    outcome,
                }
            })
            .collect();
        Self {
            model: model.name.clone(),
            tokens,
            entries,
        }
    }

    /// Smallest swept GPU count at which (device, engine) fits, if any.
    pub fn min_feasible_gpus(&self, device: &str, engine: ClusterEngine) -> Option<usize> {
        self.entries
            .iter()
            .filter(|e| e.device == device && e.engine == engine && e.outcome.is_some())
            .map(|e| e.num_gpus)
            .min()
    }

    /// Render the sweep as a markdown table.
    pub fn render_markdown(&self) -> Vec<String> {
        let mut rows = vec![
            format!(
                "Cluster sweep: {} ({} tokens/batch, expert-parallel)",
                self.model, self.tokens
            ),
            "| Device | Engine | GPUs | Model step ms | All-to-all ms/layer | A2A share | tok/s | Min util |"
                .to_string(),
            "|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            match e.outcome {
                None => rows.push(format!(
                    "| {} | {} | {} | OOM | - | - | - | - |",
                    e.device,
                    e.engine.name(),
                    e.num_gpus
                )),
                Some(o) => rows.push(format!(
                    "| {} | {} | {} | {:.2} | {:.4} | {:.0}% | {:.0} | {:.0}% |",
                    e.device,
                    e.engine.name(),
                    e.num_gpus,
                    o.model_time_ms,
                    o.all_to_all_ms,
                    o.all_to_all_fraction * 100.0,
                    o.tokens_per_s,
                    o.min_utilization * 100.0,
                )),
            }
        }
        rows
    }
}

/// Fleet-sizing table: minimum GPUs per (device, engine) for `model`.
pub fn render_fleet_sizing(model: &MoeModelConfig, tokens: usize) -> Vec<String> {
    let mut rows = vec![
        format!("Fleet sizing: minimum GPUs holding {}", model.name),
        "| Device | Dense | VENOM | Samoyeds |".to_string(),
        "|---|---|---|---|".to_string(),
    ];
    for device in [DeviceSpec::rtx4070_super(), DeviceSpec::a100_40g()] {
        let min = |engine| match min_gpus_to_fit(&device, engine, model, tokens, 16) {
            Some(g) => g.to_string(),
            None => ">16".to_string(),
        };
        rows.push(format!(
            "| {} | {} | {} | {} |",
            device.name,
            min(ClusterEngine::Dense),
            min(ClusterEngine::Venom),
            min(ClusterEngine::Samoyeds),
        ));
    }
    rows
}

/// Placement-strategy comparison on a skewed routing plan: straggler step
/// time per strategy.
pub fn render_placement_comparison(
    model: &MoeModelConfig,
    device: &DeviceSpec,
    num_gpus: usize,
    tokens: usize,
    skew: f64,
    seed: u64,
) -> Vec<String> {
    let plan = TopKRouter::for_config(model, seed)
        .with_skew(skew)
        .route(tokens);
    let mut rows = vec![
        format!(
            "Placement comparison: {} on {} x {} (skew {:.1}, imbalance {:.2})",
            model.name,
            num_gpus,
            device.name,
            skew,
            plan.imbalance()
        ),
        "| Strategy | Straggler ms/layer | Mean ms/layer | Layer step ms | GPU imbalance |"
            .to_string(),
        "|---|---|---|---|---|".to_string(),
    ];
    for strategy in [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::CapacityGreedy,
        PlacementStrategy::ReplicateHot { hot: 2 },
    ] {
        let sim = ClusterSimulator::new(
            ClusterConfig::new(device.clone(), num_gpus, ClusterEngine::Samoyeds)
                .with_strategy(strategy),
            model.clone(),
        );
        match sim.step(&plan) {
            Ok(report) => rows.push(format!(
                "| {} | {:.2} | {:.2} | {:.2} | {:.2} |",
                strategy.name(),
                report.straggler_ms(),
                report.mean_compute_ms(),
                report.layer_time_ms,
                report.placement.imbalance(&plan.expert_loads()),
            )),
            Err(_) => rows.push(format!("| {} | OOM | - | - | - |", strategy.name())),
        }
    }
    rows
}

/// One (topology, engine) cell of the topology sweep.
#[derive(Debug, Clone)]
pub struct TopologySweepEntry {
    /// Topology label (e.g. `"2×4 NVLink 3 + InfiniBand NDR spine"`).
    pub topology: String,
    /// Number of islands.
    pub num_islands: usize,
    /// Weight representation.
    pub engine: ClusterEngine,
    /// `None` when no placement fits the per-GPU budgets; otherwise the
    /// step outcome.
    pub outcome: Option<TopologySweepOutcome>,
}

/// The measured quantities of one feasible topology-sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct TopologySweepOutcome {
    /// Full-model step time over the batch, milliseconds.
    pub model_time_ms: f64,
    /// Dispatch + combine all-to-all per layer, milliseconds.
    pub all_to_all_ms: f64,
    /// Intra-island share of the collectives, milliseconds.
    pub intra_island_ms: f64,
    /// Spine share of the collectives, milliseconds.
    pub spine_ms: f64,
    /// Spine share of the layer step time.
    pub spine_fraction: f64,
    /// Batch tokens per second through the MoE stack.
    pub tokens_per_s: f64,
}

/// The topology sweep: the same 8-GPU fleet and skewed routing plan priced
/// as one flat NVLink island, as 2×4 NVLink islands on an InfiniBand
/// spine, and as 4×2 PCIe hosts on the same spine — dense vs VENOM vs
/// Samoyeds. The headline is *where the spine becomes the straggler*: the
/// moment GPUs leave one island, roughly half the dispatch bytes cross a
/// fabric an order of magnitude slower, and the collective share of the
/// step jumps past the flat-NVLink baseline.
#[derive(Debug, Clone)]
pub struct TopologySweepReport {
    /// The model swept.
    pub model: String,
    /// Tokens in the step batch.
    pub tokens: usize,
    /// Routing skew of the shared plan.
    pub skew: f64,
    /// All sweep cells, in (topology, engine) order.
    pub entries: Vec<TopologySweepEntry>,
}

impl TopologySweepReport {
    /// The swept island layouts over an 8-GPU A100 fleet: flat NVLink,
    /// NVLink islands on an InfiniBand NDR spine, and PCIe hosts on the
    /// same spine.
    fn layouts() -> Vec<ClusterTopology> {
        vec![
            ClusterTopology::flat(8, LinkSpec::nvlink3()),
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .expect("2x4 is a valid layout"),
            ClusterTopology::symmetric(4, 2, LinkSpec::pcie_gen4(), LinkSpec::infiniband_ndr())
                .expect("4x2 is a valid layout"),
        ]
    }

    /// Price a skewed `model` routing plan over every (topology, engine)
    /// cell. The plan is deterministic in `seed` and shared by all cells.
    pub fn sweep(model: &MoeModelConfig, tokens: usize, skew: f64, seed: u64) -> Self {
        let plan = TopKRouter::for_config(model, seed)
            .with_skew(skew)
            .route(tokens);
        let device = DeviceSpec::a100_40g();
        let mut cells = Vec::new();
        for topology in Self::layouts() {
            for engine in ClusterEngine::all() {
                cells.push((topology.clone(), engine));
            }
        }
        let entries: Vec<TopologySweepEntry> = cells
            .par_iter()
            .map(|(topology, engine)| {
                let sim = ClusterSimulator::new(
                    ClusterConfig::new(device.clone(), topology.num_gpus(), *engine)
                        .with_topology(topology.clone()),
                    model.clone(),
                );
                let outcome = sim.step(&plan).ok().map(|r| TopologySweepOutcome {
                    model_time_ms: r.model_time_ms,
                    all_to_all_ms: r.all_to_all_ms,
                    intra_island_ms: r.intra_island_ms,
                    spine_ms: r.spine_ms,
                    spine_fraction: r.spine_fraction(),
                    tokens_per_s: r.tokens_per_s(),
                });
                TopologySweepEntry {
                    topology: topology.name(),
                    num_islands: topology.num_islands(),
                    engine: *engine,
                    outcome,
                }
            })
            .collect();
        Self {
            model: model.name.clone(),
            tokens,
            skew,
            entries,
        }
    }

    /// The acceptance cell: the 2×4 NVLink + InfiniBand layout's collective
    /// time vs the flat NVLink baseline, for the Samoyeds engine —
    /// `(hierarchical_a2a_ms, flat_a2a_ms, spine_ms)`. The spine-bound
    /// hierarchical collective exceeds the flat baseline on skewed routing.
    pub fn spine_bound_contrast(&self) -> Option<(f64, f64, f64)> {
        let cell = |islands: usize| {
            self.entries
                .iter()
                .find(|e| e.num_islands == islands && e.engine == ClusterEngine::Samoyeds)
                .and_then(|e| e.outcome)
        };
        let hier = cell(2)?;
        let flat = cell(1)?;
        Some((hier.all_to_all_ms, flat.all_to_all_ms, hier.spine_ms))
    }

    /// Render the sweep as a markdown table.
    pub fn render_markdown(&self) -> Vec<String> {
        let mut rows = vec![
            format!(
                "Topology sweep: {} ({} tokens/batch, routing skew {:.1}, 8 GPUs)",
                self.model, self.tokens, self.skew
            ),
            "| Topology | Engine | Model step ms | A2A ms/layer | intra ms | spine ms | Spine share | tok/s |"
                .to_string(),
            "|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            match e.outcome {
                None => rows.push(format!(
                    "| {} | {} | OOM | - | - | - | - | - |",
                    e.topology,
                    e.engine.name()
                )),
                Some(o) => rows.push(format!(
                    "| {} | {} | {:.2} | {:.4} | {:.4} | {:.4} | {:.0}% | {:.0} |",
                    e.topology,
                    e.engine.name(),
                    o.model_time_ms,
                    o.all_to_all_ms,
                    o.intra_island_ms,
                    o.spine_ms,
                    o.spine_fraction * 100.0,
                    o.tokens_per_s,
                )),
            }
        }
        rows
    }
}

/// Placement-strategy comparison on a hierarchical topology: spine traffic
/// and step time per strategy on a skewed plan — the table that shows
/// island-aware replication keeping hot-expert traffic off the spine.
pub fn render_topology_placement(
    model: &MoeModelConfig,
    topology: &ClusterTopology,
    tokens: usize,
    skew: f64,
    seed: u64,
) -> Vec<String> {
    let plan = TopKRouter::for_config(model, seed)
        .with_skew(skew)
        .route(tokens);
    let device = DeviceSpec::a100_40g();
    let mut rows = vec![
        format!(
            "Topology-aware placement: {} on {} (skew {:.1})",
            model.name,
            topology.name(),
            skew
        ),
        "| Strategy | Spine ms/layer | Cross-island MB/layer | A2A ms/layer | Layer step ms |"
            .to_string(),
        "|---|---|---|---|---|".to_string(),
    ];
    for strategy in [
        PlacementStrategy::CapacityGreedy,
        PlacementStrategy::ReplicateHot { hot: 2 },
        PlacementStrategy::ReplicateHotPerIsland { hot: 2 },
    ] {
        let sim = ClusterSimulator::new(
            ClusterConfig::new(device.clone(), topology.num_gpus(), ClusterEngine::Samoyeds)
                .with_topology(topology.clone())
                .with_strategy(strategy),
            model.clone(),
        );
        match sim.step(&plan) {
            Ok(r) => rows.push(format!(
                "| {} | {:.4} | {:.1} | {:.4} | {:.2} |",
                strategy.name(),
                r.spine_ms,
                r.cross_island_bytes / 1e6,
                r.all_to_all_ms,
                r.layer_time_ms,
            )),
            Err(_) => rows.push(format!("| {} | OOM | - | - | - |", strategy.name())),
        }
    }
    rows
}

/// One (device, link, engine, GPU-count) cell of the cluster-serving sweep.
#[derive(Debug, Clone)]
pub struct ClusterServingEntry {
    /// Device name.
    pub device: String,
    /// Interconnect name.
    pub link: String,
    /// Weight representation.
    pub engine: ClusterEngine,
    /// GPUs in the pod.
    pub num_gpus: usize,
    /// Serving metrics of the run, including completed/rejected counts
    /// (`servable == false` marks a pod whose straggler GPU cannot admit
    /// the trace — the OOM cells).
    pub metrics: ServingMetrics,
    /// Share of executed step time spent in the all-to-all collectives.
    pub collective_fraction: f64,
}

/// The cluster-serving sweep: one shared request trace pushed through the
/// continuous-batching scheduler over [`ClusterBackend`]s of every
/// (device/link, engine, GPU-count) combination — the serving-level version
/// of the static GPU-count sweep, where infeasible cells show up as
/// *rejected traces* instead of OOM table entries.
#[derive(Debug, Clone)]
pub struct ClusterServingReport {
    /// The model served.
    pub model: String,
    /// Requests in the shared trace.
    pub num_requests: usize,
    /// All sweep cells, in (device, engine, gpus) order.
    pub entries: Vec<ClusterServingEntry>,
}

impl ClusterServingReport {
    /// Serve `trace` with `model` on 1/2/4/8-GPU pods of the consumer RTX
    /// 4070 Super (PCIe) and the datacenter A100 (NVLink and, for the
    /// fabric contrast, PCIe), under dense vs VENOM vs Samoyeds weights.
    pub fn sweep(model: &MoeModelConfig, trace: &TraceConfig, scfg: &SchedulerConfig) -> Self {
        let requests = trace.generate();
        let fabrics: [(DeviceSpec, LinkSpec); 3] = [
            (DeviceSpec::rtx4070_super(), LinkSpec::pcie_gen4()),
            (DeviceSpec::a100_40g(), LinkSpec::nvlink3()),
            (DeviceSpec::a100_40g(), LinkSpec::pcie_gen4()),
        ];
        let mut cells = Vec::new();
        for (device, link) in &fabrics {
            for engine in ClusterEngine::all() {
                for num_gpus in [1usize, 2, 4, 8] {
                    cells.push((device.clone(), link.clone(), engine, num_gpus));
                }
            }
        }
        let entries: Vec<ClusterServingEntry> = cells
            .par_iter()
            .map(|(device, link, engine, num_gpus)| {
                let cluster =
                    ClusterConfig::new(device.clone(), *num_gpus, *engine).with_link(link.clone());
                let backend = ClusterBackend::new(cluster, model.clone(), scfg);
                let result = Scheduler::from_backend(backend, *scfg).run(&requests);
                let step_ms: f64 = result.steps.iter().map(|s| s.time_ms).sum();
                ClusterServingEntry {
                    device: device.name.clone(),
                    link: link.name.clone(),
                    engine: *engine,
                    num_gpus: *num_gpus,
                    collective_fraction: if step_ms > 0.0 {
                        result.collective_ms() / step_ms
                    } else {
                        0.0
                    },
                    metrics: ServingMetrics::from_result(&result),
                }
            })
            .collect();
        Self {
            model: model.name.clone(),
            num_requests: requests.len(),
            entries,
        }
    }

    /// A cell where the Samoyeds weights admit the trace while dense
    /// weights reject it for memory, if any: `(device, link, num_gpus)`.
    pub fn admission_contrast(&self) -> Option<(String, String, usize)> {
        self.entries
            .iter()
            .filter(|e| e.engine == ClusterEngine::Samoyeds && e.metrics.servable)
            .find(|s| {
                self.entries.iter().any(|d| {
                    d.engine == ClusterEngine::Dense
                        && d.device == s.device
                        && d.link == s.link
                        && d.num_gpus == s.num_gpus
                        && !d.metrics.servable
                        && d.metrics.rejected > 0
                })
            })
            .map(|s| (s.device.clone(), s.link.clone(), s.num_gpus))
    }

    /// Render the sweep as a markdown table.
    pub fn render_markdown(&self) -> Vec<String> {
        let mut rows = vec![
            format!(
                "Cluster serving: {} ({} requests, continuous batching over the cluster backend)",
                self.model, self.num_requests
            ),
            "| Device | Link | Engine | GPUs | Served | Rejected | tok/s (output) | p95 ms | TTFT p95 ms | A2A share | Peak GiB/GPU |"
                .to_string(),
            "|---|---|---|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            if !e.metrics.servable {
                rows.push(format!(
                    "| {} | {} | {} | {} | OOM | {} | - | - | - | - | - |",
                    e.device,
                    e.link,
                    e.engine.name(),
                    e.num_gpus,
                    e.metrics.rejected,
                ));
                continue;
            }
            rows.push(format!(
                "| {} | {} | {} | {} | {} | {} | {:.0} | {:.0} | {:.0} | {:.0}% | {:.1} |",
                e.device,
                e.link,
                e.engine.name(),
                e.num_gpus,
                e.metrics.completed,
                e.metrics.rejected,
                e.metrics.output_tokens_per_s,
                e.metrics.request_latency.p95_ms,
                e.metrics.ttft.p95_ms,
                e.collective_fraction * 100.0,
                e.metrics.peak_memory_gib,
            ));
        }
        rows
    }
}

/// The fleet compositions the autoscale sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// Homogeneous A100 singles running the Samoyeds engine.
    SamoyedsSingles,
    /// Homogeneous A100 singles running dense (Transformers) weights.
    DenseSingles,
    /// Heterogeneous: a 2x A100 expert-parallel Samoyeds pod next to an RTX
    /// 4070 Super single; scale-out adds more consumer singles.
    Mixed,
}

impl FleetKind {
    /// All compositions, in report order.
    pub fn all() -> [FleetKind; 3] {
        [
            FleetKind::SamoyedsSingles,
            FleetKind::DenseSingles,
            FleetKind::Mixed,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            FleetKind::SamoyedsSingles => "A100 Samoyeds singles",
            FleetKind::DenseSingles => "A100 dense singles",
            FleetKind::Mixed => "A100 pod + 4070S (Samoyeds)",
        }
    }

    /// Build the control plane for this composition: the initial fleet plus
    /// the factory scale-out draws from.
    pub fn controller(
        &self,
        model: &MoeModelConfig,
        config: FleetConfig,
        slo: &SloAutoscaler,
    ) -> FleetController {
        let scfg = config.scheduler;
        let single = move |device: DeviceSpec, engine: EngineKind, model: &MoeModelConfig| {
            Box::new(SingleGpuBackend::new(device, model, engine, &scfg))
                as Box<dyn ExecutionBackend>
        };
        let controller = FleetController::new(config).with_autoscaler(slo.clone());
        match self {
            FleetKind::SamoyedsSingles => {
                let factory_model = model.clone();
                controller
                    .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, model))
                    .with_factory(move || {
                        single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &factory_model)
                    })
            }
            FleetKind::DenseSingles => {
                let factory_model = model.clone();
                controller
                    .with_replica(single(
                        DeviceSpec::a100_40g(),
                        EngineKind::Transformers,
                        model,
                    ))
                    .with_factory(move || {
                        single(
                            DeviceSpec::a100_40g(),
                            EngineKind::Transformers,
                            &factory_model,
                        )
                    })
            }
            FleetKind::Mixed => {
                let pod = ClusterBackend::new(
                    ClusterConfig::new(DeviceSpec::a100_40g(), 2, ClusterEngine::Samoyeds),
                    model.clone(),
                    &scfg,
                );
                let factory_model = model.clone();
                controller
                    .with_replica(Box::new(pod))
                    .with_replica(single(
                        DeviceSpec::rtx4070_super(),
                        EngineKind::Samoyeds,
                        model,
                    ))
                    .with_factory(move || {
                        single(
                            DeviceSpec::rtx4070_super(),
                            EngineKind::Samoyeds,
                            &factory_model,
                        )
                    })
            }
        }
    }
}

/// One (fleet, policy, SLO) cell of the autoscale sweep.
#[derive(Debug, Clone)]
pub struct FleetAutoscaleEntry {
    /// Fleet composition.
    pub fleet: FleetKind,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// The p95-TTFT SLO target, milliseconds.
    pub slo_ms: f64,
    /// The run's fleet metrics, including the scaling timeline.
    pub metrics: FleetMetrics,
}

/// The fleet-autoscale sweep: one shared bursty (calm → spike → calm) trace
/// served by the online control plane under every combination of fleet
/// composition × dispatch policy × SLO target. The headline is fleet
/// sizing *in time*: under the same SLO, Samoyeds fleets absorb the spike
/// with fewer scale-out events than dense, because each compressed replica
/// has more serving capacity.
#[derive(Debug, Clone)]
pub struct FleetAutoscaleReport {
    /// The model served.
    pub model: String,
    /// Requests in the shared trace.
    pub num_requests: usize,
    /// All sweep cells, in (fleet, policy, slo) order.
    pub entries: Vec<FleetAutoscaleEntry>,
}

impl FleetAutoscaleReport {
    /// The canonical calm → spike → calm demonstration trace: the numbers
    /// behind the pinned scale-out contrast (Samoyeds fleets absorbing the
    /// spike with fewer scale-outs than dense) — shared by the bench
    /// experiment, the `fleet_autoscale` example and the report tests so
    /// they can never drift apart.
    pub fn demo_trace() -> BurstyTraceConfig {
        BurstyTraceConfig {
            prompt_len_range: (64, 256),
            output_len_range: (16, 48),
            seed: 17,
            ..BurstyTraceConfig::spike(2.0, 300.0, 6, 80)
        }
    }

    /// Run the sweep over `trace` with the fleet knobs used everywhere in
    /// the autoscale story (200 ms ticks, 1 s window, 1.5 s warm-up, at
    /// most 6 replicas; the mixed fleet keeps a floor of two replicas).
    pub fn sweep(
        model: &MoeModelConfig,
        trace: &BurstyTraceConfig,
        scfg: &SchedulerConfig,
    ) -> Self {
        let requests = trace.generate();
        let slos = [400.0f64, 1_500.0];
        let policies = [
            DispatchPolicy::LeastOutstandingTokens,
            DispatchPolicy::RoundRobin,
        ];
        let mut cells = Vec::new();
        for fleet in FleetKind::all() {
            for policy in policies {
                for slo_ms in slos {
                    cells.push((fleet, policy, slo_ms));
                }
            }
        }
        let entries: Vec<FleetAutoscaleEntry> = cells
            .par_iter()
            .map(|&(fleet, policy, slo_ms)| {
                let config = FleetConfig {
                    scheduler: *scfg,
                    policy,
                    tick_ms: 200.0,
                    window_ms: 1_000.0,
                    warmup_ms: 1_500.0,
                    min_replicas: if fleet == FleetKind::Mixed { 2 } else { 1 },
                    max_replicas: 6,
                    ..FleetConfig::default()
                };
                let controller = fleet.controller(model, config, &SloAutoscaler::new(slo_ms));
                FleetAutoscaleEntry {
                    fleet,
                    policy,
                    slo_ms,
                    metrics: controller.run(&requests),
                }
            })
            .collect();
        Self {
            model: model.name.clone(),
            num_requests: requests.len(),
            entries,
        }
    }

    /// The headline contrast: scale-out counts of the Samoyeds vs dense
    /// homogeneous fleets at the tightest SLO under the decaying
    /// least-outstanding policy, if both cells exist.
    pub fn scale_out_contrast(&self) -> Option<(usize, usize)> {
        let cell = |kind: FleetKind| {
            self.entries
                .iter()
                .filter(|e| e.fleet == kind && e.policy == DispatchPolicy::LeastOutstandingTokens)
                .min_by(|a, b| a.slo_ms.partial_cmp(&b.slo_ms).expect("finite SLOs"))
                .map(|e| e.metrics.scale_outs())
        };
        Some((
            cell(FleetKind::SamoyedsSingles)?,
            cell(FleetKind::DenseSingles)?,
        ))
    }

    /// Render the sweep as a markdown table.
    pub fn render_markdown(&self) -> Vec<String> {
        let mut rows = vec![
            format!(
                "Fleet autoscale: {} ({} requests, bursty trace, online control plane)",
                self.model, self.num_requests
            ),
            "| Fleet | Policy | SLO ms | Served | Rejected | tok/s | TTFT p95 ms | Peak replicas | Scale-outs | Scale-ins |"
                .to_string(),
            "|---|---|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            rows.push(format!(
                "| {} | {} | {:.0} | {} | {} | {:.0} | {:.0} | {} | {} | {} |",
                e.fleet.name(),
                e.policy.name(),
                e.slo_ms,
                e.metrics.completed,
                e.metrics.rejected,
                e.metrics.output_tokens_per_s,
                e.metrics.ttft.p95_ms,
                e.metrics.replicas,
                e.metrics.scale_outs(),
                e.metrics.scale_ins(),
            ));
        }
        rows
    }
}

/// The observability demo: the heterogeneous autoscaled fleet from the
/// autoscale story, re-run with a recording telemetry sink — per-request
/// latency attribution ([`RequestTimeline`]), the metrics-registry counters
/// and tick series, and a Perfetto-loadable Chrome trace, behind one report.
#[derive(Debug, Clone)]
pub struct FleetTraceReport {
    /// The model served.
    pub model: String,
    /// Requests in the demo trace.
    pub num_requests: usize,
    /// The run's fleet metrics (bit-identical to the sink-free run).
    pub metrics: FleetMetrics,
    /// The full recorded event stream, in simulation order.
    pub events: Vec<TraceEvent>,
    /// Counters, histograms and per-replica tick series replayed from the
    /// event stream.
    pub registry: MetricsRegistry,
    /// Per-request queue/prefill/decode attribution, in completion order.
    pub timelines: Vec<RequestTimeline>,
    /// Pooled attribution over all completed requests.
    pub attribution: AttributionSummary,
}

impl FleetTraceReport {
    /// Trace the canonical autoscale demo: the mixed fleet (A100 pod +
    /// 4070S single) serving [`FleetAutoscaleReport::demo_trace`] under the
    /// tight 400 ms SLO, with an unbounded recorder installed. The registry
    /// is replayed from the recorded stream afterwards, so the run itself
    /// carries exactly one sink.
    pub fn demo(model: &MoeModelConfig, scfg: &SchedulerConfig) -> Self {
        let requests = FleetAutoscaleReport::demo_trace().generate();
        let config = FleetConfig {
            scheduler: *scfg,
            policy: DispatchPolicy::LeastOutstandingTokens,
            tick_ms: 200.0,
            window_ms: 1_000.0,
            warmup_ms: 1_500.0,
            min_replicas: 2,
            max_replicas: 6,
            ..FleetConfig::default()
        };
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let metrics = FleetKind::Mixed
            .controller(model, config, &SloAutoscaler::new(400.0))
            .with_sink(sink)
            .run(&requests);
        let events = recorder.borrow().events();
        let mut registry = MetricsRegistry::new();
        for event in &events {
            registry.record(*event);
        }
        let timelines = request_timelines(&events);
        let attribution = AttributionSummary::from_timelines(&timelines);
        Self {
            model: model.name.clone(),
            num_requests: requests.len(),
            metrics,
            events,
            registry,
            timelines,
            attribution,
        }
    }

    /// The Chrome trace-event JSON of the run: one track per replica
    /// (named by its backend description), a span per engine step, instants
    /// for request and replica lifecycle events. Load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        let names: Vec<String> = self
            .metrics
            .per_replica
            .iter()
            .map(|r| r.description.clone())
            .collect();
        chrome_trace_json(&self.events, &names)
    }

    /// Render the attribution and counter summary as markdown rows.
    pub fn render_markdown(&self) -> Vec<String> {
        let mut rows = vec![format!(
            "Fleet trace: {} ({} requests, mixed fleet, {} events recorded)",
            self.model,
            self.num_requests,
            self.events.len()
        )];
        rows.push(format!(
            "served {} · rejected {} · {} steps · {} scale-outs / {} scale-ins · \
             {} control-tick snapshots",
            self.metrics.completed,
            self.metrics.rejected,
            self.registry.steps,
            self.registry.scale_outs,
            self.registry.scale_ins,
            self.registry.snapshots.len(),
        ));
        rows.push(String::new());
        rows.extend(self.attribution.render_markdown());
        rows.push(String::new());
        rows.push(format!(
            "p95 TTFT {:.0} ms exact vs {:.0} ms from the log-linear histogram \
             ({} samples)",
            self.metrics.ttft.p95_ms,
            self.registry.ttft_ms.value_at_quantile(0.95),
            self.registry.ttft_ms.count(),
        ));
        rows
    }
}

/// One recovery-policy cell of the fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepEntry {
    /// Human-readable recovery-policy name.
    pub policy: &'static str,
    /// The weight-transfer time the policy charges before re-admission.
    pub transfer_ms: f64,
    /// The run's fleet metrics, including the fault timeline.
    pub metrics: FleetMetrics,
    /// p95-TTFT SLO attainment over requests arriving before the first
    /// fault (`None` when no requests arrive in the phase).
    pub slo_before: Option<f64>,
    /// Attainment over requests arriving between the first fault and the
    /// last recovery.
    pub slo_during: Option<f64>,
    /// Attainment over requests arriving after the last recovery.
    pub slo_after: Option<f64>,
}

/// The fault sweep: one shared bursty trace served by the same fleet under
/// an identical scripted fault schedule (a replica crash mid-spike plus a
/// later link degradation) with three recovery policies — fail-fast,
/// re-admission, and re-admission plus a cold replacement. The re-admission
/// weight-transfer time is not a free parameter: it is priced by
/// [`replan_after_crash`] over a two-island cluster topology, so the
/// recovery bill the control plane pays is the one the placement layer
/// computes (intra-island copies ride NVLink, sole-copy experts stream
/// cross-island over the spine).
#[derive(Debug, Clone)]
pub struct FaultSweepReport {
    /// The model served.
    pub model: String,
    /// Requests in the shared trace.
    pub num_requests: usize,
    /// The p95-TTFT SLO the attainment phases are measured against.
    pub slo_ms: f64,
    /// When the replica crash fires.
    pub fault_at_ms: f64,
    /// The dist-priced weight-transfer time charged on re-admission.
    pub transfer_ms: f64,
    /// Weight bytes the recovery plan moves.
    pub transfer_bytes: f64,
    /// One entry per recovery policy, in fail-fast / re-admit /
    /// re-admit + replace order.
    pub entries: Vec<FaultSweepEntry>,
    /// The re-admission run's recorded event stream (fault and recovery
    /// instants included), for the Chrome trace export.
    pub events: Vec<TraceEvent>,
    /// Replica track names for the Chrome trace export.
    pub replica_names: Vec<String>,
}

impl FaultSweepReport {
    /// The scripted schedule every cell replays: the first replica crashes
    /// at `fault_at_ms` (mid-spike), and a second replica's link degrades
    /// for 750 ms two seconds later.
    fn schedule(fault_at_ms: f64) -> FaultSchedule {
        FaultSchedule::Scripted(vec![
            FaultSpec {
                at_ms: fault_at_ms,
                kind: FaultKind::ReplicaCrash { replica: 0 },
            },
            FaultSpec {
                at_ms: fault_at_ms + 2_000.0,
                kind: FaultKind::LinkDegrade {
                    replica: 1,
                    duration_ms: 750.0,
                },
            },
        ])
    }

    /// SLO attainment over requests arriving in `[lo, hi)`: completions
    /// within the TTFT target over requests offered, so a request the crash
    /// destroys (or delays past the target) counts against the phase it
    /// arrived in.
    fn attainment(
        offered: &[Request],
        timelines: &[RequestTimeline],
        slo_ms: f64,
        lo: f64,
        hi: f64,
    ) -> Option<f64> {
        // Phase membership is the *original* arrival time: a re-admitted
        // request's timeline restarts its clock at the recovery instant, but
        // it still counts against the phase it first arrived in (matched by
        // id), with its TTFT charged from that original arrival — so the
        // crash's delay shows up in the phase it hit, and attainment can
        // never exceed 100%.
        let offered: Vec<(u64, f64)> = offered
            .iter()
            .filter(|r| r.arrival_ms >= lo && r.arrival_ms < hi)
            .map(|r| (r.id, r.arrival_ms))
            .collect();
        if offered.is_empty() {
            return None;
        }
        let attained = offered
            .iter()
            .filter(|(id, arrival_ms)| {
                timelines
                    .iter()
                    .any(|t| t.id == *id && t.arrival_ms + t.ttft_ms() - arrival_ms <= slo_ms)
            })
            .count();
        Some(attained as f64 / offered.len() as f64)
    }

    /// Run the sweep: three A100 Samoyeds singles (plus a factory for the
    /// replacement policy) serving [`FleetAutoscaleReport::demo_trace`],
    /// crash at 3.4 s (the spike backlog is in flight), SLO 400 ms.
    pub fn sweep(model: &MoeModelConfig, scfg: &SchedulerConfig) -> Self {
        let requests = FleetAutoscaleReport::demo_trace().generate();
        let fault_at_ms = 3_400.0;
        let slo_ms = 400.0;

        // Price the recovery transfer with the placement layer: a 2×4
        // cluster, capacity-greedy placement, GPU 0 dies, checkpoint staged
        // behind GPU 4 (the other island's leader).
        let device = DeviceSpec::a100_40g();
        let memory = ClusterMemoryModel::new(&device, ClusterEngine::Samoyeds, model);
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .expect("2×4 demo topology is valid");
        let loads = vec![1_024usize; model.num_experts];
        let plan = PlacementStrategy::CapacityGreedy
            .place_on(&loads, &topology, &memory, 1_024, 1_024)
            .and_then(|p| {
                replan_after_crash(&p, 0, &loads, &topology, &memory, 1_024, 1_024, Some(4))
            })
            .expect("demo recovery plan is feasible");
        let transfer_ms = plan.transfer_ms();
        let transfer_bytes = plan.transfer_bytes;

        // Static gate: reject an ill-formed schedule once, before the first
        // of the three policy runs — not mid-sweep. Pure analysis; a passing
        // schedule leaves every run bit-for-bit unchanged.
        crate::validate::validate_fault_schedule(&Self::schedule(fault_at_ms), &topology, 3)
            .assert_valid();

        let policies: [(&'static str, RecoveryPolicy); 3] = [
            ("fail-fast", RecoveryPolicy::fail_fast()),
            ("re-admit", RecoveryPolicy::readmit_after(transfer_ms)),
            (
                "re-admit + replace",
                RecoveryPolicy::readmit_and_replace(transfer_ms),
            ),
        ];
        let mut entries = Vec::with_capacity(policies.len());
        let mut events = Vec::new();
        let mut replica_names = Vec::new();
        for (name, policy) in policies {
            let config = FleetConfig {
                scheduler: *scfg,
                policy: DispatchPolicy::LeastOutstandingTokens,
                tick_ms: 200.0,
                window_ms: 1_000.0,
                warmup_ms: 1_500.0,
                min_replicas: 1,
                max_replicas: 4,
                ..FleetConfig::default()
            };
            let factory_model = model.clone();
            let factory_device = device.clone();
            let factory_scfg = *scfg;
            let single = move || {
                Box::new(SingleGpuBackend::new(
                    factory_device.clone(),
                    &factory_model,
                    EngineKind::Samoyeds,
                    &factory_scfg,
                )) as Box<dyn ExecutionBackend>
            };
            let (sink, recorder) = SharedSink::new(TraceRecorder::new());
            let metrics = FleetController::new(config)
                .with_replica(single())
                .with_replica(single())
                .with_replica(single())
                .with_factory(single)
                .with_faults(Self::schedule(fault_at_ms), policy)
                .with_sink(sink)
                .run(&requests);
            let run_events = recorder.borrow().events();
            let timelines = request_timelines(&run_events);
            // Phase boundary: the last recovery the run saw (the link
            // restoration at minimum, the crash recovery when enabled).
            let recovered = metrics
                .faults
                .iter()
                .filter_map(|f| f.recovered_at_ms)
                .fold(fault_at_ms, f64::max);
            let slo_before = Self::attainment(&requests, &timelines, slo_ms, 0.0, fault_at_ms);
            let slo_during =
                Self::attainment(&requests, &timelines, slo_ms, fault_at_ms, recovered);
            let slo_after =
                Self::attainment(&requests, &timelines, slo_ms, recovered, f64::INFINITY);
            if name == "re-admit" {
                events = run_events;
                replica_names = metrics
                    .per_replica
                    .iter()
                    .map(|r| r.description.clone())
                    .collect();
            }
            entries.push(FaultSweepEntry {
                policy: name,
                transfer_ms: policy.transfer_ms,
                metrics,
                slo_before,
                slo_during,
                slo_after,
            });
        }
        Self {
            model: model.name.clone(),
            num_requests: requests.len(),
            slo_ms,
            fault_at_ms,
            transfer_ms,
            transfer_bytes,
            entries,
            events,
            replica_names,
        }
    }

    /// The acceptance-criterion cell: the re-admission run's crash-recovery
    /// time and failed-request count (finite and zero respectively when
    /// recovery works).
    pub fn readmit_recovery(&self) -> Option<(f64, usize)> {
        let entry = self.entries.iter().find(|e| e.policy == "re-admit")?;
        let crash = entry
            .metrics
            .faults
            .iter()
            .find(|f| matches!(f.kind, FaultKind::ReplicaCrash { .. }))?;
        Some((crash.recovery_ms()?, entry.metrics.failed()))
    }

    /// The Chrome trace-event JSON of the re-admission run (fault and
    /// recovery instants included).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.events, &self.replica_names)
    }

    /// Render the sweep as markdown: the policy table plus the re-admission
    /// run's fault timeline and drain status.
    pub fn render_markdown(&self) -> Vec<String> {
        let pct = |v: Option<f64>| match v {
            Some(f) => format!("{:.0}%", f * 100.0),
            None => "-".to_string(),
        };
        let mut rows = vec![
            format!(
                "Fault sweep: {} ({} requests, crash at {:.1} s, transfer {:.1} ms \
                 / {:.0} MiB priced over the 2×4 topology)",
                self.model,
                self.num_requests,
                self.fault_at_ms / 1e3,
                self.transfer_ms,
                self.transfer_bytes / (1u64 << 20) as f64,
            ),
            format!(
                "| policy | served | failed | re-admitted | recovery (ms) | \
                 SLO {:.0} ms before | during | after |",
                self.slo_ms
            ),
            "|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            let crash = e
                .metrics
                .faults
                .iter()
                .find(|f| matches!(f.kind, FaultKind::ReplicaCrash { .. }));
            let recovery = match crash.and_then(|f| f.recovery_ms()) {
                Some(ms) => format!("{ms:.1}"),
                None => "-".to_string(),
            };
            rows.push(format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                e.policy,
                e.metrics.completed,
                e.metrics.failed(),
                crash.map(|f| f.readmitted).unwrap_or(0),
                recovery,
                pct(e.slo_before),
                pct(e.slo_during),
                pct(e.slo_after),
            ));
        }
        if let Some(readmit) = self.entries.iter().find(|e| e.policy == "re-admit") {
            rows.push(String::new());
            rows.extend(readmit.metrics.render_fault_timeline());
            rows.push(format!("drain: {}", readmit.metrics.drain_status()));
        }
        rows
    }
}

/// One (engine, prefill:decode split) cell of the disaggregation sweep.
#[derive(Debug, Clone)]
pub struct DisaggSweepEntry {
    /// Weight representation serving the cell.
    pub engine: ClusterEngine,
    /// Prefill pods: A100 singles on the leading global slots.
    pub prefill_pods: usize,
    /// Decode pods: RTX 4070 Super singles on the remaining slots.
    pub decode_pods: usize,
    /// `None` when static validation rejects the cell before anything runs
    /// (`disagg::decode-cannot-hold-model` — the 12 GiB decode pods cannot
    /// hold the dense weights); otherwise the run's measurements.
    pub outcome: Option<DisaggSweepOutcome>,
}

/// The measured quantities of one feasible disaggregation cell.
#[derive(Debug, Clone)]
pub struct DisaggSweepOutcome {
    /// The run's fleet metrics.
    pub metrics: FleetMetrics,
    /// Per-request latency attribution (queue / prefill / transfer / decode).
    pub attribution: AttributionSummary,
    /// KV handoffs that stayed inside an island (NVLink-priced).
    pub intra_transfers: usize,
    /// Bytes those intra-island handoffs moved.
    pub intra_bytes: f64,
    /// KV handoffs that crossed the spine (InfiniBand-priced).
    pub spine_transfers: usize,
    /// Bytes those spine handoffs moved.
    pub spine_bytes: f64,
}

/// The prefill/decode disaggregation sweep: one shared bursty trace served
/// by a four-pod fleet (A100 prefill pods, RTX 4070 Super decode pods —
/// slot *i* on GPU *i* of a 2×2 two-island topology), sweeping the
/// prefill:decode split 1:3 / 2:2 / 3:1 under dense, VENOM and Samoyeds
/// weights. Every KV handoff is priced by the topology the pods actually
/// sit on: pairs sharing an island ride NVLink 3, pairs split across
/// islands pay the InfiniBand NDR spine — priced by the same
/// [`LinkSpec::point_to_point_ms`] the placement layer charges for weight
/// transfers.
///
/// The dense cells are where the paper's memory story bites: Qwen2-MoE's
/// bf16 weights do not fit a 12 GiB decode pod, so every dense split
/// validates as infeasible and dense serving cannot disaggregate on this
/// hardware at all, while the compressed representations (VENOM, Samoyeds)
/// both fit and free KV headroom on top — the ratio-shift contrast
/// [`DisaggSweepReport::ratio_contrast`] reports.
#[derive(Debug, Clone)]
pub struct DisaggSweepReport {
    /// The model served.
    pub model: String,
    /// Requests in the shared trace.
    pub num_requests: usize,
    /// Pods in every cell's fleet.
    pub slots: usize,
    /// All sweep cells, in (engine, prefill-pod-count) order.
    pub entries: Vec<DisaggSweepEntry>,
    /// The designated run's recorded event stream (the Samoyeds 1:3 cell —
    /// the split with both intra-island and spine handoffs), for the
    /// Chrome trace export.
    pub events: Vec<TraceEvent>,
    /// Replica track names for the Chrome trace export.
    pub replica_names: Vec<String>,
}

impl DisaggSweepReport {
    /// Pods in every cell's fleet: GPUs of the 2×2 demo topology.
    const SLOTS: usize = 4;

    /// The serve-level engine a [`ClusterEngine`]'s memory accounting maps
    /// onto (VENOM stores the same compressed weights Samoyeds does).
    fn memory_kind(engine: ClusterEngine) -> EngineKind {
        match engine {
            ClusterEngine::Dense => EngineKind::Transformers,
            ClusterEngine::Venom | ClusterEngine::Samoyeds => EngineKind::Samoyeds,
        }
    }

    /// One pod: the representation's memory model with its compute pricing
    /// — VENOM swaps in the weight-only ("+W") Samoyeds kernels.
    fn backend(
        engine: ClusterEngine,
        device: &DeviceSpec,
        model: &MoeModelConfig,
        scfg: &SchedulerConfig,
    ) -> Box<dyn ExecutionBackend> {
        let backend = SingleGpuBackend::new(device.clone(), model, Self::memory_kind(engine), scfg);
        match engine {
            ClusterEngine::Venom => Box::new(
                backend.with_engine(
                    Engine::new(EngineKind::Samoyeds, device.clone())
                        .with_samoyeds_options(SamoyedsOptions::WEIGHT_ONLY),
                ),
            ),
            _ => Box::new(backend),
        }
    }

    /// Run the sweep over [`FleetAutoscaleReport::demo_trace`]. Every cell
    /// is validated first: an infeasible cell (decode pods that cannot hold
    /// the weights) is reported as such instead of running, so the dense
    /// column degrades into `OOM` rows rather than panics.
    pub fn sweep(model: &MoeModelConfig, scfg: &SchedulerConfig) -> Self {
        let requests = FleetAutoscaleReport::demo_trace().generate();
        let topology =
            ClusterTopology::symmetric(2, 2, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .expect("2×2 disaggregation topology is valid");
        let mut cells = Vec::new();
        for engine in ClusterEngine::all() {
            for prefill in 1..Self::SLOTS {
                cells.push((engine, prefill));
            }
        }
        type Captured = Option<(Vec<TraceEvent>, Vec<String>)>;
        let results: Vec<(DisaggSweepEntry, Captured)> = cells
            .par_iter()
            .map(|&(engine, prefill)| {
                let prefill_ids: Vec<usize> = (0..prefill).collect();
                let decode_ids: Vec<usize> = (prefill..Self::SLOTS).collect();
                // Slot i sits on GPU i: price each prefill→decode pair by
                // whether it crosses the island boundary.
                let links: Vec<Vec<LinkSpec>> = prefill_ids
                    .iter()
                    .map(|&p| {
                        decode_ids
                            .iter()
                            .map(|&d| {
                                if topology.island_of(p) == topology.island_of(d) {
                                    LinkSpec::nvlink3()
                                } else {
                                    LinkSpec::infiniband_ndr()
                                }
                            })
                            .collect()
                    })
                    .collect();
                let decode_device = DeviceSpec::rtx4070_super();
                let disagg = DisaggregationConfig {
                    prefill: prefill_ids,
                    decode: decode_ids,
                    memory: MemoryModel::new(&decode_device, Self::memory_kind(engine), model),
                    links,
                };
                let config = FleetConfig {
                    scheduler: *scfg,
                    max_replicas: Self::SLOTS,
                    ..FleetConfig::default()
                };
                let (sink, recorder) = SharedSink::new(TraceRecorder::new());
                let mut controller = FleetController::new(config);
                for slot in 0..Self::SLOTS {
                    let device = if slot < prefill {
                        DeviceSpec::a100_40g()
                    } else {
                        decode_device.clone()
                    };
                    controller =
                        controller.with_replica(Self::backend(engine, &device, model, scfg));
                }
                let controller = controller.with_disaggregation(disagg).with_sink(sink);
                let entry = |outcome| DisaggSweepEntry {
                    engine,
                    prefill_pods: prefill,
                    decode_pods: Self::SLOTS - prefill,
                    outcome,
                };
                let report = controller.validate(&requests);
                if report.has("disagg::decode-cannot-hold-model") {
                    return (entry(None), None);
                }
                report.assert_valid();
                let metrics = controller.run(&requests);
                let run_events = recorder.borrow().events();
                let timelines = request_timelines(&run_events);
                let attribution = AttributionSummary::from_timelines(&timelines);
                let (mut intra, mut intra_bytes, mut spine, mut spine_bytes) =
                    (0usize, 0.0f64, 0usize, 0.0f64);
                for e in &run_events {
                    if let TraceEvent::KvTransferStarted {
                        from, to, bytes, ..
                    } = *e
                    {
                        if topology.island_of(from) == topology.island_of(to) {
                            intra += 1;
                            intra_bytes += bytes;
                        } else {
                            spine += 1;
                            spine_bytes += bytes;
                        }
                    }
                }
                let captured = (engine == ClusterEngine::Samoyeds && prefill == 1).then(|| {
                    let names = metrics
                        .per_replica
                        .iter()
                        .map(|r| r.description.clone())
                        .collect();
                    (run_events, names)
                });
                (
                    entry(Some(DisaggSweepOutcome {
                        metrics,
                        attribution,
                        intra_transfers: intra,
                        intra_bytes,
                        spine_transfers: spine,
                        spine_bytes,
                    })),
                    captured,
                )
            })
            .collect();
        let mut entries = Vec::with_capacity(results.len());
        let mut events = Vec::new();
        let mut replica_names = Vec::new();
        for (entry, captured) in results {
            if let Some((e, names)) = captured {
                events = e;
                replica_names = names;
            }
            entries.push(entry);
        }
        Self {
            model: model.name.clone(),
            num_requests: requests.len(),
            slots: Self::SLOTS,
            entries,
            events,
            replica_names,
        }
    }

    /// The best feasible prefill:decode split for `engine`: most requests
    /// served, output throughput breaking ties. `None` when every split is
    /// infeasible for the engine (the dense column).
    pub fn best_ratio(&self, engine: ClusterEngine) -> Option<(usize, usize)> {
        self.entries
            .iter()
            .filter(|e| e.engine == engine)
            .filter_map(|e| e.outcome.as_ref().map(|o| (e, o)))
            .max_by(|(_, a), (_, b)| {
                (a.metrics.completed, a.metrics.output_tokens_per_s)
                    .partial_cmp(&(b.metrics.completed, b.metrics.output_tokens_per_s))
                    .expect("throughputs are finite")
            })
            .map(|(e, _)| (e.prefill_pods, e.decode_pods))
    }

    /// The acceptance contrast: Samoyeds' best feasible split against
    /// dense's — `None` on the dense side when no dense split is feasible,
    /// i.e. the compressed weights are what makes the 12 GiB decode pods
    /// usable at all, shifting the achievable prefill:decode ratio.
    #[allow(clippy::type_complexity)]
    pub fn ratio_contrast(&self) -> Option<((usize, usize), Option<(usize, usize)>)> {
        Some((
            self.best_ratio(ClusterEngine::Samoyeds)?,
            self.best_ratio(ClusterEngine::Dense),
        ))
    }

    /// The Chrome trace-event JSON of the designated run (KV-transfer
    /// instants included).
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.events, &self.replica_names)
    }

    /// Render the sweep as markdown: the cell table plus the best-split
    /// contrast line.
    pub fn render_markdown(&self) -> Vec<String> {
        let mib = |b: f64| b / (1u64 << 20) as f64;
        let mut rows = vec![
            format!(
                "Disaggregation sweep: {} ({} requests over {} pods — A100 prefill, \
                 RTX 4070 Super decode; KV handoffs ride NVLink 3 inside an island, \
                 InfiniBand NDR across the spine)",
                self.model, self.num_requests, self.slots
            ),
            "| engine | prefill:decode | served | failed | p95 TTFT (ms) | out tok/s | \
             handoff mean (ms) | KV intra (n / MiB) | KV spine (n / MiB) |"
                .to_string(),
            "|---|---|---|---|---|---|---|---|---|".to_string(),
        ];
        for e in &self.entries {
            match &e.outcome {
                None => rows.push(format!(
                    "| {} | {}:{} | OOM | - | - | - | - | - | - |",
                    e.engine.name(),
                    e.prefill_pods,
                    e.decode_pods
                )),
                Some(o) => rows.push(format!(
                    "| {} | {}:{} | {} | {} | {:.1} | {:.0} | {:.2} | {} / {:.0} | {} / {:.0} |",
                    e.engine.name(),
                    e.prefill_pods,
                    e.decode_pods,
                    o.metrics.completed,
                    o.metrics.failed(),
                    o.metrics.ttft.p95_ms,
                    o.metrics.output_tokens_per_s,
                    o.attribution.transfer.mean_ms,
                    o.intra_transfers,
                    mib(o.intra_bytes),
                    o.spine_transfers,
                    mib(o.spine_bytes),
                )),
            }
        }
        if let Some((samoyeds, dense)) = self.ratio_contrast() {
            rows.push(String::new());
            rows.push(match dense {
                Some(d) => format!(
                    "best split — Samoyeds {}:{} vs dense {}:{}",
                    samoyeds.0, samoyeds.1, d.0, d.1
                ),
                None => format!(
                    "best split — Samoyeds {}:{}; no dense split is feasible (the decode \
                     pods cannot hold dense weights)",
                    samoyeds.0, samoyeds.1
                ),
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reproduces_the_fleet_sizing_story() {
        let report = ClusterReport::gpu_count_sweep(&MoeModelConfig::qwen2_moe(), 1024, 42);
        assert_eq!(report.entries.len(), 2 * 3 * 4);
        let consumer = &DeviceSpec::rtx4070_super().name;
        // Samoyeds holds the model on a single consumer card; dense needs a
        // strictly larger cluster.
        let samoyeds = report
            .min_feasible_gpus(consumer, ClusterEngine::Samoyeds)
            .unwrap();
        let dense = report
            .min_feasible_gpus(consumer, ClusterEngine::Dense)
            .unwrap();
        assert_eq!(samoyeds, 1);
        assert!(dense > samoyeds, "dense {dense} vs samoyeds {samoyeds}");
        // Every feasible multi-GPU cell has a nonzero all-to-all component.
        for e in &report.entries {
            if let Some(o) = e.outcome {
                if e.num_gpus > 1 {
                    assert!(o.all_to_all_ms > 0.0, "{} {:?}", e.device, e.engine);
                }
                assert!(o.tokens_per_s > 0.0);
            }
        }
        let rows = report.render_markdown();
        assert!(rows.iter().any(|r| r.contains("OOM")));
        assert!(rows.len() >= 3 + 24);
    }

    #[test]
    fn fleet_sizing_table_shows_the_compression_lever() {
        let rows = render_fleet_sizing(&MoeModelConfig::qwen2_moe(), 1024);
        assert_eq!(rows.len(), 5);
        let consumer_row = &rows[3];
        // Dense needs more GPUs than Samoyeds on the 12 GiB card.
        assert!(consumer_row.contains("4070"), "{consumer_row}");
    }

    fn serving_sweep_fixture() -> ClusterServingReport {
        let trace = TraceConfig {
            num_requests: 10,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 11,
        };
        ClusterServingReport::sweep(
            &MoeModelConfig::qwen2_moe(),
            &trace,
            &SchedulerConfig::default(),
        )
    }

    #[test]
    fn cluster_serving_sweep_has_the_admission_contrast_cell() {
        let report = serving_sweep_fixture();
        // 3 fabrics x 3 engines x 4 GPU counts.
        assert_eq!(report.entries.len(), 3 * 3 * 4);
        // The acceptance-criterion cell: Samoyeds admits where dense is
        // rejected for memory — on the 12 GiB consumer card.
        let (device, _, gpus) = report.admission_contrast().expect("contrast cell exists");
        assert!(device.contains("4070"), "{device}");
        assert_eq!(gpus, 1);
        let rows = report.render_markdown();
        assert!(rows.iter().any(|r| r.contains("OOM")));
        assert!(rows.len() >= 3 + 36);
    }

    #[test]
    fn cluster_serving_collectives_grow_with_the_fabric_penalty() {
        let report = serving_sweep_fixture();
        let share = |device: &str, link: &str, gpus: usize| {
            report
                .entries
                .iter()
                .find(|e| {
                    e.device.contains(device)
                        && e.link.contains(link)
                        && e.num_gpus == gpus
                        && e.engine == ClusterEngine::Samoyeds
                })
                .expect("cell exists")
                .collective_fraction
        };
        // Single-GPU pods pay no collectives; PCIe pays more than NVLink
        // for the same pod size on the same device.
        assert_eq!(share("A100", "NVLink", 1), 0.0);
        assert!(share("A100", "NVLink", 4) > 0.0);
        assert!(share("A100", "PCIe", 4) > share("A100", "NVLink", 4));
    }

    fn autoscale_fixture() -> FleetAutoscaleReport {
        FleetAutoscaleReport::sweep(
            &MoeModelConfig::qwen2_moe(),
            &FleetAutoscaleReport::demo_trace(),
            &SchedulerConfig::default(),
        )
    }

    #[test]
    fn autoscale_sweep_shows_samoyeds_absorbing_the_spike_with_fewer_scale_outs() {
        let report = autoscale_fixture();
        // 3 fleets x 2 policies x 2 SLOs.
        assert_eq!(report.entries.len(), 12);
        // Every cell conserves the trace.
        for e in &report.entries {
            assert_eq!(
                e.metrics.completed + e.metrics.rejected,
                report.num_requests,
                "{} {} {}",
                e.fleet.name(),
                e.policy.name(),
                e.slo_ms
            );
            assert_eq!(e.metrics.rejected, 0);
        }
        // The headline: at the tight SLO, the dense fleet needs more
        // scale-outs than the Samoyeds fleet to absorb the same spike.
        let (samoyeds, dense) = report.scale_out_contrast().expect("both cells exist");
        assert!(
            samoyeds < dense,
            "samoyeds {samoyeds} scale-outs vs dense {dense}"
        );
        let rows = report.render_markdown();
        assert!(rows.len() >= 3 + 12);
        assert!(rows.iter().any(|r| r.contains("A100 pod + 4070S")));
    }

    #[test]
    fn mixed_fleet_scales_out_on_breach_and_back_in_with_a_timeline() {
        let report = autoscale_fixture();
        let mixed = report
            .entries
            .iter()
            .find(|e| {
                e.fleet == FleetKind::Mixed
                    // simlint::allow(float-eq): selects the sweep cell built
                    // from this exact literal — no arithmetic in between
                    && e.slo_ms == 400.0
                    && e.policy == DispatchPolicy::LeastOutstandingTokens
            })
            .expect("mixed cell exists");
        let m = &mixed.metrics;
        // The heterogeneous pair is the floor; the burst pushes past it and
        // the fleet comes back down afterwards.
        assert!(m.scale_outs() >= 1, "{:?}", m.scale_events);
        assert!(m.scale_ins() >= 1, "{:?}", m.scale_events);
        assert!(m.replicas > 2);
        let first_out = m
            .scale_events
            .iter()
            .find(|e| e.kind == samoyeds_serve::ScaleKind::Out)
            .expect("scale-out happened");
        assert!(m
            .scale_events
            .iter()
            .any(|e| e.kind == samoyeds_serve::ScaleKind::In && e.at_ms > first_out.at_ms));
        for e in &m.scale_events {
            assert!(e.replicas_after >= 2, "floor violated: {e:?}");
        }
        // Both device classes took traffic.
        assert!(m.per_replica[0].description.contains("cluster 2x"));
        assert!(m.per_replica[1].description.contains("4070"));
        assert!(m.per_replica[0].assigned > 0);
        assert!(m.per_replica[1].assigned > 0);
        // The timeline renders with one row per event.
        assert_eq!(m.render_timeline().len(), 2 + m.scale_events.len());
    }

    #[test]
    fn fault_sweep_recovers_with_zero_lost_requests_under_readmission() {
        let report =
            FaultSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default());
        assert_eq!(report.entries.len(), 3);
        // The transfer bill comes from the placement layer and is real.
        assert!(report.transfer_ms > 0.0 && report.transfer_ms.is_finite());
        assert!(report.transfer_bytes > 0.0);
        // Acceptance criterion: finite recovery time, zero lost requests
        // when re-admission is on.
        let (recovery_ms, failed) = report.readmit_recovery().expect("crash recovered");
        assert!(recovery_ms.is_finite() && recovery_ms >= report.transfer_ms - 1e-6);
        assert_eq!(failed, 0);
        for e in &report.entries {
            // Conservation in every cell: served + rejected + failed covers
            // the offered trace.
            assert_eq!(
                e.metrics.completed + e.metrics.rejected + e.metrics.failed(),
                report.num_requests,
                "{}",
                e.policy
            );
            assert_eq!(e.metrics.faults.len(), 2, "{}", e.policy);
        }
        // Fail-fast loses the crashed replica's in-flight work; the
        // re-admission policies do not.
        let fail_fast = &report.entries[0];
        assert!(fail_fast.metrics.failed() > 0);
        assert_eq!(report.entries[1].metrics.failed(), 0);
        assert_eq!(report.entries[2].metrics.failed(), 0);
        // The replacement policy commissions a new replica.
        let crash = report.entries[2]
            .metrics
            .faults
            .iter()
            .find(|f| matches!(f.kind, FaultKind::ReplicaCrash { .. }))
            .unwrap();
        assert!(crash.replacement.is_some());
        // The re-admission run's trace carries fault + recovery instants.
        let json = report.chrome_trace();
        assert!(json.contains("\"replica crashed\""));
        assert!(json.contains("\"recovery started\""));
        assert!(json.contains("\"recovery complete\""));
        assert!(json.contains("\"link degraded\""));
        assert!(json.contains("\"link restored\""));
        let rows = report.render_markdown();
        assert!(rows.iter().any(|r| r.contains("fail-fast")));
        assert!(rows.iter().any(|r| r.contains("re-admit + replace")));
        assert!(rows.iter().any(|r| r.starts_with("drain:")));
    }

    #[test]
    fn disagg_sweep_shows_compression_unlocking_the_decode_pods() {
        let report =
            DisaggSweepReport::sweep(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default());
        // 3 engines x 3 prefill:decode splits.
        assert_eq!(report.entries.len(), 9);
        for e in &report.entries {
            assert_eq!(e.prefill_pods + e.decode_pods, report.slots);
            match e.engine {
                // The memory story: dense bf16 weights do not fit the
                // 12 GiB decode pods, so every dense split is rejected by
                // validation before anything runs.
                ClusterEngine::Dense => assert!(e.outcome.is_none()),
                ClusterEngine::Venom | ClusterEngine::Samoyeds => {
                    let o = e.outcome.as_ref().expect("compressed cells run");
                    // Conservation in every feasible cell.
                    assert_eq!(
                        o.metrics.completed + o.metrics.rejected + o.metrics.failed(),
                        report.num_requests,
                        "{} {}:{}",
                        e.engine.name(),
                        e.prefill_pods,
                        e.decode_pods
                    );
                    // Every completion decoded remotely, so handoffs flowed
                    // and the transfer phase showed up in the attribution.
                    assert!(o.intra_transfers + o.spine_transfers > 0);
                    assert!(o.intra_bytes + o.spine_bytes > 0.0);
                    assert!(o.attribution.transfer.mean_ms > 0.0);
                    // Topology pricing: the 2:2 split puts all prefill in
                    // island 0 and all decode in island 1, so every handoff
                    // crosses the spine; the 1:3 and 3:1 splits each keep
                    // one prefill-decode pair inside an island (GPU 0 - 1
                    // and GPU 2 - 3 respectively) and see both kinds.
                    if e.prefill_pods == 2 {
                        assert_eq!(o.intra_transfers, 0);
                    } else {
                        assert!(o.intra_transfers > 0 && o.spine_transfers > 0);
                    }
                }
            }
        }
        // The acceptance contrast: Samoyeds has a best feasible split,
        // dense has none at all.
        let (samoyeds, dense) = report
            .ratio_contrast()
            .expect("samoyeds cells are feasible");
        assert!(samoyeds.1 >= 1);
        assert!(dense.is_none());
        // The designated run's trace carries the transfer spans.
        let json = report.chrome_trace();
        assert!(json.contains("\"kv transfer started\""));
        assert!(json.contains("\"kv transfer complete\""));
        let rows = report.render_markdown();
        assert!(rows.iter().any(|r| r.contains("| Dense | 1:3 | OOM |")));
        assert!(rows.iter().any(|r| r.contains("best split")));
    }

    #[test]
    fn topology_sweep_shows_the_spine_becoming_the_straggler() {
        let report = TopologySweepReport::sweep(&MoeModelConfig::qwen2_moe(), 4096, 1.5, 42);
        // 3 layouts x 3 engines.
        assert_eq!(report.entries.len(), 9);
        // The acceptance cell: on skewed routing the 2x4 NVLink+IB layout's
        // collective time is spine-bound and exceeds the flat-NVLink
        // baseline.
        let (hier, flat, spine) = report.spine_bound_contrast().expect("cells exist");
        assert!(hier > flat, "hierarchical {hier} vs flat {flat}");
        assert!(spine > 0.0);
        assert!(spine > hier - spine, "spine {spine} of {hier} is the bound");
        // Flat cells never pay the spine; hierarchical cells always do.
        for e in &report.entries {
            if let Some(o) = e.outcome {
                if e.num_islands == 1 {
                    assert_eq!(o.spine_ms, 0.0, "{}", e.topology);
                    assert_eq!(o.intra_island_ms, o.all_to_all_ms);
                } else {
                    assert!(o.spine_ms > 0.0, "{}", e.topology);
                }
            }
        }
        let rows = report.render_markdown();
        assert!(rows.len() >= 3 + 9);
        assert!(rows.iter().any(|r| r.contains("InfiniBand NDR spine")));
    }

    #[test]
    fn topology_placement_table_shows_island_replication_cutting_spine_traffic() {
        let topology =
            ClusterTopology::symmetric(2, 4, LinkSpec::nvlink3(), LinkSpec::infiniband_ndr())
                .unwrap();
        let rows = render_topology_placement(&MoeModelConfig::qwen2_moe(), &topology, 2048, 1.5, 9);
        assert_eq!(rows.len(), 6);
        let spine = |row: &String| {
            row.split('|')
                .nth(2)
                .unwrap()
                .trim()
                .parse::<f64>()
                .unwrap()
        };
        let greedy = spine(&rows[3]);
        let per_island = spine(&rows[5]);
        assert!(
            per_island < greedy,
            "replicate-hot-island {per_island} vs capacity-greedy {greedy}"
        );
    }

    #[test]
    fn placement_comparison_prefers_load_aware_strategies() {
        let rows = render_placement_comparison(
            &MoeModelConfig::qwen2_moe(),
            &DeviceSpec::a100_40g(),
            8,
            2048,
            1.5,
            9,
        );
        assert_eq!(rows.len(), 6);
        let straggler = |row: &String| {
            row.split('|')
                .nth(2)
                .unwrap()
                .trim()
                .parse::<f64>()
                .unwrap()
        };
        let rr = straggler(&rows[3]);
        let greedy = straggler(&rows[4]);
        assert!(greedy < rr, "greedy {greedy} vs round-robin {rr}");
    }

    #[test]
    fn fleet_trace_demo_records_the_full_lifecycle() {
        let report =
            FleetTraceReport::demo(&MoeModelConfig::qwen2_moe(), &SchedulerConfig::default());
        assert!(report.metrics.completed > 0, "demo must serve requests");
        assert_eq!(
            report.timelines.len(),
            report.metrics.completed,
            "one timeline per completed request"
        );
        assert_eq!(report.registry.completed, report.metrics.completed as u64);
        assert!(
            report.registry.snapshots.len() > 1,
            "control ticks must be snapshotted"
        );
        // Attribution telescopes: phases sum to end-to-end latency.
        for t in &report.timelines {
            let sum = t.queue_ms() + t.prefill_ms() + t.decode_ms();
            assert!(
                (sum - t.latency_ms()).abs() <= 1e-9 * t.latency_ms().max(1.0),
                "attribution drift: {sum} vs {}",
                t.latency_ms()
            );
        }
        let rows = report.render_markdown();
        assert!(rows[0].starts_with("Fleet trace:"), "{}", rows[0]);

        // The Chrome trace carries one named track per replica and at least
        // one step span on every replica that executed steps.
        let json = report.chrome_trace();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        for (slot, replica) in report.metrics.per_replica.iter().enumerate() {
            assert!(
                json.contains(&format!(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{}",
                    slot + 1
                )),
                "missing thread-name metadata for slot {slot}"
            );
            if replica.metrics.completed > 0 {
                assert!(
                    json.contains(&format!("\"ph\":\"X\",\"pid\":1,\"tid\":{}", slot + 1)),
                    "missing step spans for slot {slot}"
                );
            }
        }
    }
}
