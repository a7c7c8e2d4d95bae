//! The execution-backend abstraction: where step pricing and admission
//! budgets come from.
//!
//! The continuous-batching scheduler is a control loop — admission, batch
//! formation, progress accounting. Everything *physical* about a deployment
//! (how long a step takes, how much memory the model plus its KV cache
//! occupies, which models the kernels can run) lives behind
//! [`ExecutionBackend`]. Two implementations exist:
//!
//! * [`SingleGpuBackend`] (this module) — one device running one execution
//!   engine, the original serving configuration. Its cost model is the
//!   pre-refactor `Scheduler` pricing, bit for bit.
//! * `ClusterBackend` (in `samoyeds-dist`) — an expert-parallel cluster:
//!   per-GPU straggler compute plus α-β dispatch/combine collectives, with
//!   admission against the straggler GPU's memory budget.
//!
//! The scheduler only ever sees the trait, so serving policies (chunked
//! prefill, FCFS admission, continuous batching) are written once and run
//! unchanged from a single consumer card to an NVLink pod.

use crate::batch::StepBatch;
use crate::memory::{MemoryModel, KV_DTYPE_BYTES};
use crate::request::RunningRequest;
use crate::scheduler::SchedulerConfig;
use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::attention::{attention_time_ms, AttentionKind};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::{Engine, EngineKind};
use samoyeds_moe::router::TopKRouter;
use serde::{Deserialize, Serialize};

/// The memory-accounting surface admission control needs: a budget and a
/// footprint. For a single GPU the footprint is the whole model; for a
/// cluster it is the *straggler* GPU (the rank with the most experts and
/// the largest KV share), so that admission is safe on every rank.
pub trait MemoryBudget {
    /// Usable memory in bytes (per GPU for cluster backends).
    fn budget_bytes(&self) -> f64;

    /// Footprint in bytes with `kv_tokens` resident and a step over
    /// `step_tokens` in flight (for cluster backends: on the straggler GPU).
    fn footprint_bytes(&self, kv_tokens: usize, step_tokens: usize) -> f64;

    /// Whether that footprint fits the budget.
    fn fits(&self, kv_tokens: usize, step_tokens: usize) -> bool {
        self.footprint_bytes(kv_tokens, step_tokens) <= self.budget_bytes()
    }

    /// Whether the backend can hold the model at all (weights plus a
    /// minimal one-token step).
    fn can_hold_model(&self) -> bool {
        self.fits(1, 1)
    }
}

/// Everything a backend needs to price one engine step.
#[derive(Debug, Clone, Copy)]
pub struct StepWorkload<'a> {
    /// The step's batch composition (prefill chunks + decode tokens).
    pub batch: &'a StepBatch,
    /// The running set the batch indexes into.
    pub running: &'a [RunningRequest],
    /// Monotone step counter (drives the per-step routing seed).
    pub step_index: u64,
}

impl StepWorkload<'_> {
    /// Tokens the engine processes this step.
    pub fn step_tokens(&self) -> usize {
        self.batch.total_tokens()
    }
}

/// How a backend overlaps compute with the inter-GPU collectives when
/// pricing a step's total duration.
///
/// The fully-synchronous step pays `compute + collective`; a pipelined
/// dispatch (the DeepSpeed-MoE style overlap the ROADMAP names) hides the
/// shorter of the two behind the longer, so the step pays
/// `max(compute, collective)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverlapModel {
    /// Compute and collectives serialize: `total = compute + collective`.
    #[default]
    Serial,
    /// Compute and collectives overlap perfectly:
    /// `total = max(compute, collective)`.
    Pipelined,
}

impl OverlapModel {
    /// Blend a compute time and a collective time into a step duration.
    pub fn blend_ms(&self, compute_ms: f64, collective_ms: f64) -> f64 {
        match self {
            OverlapModel::Serial => compute_ms + collective_ms,
            OverlapModel::Pipelined => compute_ms.max(collective_ms),
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            OverlapModel::Serial => "serial",
            OverlapModel::Pipelined => "pipelined",
        }
    }
}

/// Predicted cost of one engine step, split into the part spent computing
/// and the part spent in inter-GPU collectives (zero on a single GPU).
///
/// Cluster backends additionally attribute the collective time to the
/// NVLink intra-island legs versus the InfiniBand spine
/// ([`Self::intra_island_ms`] / [`Self::spine_ms`]) — the split telemetry
/// step spans carry, so a TTFT breach can be traced to spine traffic rather
/// than a generic "collectives" bucket. The split is attribution only: step
/// duration stays a function of `compute_ms`, `collective_ms` and `overlap`
/// alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// Compute time (kernels, attention, norms, per-step overhead), ms.
    pub compute_ms: f64,
    /// All-to-all dispatch/combine time across the step's layers, ms.
    pub collective_ms: f64,
    /// NVLink intra-island share of the collective time (zero on a single
    /// GPU or a flat topology without islands), ms.
    pub intra_island_ms: f64,
    /// InfiniBand spine share of the collective time, ms.
    pub spine_ms: f64,
    /// How the compute and collective components combine into the step
    /// duration.
    pub overlap: OverlapModel,
}

impl StepCost {
    /// A compute-only cost (single-GPU backends).
    pub fn compute_only(compute_ms: f64) -> Self {
        Self {
            compute_ms,
            collective_ms: 0.0,
            intra_island_ms: 0.0,
            spine_ms: 0.0,
            overlap: OverlapModel::Serial,
        }
    }

    /// A fully-synchronous compute + collective cost.
    pub fn serial(compute_ms: f64, collective_ms: f64) -> Self {
        Self {
            compute_ms,
            collective_ms,
            intra_island_ms: 0.0,
            spine_ms: 0.0,
            overlap: OverlapModel::Serial,
        }
    }

    /// Replace the overlap model.
    pub fn with_overlap(mut self, overlap: OverlapModel) -> Self {
        self.overlap = overlap;
        self
    }

    /// Attribute the collective time to its intra-island and spine legs
    /// (telemetry only; does not change [`Self::total_ms`]).
    pub fn with_collective_split(mut self, intra_island_ms: f64, spine_ms: f64) -> Self {
        self.intra_island_ms = intra_island_ms;
        self.spine_ms = spine_ms;
        self
    }

    /// Total step duration under the cost's overlap model.
    pub fn total_ms(&self) -> f64 {
        self.overlap.blend_ms(self.compute_ms, self.collective_ms)
    }
}

/// An execution substrate the continuous-batching scheduler can drive.
///
/// Implementations own their cost model and their memory accounting; the
/// scheduler owns policy. Backends must be deterministic: the same workload
/// must always price to the same cost.
pub trait ExecutionBackend {
    /// The engine kind this backend executes (for reports and results).
    fn engine_kind(&self) -> EngineKind;

    /// The model this backend was built to serve. The scheduler gates the
    /// run on `supports(model())`, so the support check can never be asked
    /// about a different config than the one pricing the steps.
    fn model(&self) -> &MoeModelConfig;

    /// Whether the backend has kernels for this model (the `NS` rule).
    fn supports(&self, config: &MoeModelConfig) -> bool;

    /// The memory budget admission control enforces.
    fn memory(&self) -> &dyn MemoryBudget;

    /// Predicted cost of one step over `workload`.
    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost;

    /// Human-readable one-line description for reports.
    fn describe(&self) -> String;
}

// `ExecutionBackend` is object-safe, and the delegating impls below make
// both borrowed and boxed trait objects first-class backends: the scheduler,
// the replica driver and the fleet controller can hold
// `Box<dyn ExecutionBackend>` replicas (an A100 pod next to a consumer-GPU
// single) without a monomorphic type parameter.
macro_rules! delegate_execution_backend {
    () => {
        fn engine_kind(&self) -> EngineKind {
            (**self).engine_kind()
        }

        fn model(&self) -> &MoeModelConfig {
            (**self).model()
        }

        fn supports(&self, config: &MoeModelConfig) -> bool {
            (**self).supports(config)
        }

        fn memory(&self) -> &dyn MemoryBudget {
            (**self).memory()
        }

        fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
            (**self).step_cost(workload)
        }

        fn describe(&self) -> String {
            (**self).describe()
        }
    };
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for &B {
    delegate_execution_backend!();
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for Box<B> {
    delegate_execution_backend!();
}

/// Incremental attention cost of one layer over the step: prefill chunks pay
/// the causal-attention cost of extending their context; each decode token
/// pays one pass over its request's KV cache. Shared between the single-GPU
/// and cluster backends so the two can never diverge on attention pricing.
pub fn attention_step_ms(
    device: &DeviceSpec,
    config: &MoeModelConfig,
    attention: AttentionKind,
    batch: &StepBatch,
    running: &[RunningRequest],
) -> f64 {
    let mut attention_ms = 0.0;
    for &(i, chunk) in &batch.prefill {
        let before = running[i].prefilled;
        let after = (before + chunk).min(config.max_seq_len);
        let inc = attention_time_ms(device, config, after, attention)
            - attention_time_ms(device, config, before.max(1), attention);
        attention_ms += inc.max(0.0);
    }
    let bandwidth = device.mem_bandwidth_gbps * 1e9;
    for &i in &batch.decode {
        let ctx = running[i].context_tokens().min(config.max_seq_len);
        let kv_bytes = 2.0 * ctx as f64 * config.hidden_size as f64 * KV_DTYPE_BYTES;
        attention_ms += kv_bytes / bandwidth * 1e3 + 2.0e-3;
    }
    attention_ms
}

/// Per-layer cost of everything that is neither MoE nor attention: norms,
/// residual adds and the router GEMM, as in the decoder-layer model.
pub fn auxiliary_step_ms(device: &DeviceSpec, config: &MoeModelConfig, step_tokens: usize) -> f64 {
    let bandwidth = device.mem_bandwidth_gbps * 1e9;
    let h = config.hidden_size as f64;
    4.0 * step_tokens as f64 * h * 2.0 / bandwidth * 1e3 + 0.02
}

/// One device running one execution engine — the original serving
/// configuration, wrapped behind the backend trait. Reproduces the
/// pre-refactor scheduler cost model exactly (the backend-equivalence suite
/// pins this token for token).
#[derive(Debug, Clone)]
pub struct SingleGpuBackend {
    device: DeviceSpec,
    config: MoeModelConfig,
    engine: Engine,
    memory: MemoryModel,
    router: TopKRouter,
    attention: AttentionKind,
    routing_seed: u64,
    step_overhead_ms: f64,
}

impl SingleGpuBackend {
    /// Build the backend for one (device, model, engine) triple, taking the
    /// cost-model knobs (attention kind, routing seed, step overhead) from
    /// the scheduler configuration.
    pub fn new(
        device: DeviceSpec,
        config: &MoeModelConfig,
        engine_kind: EngineKind,
        scfg: &SchedulerConfig,
    ) -> Self {
        Self {
            engine: Engine::new(engine_kind, device.clone()),
            memory: MemoryModel::new(&device, engine_kind, config),
            // Built once and reseeded per step. A step is priced from the
            // per-expert token counts alone (`route_loads_seeded`): the same
            // random stream as the full plan, without its token lists.
            router: TopKRouter::for_config(config, scfg.routing_seed),
            device,
            config: config.clone(),
            attention: scfg.attention,
            routing_seed: scfg.routing_seed,
            step_overhead_ms: scfg.step_overhead_ms,
        }
    }

    /// Swap the step-pricing engine while keeping the memory model, router
    /// and device. This is how `samoyeds-dist` mounts the VENOM ("+W",
    /// weight-only sparsity) configuration: the Samoyeds memory footprint —
    /// compressed weights free the same KV headroom — priced with the
    /// weight-only kernels (dense inputs, permute round trips).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The full-model memory model (concrete type, for callers that need
    /// more than the [`MemoryBudget`] surface).
    pub fn memory_model(&self) -> &MemoryModel {
        &self.memory
    }

    /// The device the backend runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }
}

impl ExecutionBackend for SingleGpuBackend {
    fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    fn model(&self) -> &MoeModelConfig {
        &self.config
    }

    fn supports(&self, config: &MoeModelConfig) -> bool {
        self.engine.supports(config)
    }

    fn memory(&self) -> &dyn MemoryBudget {
        &self.memory
    }

    fn step_cost(&self, workload: &StepWorkload<'_>) -> StepCost {
        let step_tokens = workload.step_tokens();
        let loads = self
            .router
            .route_loads_seeded(self.routing_seed ^ workload.step_index, step_tokens);
        let moe_ms = self
            .engine
            .moe_layer_cost_for_loads(&self.config, step_tokens, &loads)
            .time_ms;
        let attention_ms = attention_step_ms(
            &self.device,
            &self.config,
            self.attention,
            workload.batch,
            workload.running,
        );
        let other_ms = auxiliary_step_ms(&self.device, &self.config, step_tokens);
        StepCost::compute_only(
            (moe_ms + attention_ms + other_ms) * self.config.num_layers as f64
                + self.step_overhead_ms,
        )
    }

    fn describe(&self) -> String {
        format!(
            "single-GPU {} · {} · {}",
            self.device.name,
            self.engine.kind().name(),
            self.config.name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{build_step, BatchLimits};
    use crate::request::Request;

    fn backend(engine: EngineKind) -> SingleGpuBackend {
        SingleGpuBackend::new(
            DeviceSpec::a100_40g(),
            &MoeModelConfig::qwen2_moe(),
            engine,
            &SchedulerConfig::default(),
        )
    }

    fn workload_fixture() -> (Vec<RunningRequest>, StepBatch) {
        let running = vec![
            RunningRequest::new(
                Request {
                    id: 0,
                    arrival_ms: 0.0,
                    prompt_len: 128,
                    output_len: 8,
                },
                0.0,
            ),
            {
                let mut r = RunningRequest::new(
                    Request {
                        id: 1,
                        arrival_ms: 0.0,
                        prompt_len: 64,
                        output_len: 8,
                    },
                    0.0,
                );
                r.prefilled = 64;
                r.decoded = 2;
                r
            },
        ];
        let batch = build_step(&running, &BatchLimits::default());
        (running, batch)
    }

    #[test]
    fn single_gpu_cost_is_compute_only_and_deterministic() {
        let backend = backend(EngineKind::Samoyeds);
        let (running, batch) = workload_fixture();
        let workload = StepWorkload {
            batch: &batch,
            running: &running,
            step_index: 3,
        };
        let a = backend.step_cost(&workload);
        let b = backend.step_cost(&workload);
        assert_eq!(a, b);
        assert_eq!(a.collective_ms, 0.0);
        assert!(a.compute_ms > 0.0);
        assert_eq!(a.total_ms(), a.compute_ms);
        // A different step index reseeds the routing plan; the cost stays
        // finite and positive (tile padding may round it to the same value).
        let other = backend.step_cost(&StepWorkload {
            step_index: 4,
            ..workload
        });
        assert!(other.compute_ms.is_finite() && other.compute_ms > 0.0);
    }

    #[test]
    fn backend_surfaces_engine_support_and_memory() {
        let backend = backend(EngineKind::Samoyeds);
        assert_eq!(backend.engine_kind(), EngineKind::Samoyeds);
        assert!(backend.supports(&MoeModelConfig::qwen2_moe()));
        assert!(backend.memory().can_hold_model());
        assert!(backend.describe().contains("Samoyeds"));
        // The trait-object budget view agrees with the concrete model.
        assert_eq!(
            backend.memory().budget_bytes(),
            backend.memory_model().budget_bytes()
        );
        assert_eq!(
            backend.memory().footprint_bytes(100, 10),
            backend.memory_model().footprint_bytes(100, 10)
        );
    }

    #[test]
    fn vllm_backend_reports_ns_for_relu_models() {
        let backend = backend(EngineKind::VllmDs);
        assert!(!backend.supports(&MoeModelConfig::openmoe_34b()));
    }

    #[test]
    fn overlap_model_blends_serial_sum_and_pipelined_max() {
        let cost = StepCost::serial(3.0, 2.0);
        assert_eq!(cost.total_ms(), 5.0);
        let pipelined = cost.with_overlap(OverlapModel::Pipelined);
        assert_eq!(pipelined.total_ms(), 3.0);
        // The pipelined step is bounded below by the longer component.
        let collective_bound = StepCost::serial(1.0, 4.0).with_overlap(OverlapModel::Pipelined);
        assert_eq!(collective_bound.total_ms(), 4.0);
        assert_eq!(OverlapModel::default(), OverlapModel::Serial);
    }

    #[test]
    fn backend_works_as_a_boxed_trait_object() {
        let boxed: Box<dyn ExecutionBackend> = Box::new(backend(EngineKind::Samoyeds));
        assert_eq!(boxed.engine_kind(), EngineKind::Samoyeds);
        assert!(boxed.supports(boxed.model()));
        assert!(boxed.memory().can_hold_model());
        let (running, batch) = workload_fixture();
        let workload = StepWorkload {
            batch: &batch,
            running: &running,
            step_index: 3,
        };
        // The boxed and borrowed views price identically to the concrete
        // backend.
        let concrete = backend(EngineKind::Samoyeds).step_cost(&workload);
        assert_eq!(boxed.step_cost(&workload), concrete);
        let by_ref: &dyn ExecutionBackend = &*boxed;
        assert_eq!(by_ref.step_cost(&workload), concrete);
        assert_eq!(boxed.describe(), by_ref.describe());
    }
}
