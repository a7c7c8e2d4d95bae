//! Continuous-batching serving simulator for the Samoyeds reproduction.
//!
//! The layer above `samoyeds_moe`: instead of costing one MoE/decoder layer
//! at a fixed batch size, this crate simulates a serving system — a request
//! trace with Poisson arrivals, a continuous-batching scheduler with chunked
//! prefill, admission control against the full-model memory budget, and
//! per-engine throughput / latency-percentile reports. This is the serving
//! regime the paper's maximum-batch study (Table 3) approximates statically
//! and that systems like vLLM-DS target dynamically.
//!
//! * [`backend`] — the [`ExecutionBackend`] trait (step pricing, memory
//!   budget, kernel support) and the [`SingleGpuBackend`] implementation;
//!   the cluster implementation lives in `samoyeds-dist`;
//! * [`request`] — request descriptions, lifecycle phases and timing records;
//! * [`trace`] — deterministic trace generation (arrival process + length
//!   distributions);
//! * [`memory`] — full-model memory accounting (weights, KV cache,
//!   activation workspace) per execution engine;
//! * [`batch`] — step-batch formation (decode-first, chunked prefill);
//! * [`scheduler`] — the continuous-batching scheduler and step cost model;
//! * [`metrics`] — percentile latency summaries (request latency, TTFT,
//!   per-output-token latency) and throughput;
//! * [`report`] — per-engine comparison on a shared trace, rendered as
//!   markdown;
//! * [`events`] — the deterministic event queue (next-event time advance)
//!   the fleet control plane runs on;
//! * [`faults`] — deterministic fault injection (replica crashes, link
//!   degradations, island partitions) and the recovery policy the fleet
//!   controller applies when they fire;
//! * [`telemetry`] — structured request/replica lifecycle tracing behind the
//!   [`TraceSink`] trait: an allocation-free default, a metrics registry
//!   with log-linear histograms, a Chrome trace-event exporter and
//!   per-request latency attribution;
//! * [`fleet`] — the online fleet control plane: heterogeneous
//!   `Box<dyn ExecutionBackend>` replicas behind a capability-aware
//!   dispatcher, with SLO-driven autoscaling and a scaling timeline;
//! * [`dispatch`] — the [`DispatchPolicy`] the fleet controller routes
//!   each request by (round-robin or least outstanding tokens);
//! * [`validate`] — static experiment validation: the [`Diagnostic`] /
//!   [`ValidationReport`] engine that rejects ill-formed configurations
//!   (out-of-range fault targets, empty scaling bands, unachievable SLOs)
//!   before any event runs, surfacing every problem at once.
//!
//! ```
//! use samoyeds_gpu_sim::DeviceSpec;
//! use samoyeds_moe::config::MoeModelConfig;
//! use samoyeds_moe::engines::EngineKind;
//! use samoyeds_serve::{ServingSimulator, TraceConfig};
//!
//! let sim = ServingSimulator::new(DeviceSpec::a100_40g(), MoeModelConfig::qwen2_moe())
//!     .with_trace(TraceConfig { num_requests: 8, ..TraceConfig::default() });
//! let metrics = sim.metrics(EngineKind::Samoyeds);
//! assert!(metrics.servable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod dispatch;
pub mod events;
pub mod faults;
pub mod fleet;
pub mod memory;
pub mod metrics;
pub mod report;
pub mod request;
pub mod scheduler;
pub mod telemetry;
pub mod trace;
pub mod validate;

pub use backend::{
    ExecutionBackend, MemoryBudget, OverlapModel, SingleGpuBackend, StepCost, StepWorkload,
};
pub use batch::BatchLimits;
pub use dispatch::DispatchPolicy;
pub use events::{EventQueue, FleetEvent};
pub use faults::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, RecoveryPolicy, SeededFaults};
pub use fleet::{
    AutoscalePolicy, DisaggregationConfig, FleetConfig, FleetController, FleetMetrics,
    FleetObservation, NoAutoscale, ReplicaBreakdown, ScaleDecision, ScaleEvent, ScaleKind,
    SloAutoscaler,
};
pub use memory::{MemoryModel, KV_DTYPE_BYTES};
pub use metrics::{latency_summary, LatencySummary, ServingMetrics};
pub use report::{compare_engines, render_markdown};
pub use request::{CompletedRequest, Phase, Request, RunningRequest};
pub use scheduler::{ReplicaDriver, Scheduler, SchedulerConfig, SimulationResult, StepRecord};
pub use telemetry::{
    chrome_trace_json, request_timelines, AttributionSummary, LogLinearHistogram, MetricsRegistry,
    NullSink, RequestTimeline, SharedSink, TickSnapshot, TraceEvent, TraceRecorder, TraceSink,
};
pub use trace::{BurstPhase, BurstyTraceConfig, TraceConfig};
pub use validate::{Diagnostic, Severity, Validate, ValidationReport};

use samoyeds_gpu_sim::DeviceSpec;
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;

/// Convenience front door: a device + model + trace + scheduler bundle.
#[derive(Debug, Clone)]
pub struct ServingSimulator {
    device: DeviceSpec,
    config: MoeModelConfig,
    trace: TraceConfig,
    scheduler: SchedulerConfig,
}

impl ServingSimulator {
    /// Simulator with default trace and scheduler settings.
    pub fn new(device: DeviceSpec, config: MoeModelConfig) -> Self {
        Self {
            device,
            config,
            trace: TraceConfig::default(),
            scheduler: SchedulerConfig::default(),
        }
    }

    /// Replace the trace configuration.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the scheduler configuration.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The model being served.
    pub fn config(&self) -> &MoeModelConfig {
        &self.config
    }

    /// The device serving it.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The single-GPU execution backend [`Self::simulate`] drives for
    /// `engine`.
    pub fn backend(&self, engine: EngineKind) -> SingleGpuBackend {
        SingleGpuBackend::new(self.device.clone(), &self.config, engine, &self.scheduler)
    }

    /// Run one engine over the trace and return the full simulation record.
    pub fn simulate(&self, engine: EngineKind) -> SimulationResult {
        Scheduler::from_backend(self.backend(engine), self.scheduler).run(&self.trace.generate())
    }

    /// Run one engine and summarise it.
    pub fn metrics(&self, engine: EngineKind) -> ServingMetrics {
        ServingMetrics::from_result(&self.simulate(engine))
    }

    /// Run several engines on the same trace and summarise each.
    pub fn compare(&self, engines: &[EngineKind]) -> Vec<ServingMetrics> {
        compare_engines(
            &self.device,
            &self.config,
            &self.trace,
            &self.scheduler,
            engines,
        )
    }
}
