//! The online fleet control plane: heterogeneous replicas, capability-aware
//! dispatch and SLO-driven autoscaling behind one API.
//!
//! The [`FleetController`] here is an *online* control plane:
//!
//! * **Heterogeneous replicas** — the fleet is a set of
//!   `Box<dyn ExecutionBackend>` replicas, so an expert-parallel A100 pod
//!   (`ClusterBackend` in `samoyeds-dist`) serves next to consumer-GPU
//!   singles ([`SingleGpuBackend`](crate::backend::SingleGpuBackend))
//!   behind the same dispatcher.
//! * **Capability-aware dispatch** — each request is routed *at its arrival
//!   time* from live replica state: kernel support
//!   ([`ExecutionBackend::supports`]), admission headroom
//!   ([`MemoryBudget`](crate::backend::MemoryBudget) via
//!   [`ReplicaDriver::can_ever_admit`]) and outstanding work (which decays
//!   as replicas make progress), under a [`DispatchPolicy`].
//! * **SLO-driven autoscaling** — a pluggable [`AutoscalePolicy`] is
//!   consulted every control tick: scale out on p95-TTFT SLO breach (new
//!   replicas charged a warm-up delay before they take traffic), scale in on
//!   sustained low utilization (draining, never dropping below the floor).
//!   Every scale event lands on the [`FleetMetrics::scale_events`] timeline.
//! * **Event-driven core** — [`FleetController::run`] is a next-event loop
//!   over an [`EventQueue`](crate::events::EventQueue): arrivals, step
//!   completions, control ticks, warm-up completions and drain retirements
//!   pop in timestamp order and the clock jumps between them, so idle
//!   periods cost zero work. Policies that never scale
//!   ([`AutoscalePolicy::consults_ticks`] returns `false`) elide the tick
//!   schedule entirely and the fleet advances purely on arrivals and step
//!   completions — the regime where a 100-replica fleet absorbs a
//!   million-request trace in seconds. The event loop is pinned bit-for-bit
//!   against the frozen tick-driven loop in `fleet_event_equivalence.rs`.
//! * **Prefill/decode disaggregation** — opt-in via
//!   [`FleetController::with_disaggregation`]: arrivals run chunked prefill
//!   on *prefill pods*, the finished prompt KV
//!   ([`MemoryModel::kv_bytes`]-sized) is handed off over a [`LinkSpec`] to
//!   the *decode pod* with the most free KV budget, and the remaining
//!   tokens decode there. The handoff lands as a
//!   [`FleetEvent::KvTransferComplete`] event; a crashed decode pod's
//!   in-flight requests re-prefill or re-transfer under the
//!   [`RecoveryPolicy`]. The ratio-0 endpoint (no decode pods) is
//!   bit-for-bit the co-located fleet, pinned by `disagg_equivalence.rs`.

use crate::backend::{ExecutionBackend, StepWorkload};
use crate::batch::StepBatch;
use crate::dispatch::{pick_replica, DispatchPolicy};
use crate::events::{EventQueue, FleetEvent};
use crate::faults::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, RecoveryPolicy};
use crate::memory::MemoryModel;
use crate::metrics::{latency_summary, LatencySummary, ServingMetrics};
use crate::request::{CompletedRequest, Request, RunningRequest};
use crate::scheduler::{ReplicaDriver, SchedulerConfig};
use crate::telemetry::{SharedSink, TraceEvent};
use crate::validate::{Diagnostic, ValidationReport};
use samoyeds_gpu_sim::LinkSpec;
use samoyeds_moe::engines::EngineKind;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Fleet-level control-plane knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Per-replica scheduler configuration (also parameterises each
    /// backend's cost model, as everywhere else in the crate).
    pub scheduler: SchedulerConfig,
    /// How arriving requests pick a replica.
    pub policy: DispatchPolicy,
    /// Control-tick period: how often the autoscale policy is consulted.
    pub tick_ms: f64,
    /// Sliding observation window for TTFT percentiles and utilization.
    pub window_ms: f64,
    /// Warm-up charged to every scaled-out replica before it takes traffic
    /// (weight loading, cache warm, registration).
    pub warmup_ms: f64,
    /// The fleet never scales below this many replicas that can actually
    /// serve the model. Dead-weight replicas (kernels or weights that can
    /// never admit anything) do not count toward this floor and are drained
    /// freely, down to one commissioned replica overall.
    pub min_replicas: usize,
    /// The fleet never scales above this many commissioned replicas.
    pub max_replicas: usize,
    /// Safety cap on post-trace drain ticks. A degenerate configuration
    /// (e.g. a draining fleet that can never finish its backlog) used to
    /// panic mid-sweep; instead, once this many drain ticks have run with
    /// work still outstanding, the run stops ticking and returns degraded
    /// metrics with [`FleetMetrics::drain_incomplete`] set.
    pub max_drain_ticks: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            policy: DispatchPolicy::LeastOutstandingTokens,
            tick_ms: 200.0,
            window_ms: 1_000.0,
            warmup_ms: 2_000.0,
            min_replicas: 1,
            max_replicas: 8,
            max_drain_ticks: 10_000_000,
        }
    }
}

/// What the autoscale policy sees at each control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetObservation {
    /// Simulated time of the tick.
    pub now_ms: f64,
    /// Replicas currently taking traffic (ready, not draining).
    pub routable_replicas: usize,
    /// Replicas commissioned but still warming up.
    pub warming_replicas: usize,
    /// p95 time-to-first-token over first-token events in the window, if
    /// any landed.
    pub p95_ttft_ms: Option<f64>,
    /// Age of the oldest request that has not produced its first token
    /// (zero when none is pending) — catches overload even when nothing
    /// completes inside the window.
    pub max_pending_wait_ms: f64,
    /// Busy fraction of the ready replicas over the window.
    pub utilization: f64,
    /// Tokens of work still owed across the fleet.
    pub outstanding_tokens: usize,
    /// Requests waiting for admission across the fleet.
    pub queued_requests: usize,
}

/// The autoscale policy's verdict for one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDecision {
    /// Keep the current fleet.
    Hold,
    /// Commission one more replica (subject to `max_replicas`).
    ScaleOut,
    /// Drain one replica (subject to `min_replicas`).
    ScaleIn,
}

/// A pluggable autoscaling policy, consulted once per control tick.
pub trait AutoscalePolicy {
    /// Decide from the tick's observation. Policies may keep internal state
    /// (breach streaks, cooldowns); the controller owns enforcement of the
    /// replica floor/ceiling and of warm-up.
    fn decide(&mut self, observation: &FleetObservation) -> ScaleDecision;

    /// Human-readable name for reports.
    fn name(&self) -> String {
        "autoscaler".to_string()
    }

    /// Whether the policy needs to be consulted on the periodic control-tick
    /// schedule. The default (`true`) is correct for every policy that can
    /// ever scale or that keeps tick-indexed state. Only a policy that
    /// unconditionally returns [`ScaleDecision::Hold`] and keeps no state
    /// may return `false`: the controller then elides control ticks
    /// entirely and advances the fleet purely on arrival and
    /// step-completion events, which is what makes large fixed fleets
    /// simulate in seconds.
    fn consults_ticks(&self) -> bool {
        true
    }

    /// The p95 time-to-first-token target the policy enforces, if it has
    /// one. Static validation ([`FleetController::validate`]) compares it
    /// against the best TTFT any initial replica could physically achieve
    /// and rejects targets no fleet size can meet. Policies without an SLO
    /// (the default) return `None` and skip that check.
    fn ttft_slo_ms(&self) -> Option<f64> {
        None
    }
}

/// A fixed fleet: never scales.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAutoscale;

impl AutoscalePolicy for NoAutoscale {
    fn decide(&mut self, _observation: &FleetObservation) -> ScaleDecision {
        ScaleDecision::Hold
    }

    fn name(&self) -> String {
        "fixed".to_string()
    }

    /// A fixed fleet never scales, so the tick schedule can be elided.
    fn consults_ticks(&self) -> bool {
        false
    }
}

/// The reference SLO policy: scale out after `breach_ticks` consecutive
/// ticks whose windowed p95 TTFT (or head-of-line waiting age) exceeds the
/// SLO, scale in after `idle_ticks` consecutive ticks of low utilization
/// with nothing queued.
#[derive(Debug, Clone)]
pub struct SloAutoscaler {
    /// The p95 time-to-first-token target, milliseconds.
    pub ttft_slo_ms: f64,
    /// Consecutive breached ticks before scaling out.
    pub breach_ticks: usize,
    /// Utilization below which a tick counts as idle.
    pub low_utilization: f64,
    /// Consecutive idle ticks before scaling in.
    pub idle_ticks: usize,
    breach_streak: usize,
    idle_streak: usize,
}

impl SloAutoscaler {
    /// A policy targeting `ttft_slo_ms` with the default streak lengths
    /// (2 breached ticks to scale out, 4 idle ticks below 35% to scale in).
    pub fn new(ttft_slo_ms: f64) -> Self {
        Self {
            ttft_slo_ms,
            breach_ticks: 2,
            low_utilization: 0.35,
            idle_ticks: 4,
            breach_streak: 0,
            idle_streak: 0,
        }
    }

    /// Replace the scale-out breach streak length.
    pub fn with_breach_ticks(mut self, breach_ticks: usize) -> Self {
        self.breach_ticks = breach_ticks.max(1);
        self
    }

    /// Replace the scale-in idle threshold and streak length.
    pub fn with_scale_in(mut self, low_utilization: f64, idle_ticks: usize) -> Self {
        self.low_utilization = low_utilization;
        self.idle_ticks = idle_ticks.max(1);
        self
    }
}

impl AutoscalePolicy for SloAutoscaler {
    fn decide(&mut self, obs: &FleetObservation) -> ScaleDecision {
        // Capacity already in flight: hold every streak until it lands.
        // Counting breaches here would turn one sustained breach into an
        // immediate second scale-out the instant warm-up completes, and
        // counting idleness here would scale in capacity that is idle only
        // because the new replica has not started taking traffic yet.
        if obs.warming_replicas > 0 {
            self.breach_streak = 0;
            self.idle_streak = 0;
            return ScaleDecision::Hold;
        }
        let breached = obs.p95_ttft_ms.is_some_and(|p95| p95 > self.ttft_slo_ms)
            || obs.max_pending_wait_ms > self.ttft_slo_ms;
        let idle = obs.utilization < self.low_utilization && obs.queued_requests == 0;
        if breached {
            self.breach_streak += 1;
            self.idle_streak = 0;
        } else if idle {
            self.idle_streak += 1;
            self.breach_streak = 0;
        } else {
            self.breach_streak = 0;
            self.idle_streak = 0;
        }
        if self.breach_streak >= self.breach_ticks {
            self.breach_streak = 0;
            ScaleDecision::ScaleOut
        } else if self.idle_streak >= self.idle_ticks {
            self.idle_streak = 0;
            ScaleDecision::ScaleIn
        } else {
            ScaleDecision::Hold
        }
    }

    fn name(&self) -> String {
        format!("slo p95-ttft {:.0} ms", self.ttft_slo_ms)
    }

    fn ttft_slo_ms(&self) -> Option<f64> {
        Some(self.ttft_slo_ms)
    }
}

/// Direction of a scale event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleKind {
    /// A replica was commissioned.
    Out,
    /// A replica began draining.
    In,
}

/// One entry of the scaling timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulated time of the event.
    pub at_ms: f64,
    /// Direction.
    pub kind: ScaleKind,
    /// Commissioned (routable + warming) replicas after the event.
    pub replicas_after: usize,
    /// What the observation looked like (for the report).
    pub reason: String,
}

/// Per-replica slice of a fleet run.
#[derive(Debug, Clone)]
pub struct ReplicaBreakdown {
    /// The backend's one-line description.
    pub description: String,
    /// The engine the replica runs.
    pub engine: EngineKind,
    /// When the replica was commissioned (0 for the initial fleet).
    pub spawned_ms: f64,
    /// When it started taking traffic (spawn + warm-up).
    pub ready_ms: f64,
    /// When it finished draining after a scale-in, if it was retired.
    pub retired_ms: Option<f64>,
    /// Requests routed to this replica.
    pub assigned: usize,
    /// The ids of those requests, in routing order (the dispatch log the
    /// conservation proptests check).
    pub assigned_ids: Vec<u64>,
    /// The replica's own serving metrics.
    pub metrics: ServingMetrics,
}

/// Aggregate metrics of a [`FleetController::run`].
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// The first replica's engine (fleets may be heterogeneous; see
    /// [`Self::per_replica`] for the full picture).
    pub engine: EngineKind,
    /// Peak commissioned replicas over the run (the initial count when the
    /// fleet never scales).
    pub replicas: usize,
    /// Completed requests across the fleet.
    pub completed: usize,
    /// Rejected requests across the fleet (unroutable plus per-replica
    /// rejections).
    pub rejected: usize,
    /// Fleet output-token throughput (tokens/s over the fleet makespan).
    pub output_tokens_per_s: f64,
    /// Pooled end-to-end request latency distribution.
    pub request_latency: LatencySummary,
    /// Pooled time-to-first-token distribution.
    pub ttft: LatencySummary,
    /// Pooled per-output-token latency distribution.
    pub tpot: LatencySummary,
    /// Fleet makespan (slowest replica).
    pub makespan_ms: f64,
    /// Per-replica breakdowns, in commission order.
    pub per_replica: Vec<ReplicaBreakdown>,
    /// The scaling timeline (empty when the fleet never scales).
    pub scale_events: Vec<ScaleEvent>,
    /// Ids of requests no replica could ever admit.
    pub unroutable_ids: Vec<u64>,
    /// Ids of requests lost to a replica crash and never re-admitted
    /// (fail-fast policy, or no survivor could take them). Disjoint from
    /// [`Self::unroutable_ids`] and from per-replica rejections:
    /// `completed + rejected + failed == offered` under any fault schedule.
    pub failed_ids: Vec<u64>,
    /// Outcome of every injected fault, in injection order (empty without
    /// fault injection).
    pub faults: Vec<FaultRecord>,
    /// Whether the post-trace drain hit [`FleetConfig::max_drain_ticks`]
    /// with work still outstanding. When set, the run stopped ticking
    /// instead of panicking and every figure above reflects only the work
    /// finished up to that point — treat the metrics as degraded.
    pub drain_incomplete: bool,
    /// The replica slots that still held work when the drain cap hit
    /// (empty when [`Self::drain_incomplete`] is false) — *which* replicas
    /// were stuck, not just that something was.
    pub drain_incomplete_replicas: Vec<usize>,
}

impl FleetMetrics {
    /// Scale-out events on the timeline.
    pub fn scale_outs(&self) -> usize {
        self.scale_events
            .iter()
            .filter(|e| e.kind == ScaleKind::Out)
            .count()
    }

    /// Scale-in events on the timeline.
    pub fn scale_ins(&self) -> usize {
        self.scale_events
            .iter()
            .filter(|e| e.kind == ScaleKind::In)
            .count()
    }

    /// Render the scaling timeline as markdown rows.
    pub fn render_timeline(&self) -> Vec<String> {
        let mut rows = vec![
            "| t (s) | event | replicas after | reason |".to_string(),
            "|---|---|---|---|".to_string(),
        ];
        for e in &self.scale_events {
            rows.push(format!(
                "| {:.2} | {} | {} | {} |",
                e.at_ms / 1e3,
                match e.kind {
                    ScaleKind::Out => "scale-out",
                    ScaleKind::In => "scale-in",
                },
                e.replicas_after,
                e.reason,
            ));
        }
        rows
    }

    /// Requests lost to crashes and never re-admitted.
    pub fn failed(&self) -> usize {
        self.failed_ids.len()
    }

    /// Render the fault timeline as markdown rows (header only when no
    /// faults fired).
    pub fn render_fault_timeline(&self) -> Vec<String> {
        let mut rows = vec![
            "| t (s) | fault | lost (run/queue) | re-admitted | failed | recovery (ms) |"
                .to_string(),
            "|---|---|---|---|---|---|".to_string(),
        ];
        for f in &self.faults {
            let what = match &f.kind {
                FaultKind::ReplicaCrash { replica } => format!("crash replica {replica}"),
                FaultKind::LinkDegrade { replica, .. } => {
                    format!("link degrade replica {replica}")
                }
                FaultKind::IslandPartition {
                    island, replicas, ..
                } => format!("partition island {island} ({} replicas)", replicas.len()),
            };
            rows.push(format!(
                "| {:.2} | {} | {}/{} | {} | {} | {} |",
                f.at_ms / 1e3,
                what,
                f.lost_running,
                f.lost_queued,
                f.readmitted,
                f.failed,
                f.recovery_ms()
                    .map_or_else(|| "-".to_string(), |ms| format!("{ms:.0}")),
            ));
        }
        rows
    }

    /// One-line drain status for reports: which replicas were still busy
    /// when the drain cap hit, not just that something was.
    pub fn drain_status(&self) -> String {
        if !self.drain_incomplete {
            return "drained".to_string();
        }
        let stuck: Vec<String> = self
            .drain_incomplete_replicas
            .iter()
            .map(|i| i.to_string())
            .collect();
        format!(
            "drain incomplete: replicas [{}] still held work at the cap",
            stuck.join(", ")
        )
    }
}

/// A factory for scale-out replicas.
pub type ReplicaFactory = Box<dyn Fn() -> Box<dyn ExecutionBackend>>;

/// One replica slot inside the controller.
struct Slot {
    driver: ReplicaDriver<Box<dyn ExecutionBackend>>,
    description: String,
    spawned_ms: f64,
    ready_ms: f64,
    /// Still inside its warm-up window. Event-driven: set at commission time
    /// and cleared by the slot's [`FleetEvent::WarmupComplete`] event, which
    /// sorts before any control tick or arrival sharing its timestamp — so
    /// at every evaluation point the flag equals the legacy
    /// `ready_ms <= now` test.
    warming: bool,
    draining: bool,
    retired_ms: Option<f64>,
    /// Killed by an injected [`FaultKind::ReplicaCrash`]: retired instantly
    /// with its in-flight work ripped out, never to return.
    crashed: bool,
    /// Count of active link degradations (a degrade and an island partition
    /// can overlap): the dispatcher routes nothing here while it is > 0.
    degraded: u32,
    assigned_ids: Vec<u64>,
}

impl Slot {
    fn new(
        backend: Box<dyn ExecutionBackend>,
        scfg: SchedulerConfig,
        spawned_ms: f64,
        ready_ms: f64,
        warming: bool,
    ) -> Self {
        let description = backend.describe();
        Self {
            driver: ReplicaDriver::new(backend, scfg),
            description,
            spawned_ms,
            ready_ms,
            warming,
            draining: false,
            retired_ms: None,
            crashed: false,
            degraded: 0,
            assigned_ids: Vec::new(),
        }
    }

    /// Commissioned: part of the fleet (possibly warming), not on its way
    /// out.
    fn commissioned(&self) -> bool {
        !self.draining && self.retired_ms.is_none()
    }

    /// Routable: commissioned, past its warm-up, and its link is healthy.
    fn routable(&self) -> bool {
        self.commissioned() && !self.warming && self.degraded == 0
    }
}

/// Opt-in prefill/decode disaggregation for [`FleetController`], installed
/// with [`FleetController::with_disaggregation`].
///
/// The initial fleet is partitioned into *prefill pods* and *decode pods*.
/// Arrivals route to prefill pods only and run chunked prefill there (plus
/// the first output token, which the final prefill forward produces); the
/// finished prompt KV — sized by [`MemoryModel::kv_bytes`] — is then handed
/// off over the [`LinkSpec`] matrix to the decode pod with the most free KV
/// budget, where the remaining tokens decode. Each handoff is priced by
/// [`LinkSpec::point_to_point_ms`], the same formula that prices any other
/// point-to-point transfer on that fabric. The handoff lands as a
/// [`FleetEvent::KvTransferComplete`] event, ordered into the same-instant
/// event hierarchy after fault recoveries and before control ticks.
///
/// An empty decode set disables disaggregation entirely: the controller
/// takes the ordinary co-located code path bit-for-bit (pinned by the
/// `disagg_equivalence` suite), which is the ratio-0 endpoint of a
/// prefill:decode ratio sweep.
#[derive(Debug, Clone)]
pub struct DisaggregationConfig {
    /// Indices (into the initial fleet) of the prefill pods.
    pub prefill: Vec<usize>,
    /// Indices (into the initial fleet) of the decode pods. Empty disables
    /// disaggregation.
    pub decode: Vec<usize>,
    /// KV-cache sizing for the transferred prefix. Model-dependent only —
    /// any device's [`MemoryModel`] for the served model gives the same
    /// per-token KV bytes.
    pub memory: MemoryModel,
    /// `links[p][d]` prices the handoff from `prefill[p]` to `decode[d]`.
    pub links: Vec<Vec<LinkSpec>>,
}

impl DisaggregationConfig {
    /// A config where every prefill→decode pair rides the same `link`.
    pub fn uniform(
        prefill: Vec<usize>,
        decode: Vec<usize>,
        memory: MemoryModel,
        link: LinkSpec,
    ) -> Self {
        let links = vec![vec![link; decode.len()]; prefill.len()];
        Self {
            prefill,
            decode,
            memory,
            links,
        }
    }
}

/// One KV-cache handoff in flight between a prefill and a decode pod. The
/// [`FleetEvent::KvTransferComplete`] event carries an index into the run's
/// table of these.
struct PendingTransfer {
    id: u64,
    from: usize,
    to: usize,
    bytes: f64,
}

/// Runtime state of a disaggregated run: pod roles, per-prefill-pod
/// completion watermarks, the original request behind every split id, the
/// pending-transfer table, and the per-slot step-chain liveness flags that
/// replace the co-located loop's bulk `advance_to` calls (chains discover
/// prefill completions at their exact step boundaries, so transfers start
/// at the moment the prefix finishes rather than at the next arrival).
struct Disagg {
    cfg: DisaggregationConfig,
    /// Slot index → its row in the link matrix (`None` off the prefill set;
    /// slots commissioned mid-run have no role and receive no traffic).
    prefill_pos: Vec<Option<usize>>,
    /// Per-slot watermark into `driver.completed()` — everything below it
    /// has already been handed off.
    watermark: Vec<usize>,
    /// Original (untrimmed) request behind every split id. Entries persist
    /// to the end of the run: the metrics ledger stitches halves back
    /// together from them.
    originals: BTreeMap<u64, Request>,
    transfers: Vec<PendingTransfer>,
    in_flight: usize,
    /// Whether a `StepCompletion` chain is live for each slot — at most one
    /// pending step event per slot, re-armed on enqueue.
    chain_armed: Vec<bool>,
}

impl Disagg {
    fn new(cfg: DisaggregationConfig, slots: usize) -> Self {
        let mut prefill_pos = vec![None; slots];
        for (row, &slot) in cfg.prefill.iter().enumerate() {
            prefill_pos[slot] = Some(row);
        }
        Self {
            cfg,
            prefill_pos,
            watermark: vec![0; slots],
            originals: BTreeMap::new(),
            transfers: Vec::new(),
            in_flight: 0,
            chain_armed: vec![false; slots],
        }
    }

    /// Ensure a step chain is live for `slot`, scheduling its next step no
    /// earlier than `at` (the current event time — a chain must never pop in
    /// the past).
    fn arm_chain(&mut self, queue: &mut EventQueue, slots: &[Slot], slot: usize, at: f64) {
        if self.chain_armed.len() <= slot {
            self.chain_armed.resize(slot + 1, false);
        }
        if !self.chain_armed[slot] {
            self.chain_armed[slot] = true;
            queue.push(
                at.max(slots[slot].driver.clock_ms()),
                FleetEvent::StepCompletion { slot },
            );
        }
    }

    /// The slot's chain found no more work and lapsed; the next enqueue
    /// re-arms it.
    fn chain_died(&mut self, slot: usize) {
        if let Some(armed) = self.chain_armed.get_mut(slot) {
            *armed = false;
        }
    }

    /// The decode pod with the most free KV budget that could ever admit
    /// `remainder`, ties broken toward the lower slot index. The target is
    /// committed at transfer *start*: the link to it prices the transfer.
    fn pick_decode_pod(&self, slots: &[Slot], remainder: &Request) -> Option<usize> {
        self.cfg
            .decode
            .iter()
            .copied()
            .filter(|&i| {
                i < slots.len() && slots[i].routable() && slots[i].driver.can_ever_admit(remainder)
            })
            .max_by(|&a, &b| {
                slots[a]
                    .driver
                    .kv_headroom_bytes()
                    .total_cmp(&slots[b].driver.kv_headroom_bytes())
                    // Equal headroom: prefer the lower slot index (max_by
                    // keeps the *last* maximum, so order the later index
                    // lower).
                    .then(b.cmp(&a))
            })
    }

    /// Scan `slot`'s newly finished prefill halves and start their KV
    /// transfers. `now` is the current event time: a completion surfaced by
    /// a bulk `advance_to` (fault and control-tick paths) may predate it, so
    /// the landing is clamped to `now` — the event queue stays causal and
    /// decode-pod enqueue order stays nondecreasing.
    fn collect_handoffs(
        &mut self,
        slot: usize,
        slots: &[Slot],
        queue: &mut EventQueue,
        sink: Option<&SharedSink>,
        failed_ids: &mut Vec<u64>,
        now: f64,
    ) {
        let Some(row) = self.prefill_pos.get(slot).copied().flatten() else {
            return;
        };
        let done = slots[slot].driver.completed();
        for finished in done.iter().skip(self.watermark[slot]) {
            let finished_ms = finished.finished_ms;
            let id = finished.request.id;
            // Untrimmed single-token requests finish entirely on the
            // prefill pod and never transfer.
            let Some(original) = self.originals.get(&id).copied() else {
                continue;
            };
            let bytes = self.cfg.memory.kv_bytes(original.prompt_len);
            let remainder = Request {
                id,
                arrival_ms: finished_ms,
                prompt_len: original.prompt_len,
                output_len: original.output_len - 1,
            };
            match self.pick_decode_pod(slots, &remainder) {
                Some(to) => {
                    let col = self
                        .cfg
                        .decode
                        .iter()
                        .position(|&s| s == to)
                        .expect("pick_decode_pod returns configured pods");
                    let transfer_ms = self.cfg.links[row][col].point_to_point_ms(bytes);
                    if let Some(sink) = sink {
                        sink.emit(TraceEvent::KvTransferStarted {
                            id,
                            from: slot,
                            to,
                            bytes,
                            at_ms: finished_ms,
                        });
                    }
                    let transfer = self.transfers.len();
                    self.transfers.push(PendingTransfer {
                        id,
                        from: slot,
                        to,
                        bytes,
                    });
                    self.in_flight += 1;
                    queue.push(
                        (finished_ms + transfer_ms).max(now),
                        FleetEvent::KvTransferComplete { transfer },
                    );
                }
                // No decode pod can ever take the remainder: the request
                // dies here, not silently in a queue.
                None => failed_ids.push(id),
            }
        }
        self.watermark[slot] = done.len();
    }
}

/// The online fleet control plane. See the [module docs](self) for the
/// design; typical use is builder-style:
///
/// ```
/// use samoyeds_gpu_sim::DeviceSpec;
/// use samoyeds_moe::config::MoeModelConfig;
/// use samoyeds_moe::engines::EngineKind;
/// use samoyeds_serve::{
///     FleetConfig, FleetController, SchedulerConfig, SingleGpuBackend, SloAutoscaler,
///     TraceConfig,
/// };
///
/// let scfg = SchedulerConfig::default();
/// let model = MoeModelConfig::qwen2_moe();
/// let single = move || {
///     Box::new(SingleGpuBackend::new(
///         DeviceSpec::a100_40g(),
///         &model,
///         EngineKind::Samoyeds,
///         &scfg,
///     )) as Box<dyn samoyeds_serve::ExecutionBackend>
/// };
/// let fleet = FleetController::new(FleetConfig::default())
///     .with_replica(single())
///     .with_factory(single)
///     .with_autoscaler(SloAutoscaler::new(2_000.0));
/// let trace = TraceConfig { num_requests: 8, ..TraceConfig::default() }.generate();
/// let metrics = fleet.run(&trace);
/// assert_eq!(metrics.completed + metrics.rejected, 8);
/// ```
pub struct FleetController {
    config: FleetConfig,
    initial: Vec<Box<dyn ExecutionBackend>>,
    factory: Option<ReplicaFactory>,
    autoscaler: Box<dyn AutoscalePolicy>,
    sink: Option<SharedSink>,
    faults: FaultSchedule,
    recovery: RecoveryPolicy,
    disagg: Option<DisaggregationConfig>,
}

impl FleetController {
    /// A controller with no replicas yet, a fixed (non-scaling) policy and
    /// no factory. Add replicas with [`Self::with_replica`].
    pub fn new(config: FleetConfig) -> Self {
        Self {
            config,
            initial: Vec::new(),
            factory: None,
            autoscaler: Box::new(NoAutoscale),
            sink: None,
            faults: FaultSchedule::none(),
            recovery: RecoveryPolicy::default(),
            disagg: None,
        }
    }

    /// Install a telemetry sink: the run emits the full request lifecycle
    /// (arrival → routing → admission → step spans → first token →
    /// completion), replica lifecycle (commission, warm-up, drain, retire)
    /// and control-tick observations there. Without one, nothing is emitted
    /// and every metric is bit-identical (pinned by the
    /// `telemetry_equivalence` suite).
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Add one replica to the initial fleet (ready at time zero).
    pub fn with_replica(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.initial.push(backend);
        self
    }

    /// Install the factory scale-out commissions new replicas from. Without
    /// a factory the fleet can only scale in.
    pub fn with_factory(
        mut self,
        factory: impl Fn() -> Box<dyn ExecutionBackend> + 'static,
    ) -> Self {
        self.factory = Some(Box::new(factory));
        self
    }

    /// Install the autoscale policy (default: [`NoAutoscale`]).
    pub fn with_autoscaler(mut self, policy: impl AutoscalePolicy + 'static) -> Self {
        self.autoscaler = Box::new(policy);
        self
    }

    /// Install a fault schedule and the recovery policy that reacts to it.
    /// The schedule is resolved once at run start and injected through the
    /// event queue, so the run stays fully deterministic; an empty schedule
    /// leaves the controller bit-for-bit identical to one without fault
    /// injection (pinned by the `fault_equivalence` suite).
    pub fn with_faults(mut self, schedule: FaultSchedule, recovery: RecoveryPolicy) -> Self {
        self.faults = schedule;
        self.recovery = recovery;
        self
    }

    /// Split the fleet into prefill and decode pods (see
    /// [`DisaggregationConfig`]). A config with an empty decode set is
    /// inert: the run is bit-for-bit the co-located run (pinned by the
    /// `disagg_equivalence` suite).
    pub fn with_disaggregation(mut self, config: DisaggregationConfig) -> Self {
        self.disagg = Some(config);
        self
    }

    /// Statically validate this controller's configuration against the
    /// trace it is about to serve, surfacing *every* problem at once.
    ///
    /// Pure analysis: nothing is simulated, no state is touched, and a
    /// configuration that validates cleanly runs bit-for-bit identically to
    /// one that was never validated. [`Self::run`] calls this first and
    /// panics (via [`ValidationReport::assert_valid`]) on any deny-severity
    /// finding; call it yourself to also render the warnings, which `run`
    /// deliberately does not print.
    ///
    /// Deny codes: `fleet::empty`, `fleet::zero-floor`,
    /// `fleet::ceiling-below-floor`, `fleet::nonpositive-tick`,
    /// `fleet::nonpositive-window`, `fleet::negative-warmup`,
    /// `fleet::zero-drain-cap`, `fleet::unsorted-trace`,
    /// `fault::negative-time`, `fault::replica-out-of-range`,
    /// `fault::negative-duration`, `disagg::empty-role`,
    /// `disagg::role-out-of-range`, `disagg::overlapping-roles`,
    /// `disagg::duplicate-role`, `disagg::link-shape`, `disagg::bad-link`,
    /// `disagg::decode-cannot-hold-model`, `model::top-k-out-of-range`,
    /// `slo::nonpositive`, `slo::unachievable-ttft`. Warning codes:
    /// `fleet::no-capable-replica`, `fault::replica-never-commissioned`,
    /// `fault::empty-partition`, `fault::past-trace-end`,
    /// `disagg::no-decode-pods`, `disagg::unassigned-replica`.
    pub fn validate(&self, trace: &[Request]) -> ValidationReport {
        let mut report = ValidationReport::new();
        let cfg = &self.config;
        let ctx = "FleetConfig";
        if self.initial.is_empty() {
            report.push(Diagnostic::deny(
                "fleet::empty",
                "FleetController",
                "the initial fleet has no replicas",
                "add at least one replica with with_replica(...)",
            ));
        }
        if cfg.min_replicas == 0 {
            report.push(Diagnostic::deny(
                "fleet::zero-floor",
                ctx,
                "min_replicas is 0 — the fleet floor must hold at least one replica",
                "set min_replicas >= 1",
            ));
        }
        if cfg.max_replicas < cfg.min_replicas {
            report.push(Diagnostic::deny(
                "fleet::ceiling-below-floor",
                ctx,
                format!(
                    "max_replicas ({}) is below min_replicas ({}) — the scaling band is empty",
                    cfg.max_replicas, cfg.min_replicas
                ),
                "raise max_replicas or lower min_replicas",
            ));
        }
        if cfg.tick_ms <= 0.0 || cfg.tick_ms.is_nan() {
            report.push(Diagnostic::deny(
                "fleet::nonpositive-tick",
                ctx,
                format!(
                    "tick_ms is {} — the control-tick period must be positive",
                    cfg.tick_ms
                ),
                "set tick_ms > 0",
            ));
        }
        if cfg.window_ms <= 0.0 || cfg.window_ms.is_nan() {
            report.push(Diagnostic::deny(
                "fleet::nonpositive-window",
                ctx,
                format!(
                    "window_ms is {} — the observation window must be positive",
                    cfg.window_ms
                ),
                "set window_ms > 0",
            ));
        }
        if cfg.warmup_ms < 0.0 || cfg.warmup_ms.is_nan() {
            report.push(Diagnostic::deny(
                "fleet::negative-warmup",
                ctx,
                format!(
                    "warmup_ms is {} — warm-up cannot be negative",
                    cfg.warmup_ms
                ),
                "set warmup_ms >= 0",
            ));
        }
        if cfg.max_drain_ticks == 0 {
            report.push(Diagnostic::deny(
                "fleet::zero-drain-cap",
                ctx,
                "max_drain_ticks is 0 — the post-trace drain could never run a single tick",
                "set max_drain_ticks >= 1",
            ));
        }
        if let Some(i) = trace.windows(2).position(|w| {
            w[0].arrival_ms
                .partial_cmp(&w[1].arrival_ms)
                .is_none_or(std::cmp::Ordering::is_gt)
        }) {
            report.push(Diagnostic::deny(
                "fleet::unsorted-trace",
                format!("trace[{}..={}]", i, i + 1),
                format!(
                    "arrival {} ms is followed by {} ms — the trace is not sorted by arrival time",
                    trace[i].arrival_ms,
                    trace[i + 1].arrival_ms
                ),
                "sort the trace by arrival_ms before serving it",
            ));
        }
        // The router picks `top_k` distinct experts per token: a model
        // outside 1..=num_experts would panic mid-run or price no experts.
        let top_k_in_range = |b: &dyn ExecutionBackend| {
            let model = b.model();
            (1..=model.num_experts).contains(&model.top_k)
        };
        for (slot, b) in self.initial.iter().enumerate() {
            if !top_k_in_range(b.as_ref()) {
                let model = b.model();
                report.push(Diagnostic::deny(
                    "model::top-k-out-of-range",
                    format!("replica {slot}"),
                    format!(
                        "{} routes each token to top_k = {} of {} experts — the router needs \
                         1 <= top_k <= num_experts",
                        b.describe(),
                        model.top_k,
                        model.num_experts
                    ),
                    "set the model's top_k between 1 and num_experts",
                ));
            }
        }
        let capable =
            |b: &dyn ExecutionBackend| b.supports(b.model()) && b.memory().can_hold_model();
        if !self.initial.is_empty() && !self.initial.iter().any(|b| capable(b.as_ref())) {
            report.push(Diagnostic::warning(
                "fleet::no-capable-replica",
                "FleetController",
                "no initial replica both supports its model and fits its weights — every \
                 request is unroutable until a scale-out commissions a capable replica",
                "check the engine/model pairing and memory budgets of the initial fleet",
            ));
        }

        // Fault schedule: resolve() is pure and deterministic, so the list
        // inspected here is exactly the list run() will inject.
        let trace_end_ms = trace.last().map(|r| r.arrival_ms);
        let replica_in_range =
            |replica: usize, fault_ctx: &str, report: &mut ValidationReport| {
                if replica >= cfg.max_replicas
                    || (replica >= self.initial.len() && self.factory.is_none())
                {
                    report.push(Diagnostic::deny(
                        "fault::replica-out-of-range",
                        fault_ctx.to_string(),
                        format!(
                        "replica {replica} can never exist: the initial fleet has {} replicas, \
                         max_replicas is {} and a scale-out factory is {}",
                        self.initial.len(),
                        cfg.max_replicas,
                        if self.factory.is_some() { "installed" } else { "not installed" }
                    ),
                        "target a replica slot the fleet can actually commission",
                    ));
                } else if replica >= self.initial.len() {
                    report.push(Diagnostic::warning(
                        "fault::replica-never-commissioned",
                        fault_ctx.to_string(),
                        format!(
                            "replica {replica} is beyond the initial fleet of {} — the fault is a \
                         no-op unless autoscaling has commissioned that slot by then",
                            self.initial.len()
                        ),
                        "confirm the autoscaler can plausibly reach that fleet size first",
                    ));
                }
            };
        for (i, spec) in self.faults.resolve(self.initial.len()).iter().enumerate() {
            let fault_ctx = format!("fault[{i}] {} at {} ms", spec.kind.label(), spec.at_ms);
            if spec.at_ms < 0.0 || spec.at_ms.is_nan() {
                report.push(Diagnostic::deny(
                    "fault::negative-time",
                    fault_ctx.clone(),
                    format!(
                        "injection time {} ms is before the start of the run",
                        spec.at_ms
                    ),
                    "schedule faults at t >= 0",
                ));
            }
            match &spec.kind {
                FaultKind::ReplicaCrash { replica } => {
                    replica_in_range(*replica, &fault_ctx, &mut report);
                }
                FaultKind::LinkDegrade {
                    replica,
                    duration_ms,
                } => {
                    replica_in_range(*replica, &fault_ctx, &mut report);
                    if *duration_ms < 0.0 || duration_ms.is_nan() {
                        report.push(Diagnostic::deny(
                            "fault::negative-duration",
                            fault_ctx.clone(),
                            format!(
                                "degradation lasts {duration_ms} ms — durations cannot be negative"
                            ),
                            "use a duration >= 0 (zero is a deterministic no-op)",
                        ));
                    }
                }
                FaultKind::IslandPartition {
                    replicas,
                    duration_ms,
                    ..
                } => {
                    for &replica in replicas {
                        replica_in_range(replica, &fault_ctx, &mut report);
                    }
                    if replicas.is_empty() {
                        report.push(Diagnostic::warning(
                            "fault::empty-partition",
                            fault_ctx.clone(),
                            "the partition lists no replicas — it can never affect the fleet"
                                .to_string(),
                            "list the replica slots on the partitioned island",
                        ));
                    }
                    if *duration_ms < 0.0 || duration_ms.is_nan() {
                        report.push(Diagnostic::deny(
                            "fault::negative-duration",
                            fault_ctx.clone(),
                            format!(
                                "partition lasts {duration_ms} ms — durations cannot be negative"
                            ),
                            "use a duration >= 0 (zero is a deterministic no-op)",
                        ));
                    }
                }
            }
            if trace_end_ms.is_none_or(|end| spec.at_ms > end) {
                report.push(Diagnostic::warning(
                    "fault::past-trace-end",
                    fault_ctx,
                    format!(
                        "the fault fires after the last arrival ({} ms) — it can only affect \
                         the post-trace drain",
                        trace_end_ms.unwrap_or(0.0)
                    ),
                    "move the fault before the end of the trace if it should hit live traffic",
                ));
            }
        }

        // Disaggregation: roles must name real replicas, each at most once
        // and in one role only, the link matrix must cover every
        // prefill×decode pair, and every decode pod must be able to hold the
        // model it decodes for — otherwise every handoff to it would fail at
        // admission.
        if let Some(d) = &self.disagg {
            let dctx = "DisaggregationConfig";
            if d.decode.is_empty() {
                report.push(Diagnostic::warning(
                    "disagg::no-decode-pods",
                    dctx,
                    "the decode set is empty — the fleet runs co-located and no KV transfer \
                     is ever priced",
                    "list at least one decode pod, or drop with_disaggregation entirely",
                ));
            } else {
                if d.prefill.is_empty() {
                    report.push(Diagnostic::deny(
                        "disagg::empty-role",
                        dctx,
                        "decode pods are configured but the prefill set is empty — no request \
                         could ever be admitted",
                        "list at least one prefill pod",
                    ));
                }
                for &slot in d.prefill.iter().chain(&d.decode) {
                    if slot >= self.initial.len() {
                        report.push(Diagnostic::deny(
                            "disagg::role-out-of-range",
                            dctx,
                            format!(
                                "replica {slot} has a pod role but the initial fleet has only \
                                 {} replicas — roles bind to initial replicas",
                                self.initial.len()
                            ),
                            "assign roles to initial replica indices only",
                        ));
                    }
                }
                for (role, pods) in [("prefill", &d.prefill), ("decode", &d.decode)] {
                    let mut seen = BTreeSet::new();
                    let repeated: BTreeSet<usize> = pods
                        .iter()
                        .copied()
                        .filter(|&slot| !seen.insert(slot))
                        .collect();
                    for slot in repeated {
                        report.push(Diagnostic::deny(
                            "disagg::duplicate-role",
                            dctx,
                            format!(
                                "replica {slot} is listed more than once as a {role} pod — \
                                 the repeat skews dispatch and leaves part of the link \
                                 matrix unused"
                            ),
                            format!("list each {role} pod once"),
                        ));
                    }
                }
                for &slot in &d.decode {
                    if d.prefill.contains(&slot) {
                        report.push(Diagnostic::deny(
                            "disagg::overlapping-roles",
                            dctx,
                            format!(
                                "replica {slot} is listed as both a prefill and a decode pod — \
                                 roles must partition the fleet"
                            ),
                            "give each replica exactly one role",
                        ));
                    }
                }
                if d.links.len() != d.prefill.len()
                    || d.links.iter().any(|row| row.len() != d.decode.len())
                {
                    report.push(Diagnostic::deny(
                        "disagg::link-shape",
                        dctx,
                        format!(
                            "the link matrix is {}×{} but {} prefill × {} decode pods are \
                             configured",
                            d.links.len(),
                            d.links.first().map_or(0, Vec::len),
                            d.prefill.len(),
                            d.decode.len()
                        ),
                        "provide one LinkSpec per prefill×decode pair \
                         (DisaggregationConfig::uniform builds a uniform matrix)",
                    ));
                } else if d.links.iter().flatten().any(|l| {
                    !l.latency_us.is_finite()
                        || l.latency_us < 0.0
                        || l.bandwidth_gbps.is_nan()
                        || l.bandwidth_gbps <= 0.0
                }) {
                    report.push(Diagnostic::deny(
                        "disagg::bad-link",
                        dctx,
                        "a KV link has a negative or non-finite latency, or a non-positive \
                         bandwidth",
                        "use finite latency_us >= 0 and bandwidth_gbps > 0",
                    ));
                }
                for &slot in &d.decode {
                    if slot < self.initial.len() && !capable(self.initial[slot].as_ref()) {
                        report.push(Diagnostic::deny(
                            "disagg::decode-cannot-hold-model",
                            dctx,
                            format!(
                                "decode pod {slot} ({}) cannot hold the model it would decode \
                                 for — every handoff to it would fail",
                                self.initial[slot].describe()
                            ),
                            "give decode pods an engine/device pairing that fits the weights",
                        ));
                    }
                }
                for slot in 0..self.initial.len() {
                    if !d.prefill.contains(&slot) && !d.decode.contains(&slot) {
                        report.push(Diagnostic::warning(
                            "disagg::unassigned-replica",
                            dctx,
                            format!(
                                "initial replica {slot} has no pod role — it is commissioned \
                                 but never receives traffic"
                            ),
                            "assign it a role or remove it from the fleet",
                        ));
                    }
                }
            }
        }

        // SLO sanity: a p95-TTFT target below the *best single step* any
        // capable replica can execute is unachievable at any fleet size —
        // adding replicas never makes one step faster.
        if let Some(slo) = self.autoscaler.ttft_slo_ms() {
            let slo_ctx = self.autoscaler.name();
            if slo <= 0.0 || slo.is_nan() {
                report.push(Diagnostic::deny(
                    "slo::nonpositive",
                    slo_ctx,
                    format!("the TTFT SLO is {slo} ms — targets must be positive"),
                    "set a positive SLO",
                ));
            } else {
                // The physical floor: one request, one-token prompt, alone
                // on the fastest capable replica.
                let batch = StepBatch {
                    prefill: vec![(0, 1)],
                    decode: Vec::new(),
                };
                let running = [RunningRequest::new(
                    Request {
                        id: u64::MAX,
                        arrival_ms: 0.0,
                        prompt_len: 1,
                        output_len: 1,
                    },
                    0.0,
                )];
                let workload = StepWorkload {
                    batch: &batch,
                    running: &running,
                    step_index: 0,
                };
                let floor = self
                    .initial
                    .iter()
                    .filter(|b| capable(b.as_ref()) && top_k_in_range(b.as_ref()))
                    .map(|b| b.step_cost(&workload).total_ms())
                    .min_by(f64::total_cmp);
                if let Some(floor) = floor {
                    if slo < floor {
                        report.push(Diagnostic::deny(
                            "slo::unachievable-ttft",
                            slo_ctx,
                            format!(
                                "the TTFT SLO of {slo} ms is below {floor:.3} ms, the fastest \
                                 single step any capable replica can execute — no fleet size \
                                 can meet it and the autoscaler would scale out forever",
                            ),
                            "raise the SLO above the minimum step cost or use faster replicas",
                        ));
                    }
                }
            }
        }
        report
    }

    /// Serve `trace` (sorted by arrival) to completion and return the fleet
    /// metrics, including per-replica breakdowns and the scaling timeline.
    ///
    /// This is a next-event loop over an [`EventQueue`]: arrivals, step
    /// completions, control ticks, warm-up completions and drain
    /// retirements pop in timestamp order (same-time ties broken by event
    /// class, reproducing the legacy tick loop's interleaving) and simulated
    /// time jumps straight between them. The tick schedule exists only while
    /// the policy wants it ([`AutoscalePolicy::consults_ticks`]); tick `k`
    /// fires at exactly `k * tick_ms` — derived per tick, never accumulated,
    /// so the schedule cannot drift over long traces. If the post-trace
    /// drain exceeds [`FleetConfig::max_drain_ticks`], the run returns
    /// degraded metrics with [`FleetMetrics::drain_incomplete`] set instead
    /// of panicking.
    ///
    /// # Panics
    /// Panics if [`Self::validate`] finds any deny-severity diagnostic —
    /// empty fleet, degenerate control-plane knobs, an unsorted trace, a
    /// fault targeting a replica that can never exist, or an unachievable
    /// SLO. Unlike an assert chain, the panic message lists *every* problem
    /// at once.
    pub fn run(mut self, trace: &[Request]) -> FleetMetrics {
        self.validate(trace).assert_valid();

        let scfg = self.config.scheduler;
        let mut slots: Vec<Slot> = self
            .initial
            .drain(..)
            .map(|backend| Slot::new(backend, scfg, 0.0, 0.0, false))
            .collect();
        if let Some(sink) = &self.sink {
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.driver.attach_sink(sink.clone(), i);
                sink.emit(TraceEvent::ReplicaCommissioned {
                    replica: i,
                    at_ms: 0.0,
                    ready_ms: 0.0,
                });
            }
        }
        // Disaggregation is active only when decode pods exist; a ratio-0
        // config (empty decode set) takes the co-located code path below
        // bit-for-bit (pinned by the `disagg_equivalence` suite).
        let mut disagg: Option<Disagg> = self
            .disagg
            .take()
            .filter(|d| !d.decode.is_empty())
            .map(|cfg| Disagg::new(cfg, slots.len()));
        let mut events: Vec<ScaleEvent> = Vec::new();
        let mut unroutable: Vec<u64> = Vec::new();
        let mut failed_ids: Vec<u64> = Vec::new();
        let mut peak_replicas = slots.len();
        let mut rr_cursor = 0usize;
        let mut next_arrival = 0usize;
        let mut drain_ticks = 0usize;
        let mut drain_incomplete = false;
        let mut drain_incomplete_replicas: Vec<usize> = Vec::new();

        let ticks = self.autoscaler.consults_ticks();
        let mut queue = EventQueue::new();
        if let Some(first) = trace.first() {
            queue.push(first.arrival_ms, FleetEvent::Arrival { index: 0 });
        }
        if ticks {
            queue.push(self.config.tick_ms, FleetEvent::ControlTick { index: 1 });
        }

        // Resolve the fault schedule once (deterministic) and inject every
        // fault as an ordinary event. An empty schedule pushes nothing: the
        // event stream — and therefore the whole run — is exactly the
        // no-fault-injection stream.
        let fault_specs: Vec<FaultSpec> = self.faults.resolve(slots.len());
        let mut fault_records: Vec<FaultRecord> = fault_specs
            .iter()
            .map(|spec| FaultRecord {
                at_ms: spec.at_ms,
                kind: spec.kind.clone(),
                lost_queued: 0,
                lost_running: 0,
                readmitted: 0,
                failed: 0,
                replacement: None,
                recovered_at_ms: None,
            })
            .collect();
        // Per-fault re-admission buffer (crashes) and the slots a fault
        // actually degraded (degrades/partitions), so its recovery restores
        // exactly what it broke — overlapping degradations are counted, not
        // clobbered.
        let mut readmit_buffers: Vec<Vec<Request>> = vec![Vec::new(); fault_specs.len()];
        let mut degraded_sets: Vec<Vec<usize>> = vec![Vec::new(); fault_specs.len()];
        // Crash recoveries still in flight: the tick schedule must outlive
        // them, or buffered requests re-admitted after the fleet drained
        // would never be driven (and would vanish from the conservation
        // ledger). Zero on the no-faults path, where the condition is inert.
        let mut pending_readmissions = 0usize;
        for (index, spec) in fault_specs.iter().enumerate() {
            queue.push(spec.at_ms, FleetEvent::Fault { index });
        }

        let mut eligible: Vec<usize> = Vec::new();
        while let Some((at, event)) = queue.pop() {
            match event {
                FleetEvent::WarmupComplete { slot } => {
                    // Sorts before any tick or arrival at the same instant:
                    // the replica is routable the moment warm-up lands. Late
                    // events for already-retired slots are harmless flips.
                    if slots[slot].warming {
                        if let Some(sink) = &self.sink {
                            sink.emit(TraceEvent::WarmupComplete {
                                replica: slot,
                                at_ms: at,
                            });
                        }
                    }
                    slots[slot].warming = false;
                }
                FleetEvent::DrainRetire { slot } => {
                    if slots[slot].retired_ms.is_none() {
                        slots[slot].retired_ms = Some(at);
                        if let Some(sink) = &self.sink {
                            sink.emit(TraceEvent::Retired {
                                replica: slot,
                                at_ms: at,
                            });
                        }
                    }
                }
                FleetEvent::Fault { index } => {
                    let kind = fault_specs[index].kind.clone();
                    match kind {
                        FaultKind::ReplicaCrash { replica } => {
                            if replica >= slots.len() || slots[replica].retired_ms.is_some() {
                                // Crashing a replica that never existed or
                                // already left the fleet is a no-op.
                                continue;
                            }
                            // Work the replica finished before the crash
                            // survives; everything in flight is ripped out.
                            slots[replica].driver.advance_to(at);
                            if let Some(d) = disagg.as_mut() {
                                // Prefill halves that finished before the
                                // crash still hold their KV: hand them off
                                // before the in-flight rip-out below.
                                d.collect_handoffs(
                                    replica,
                                    &slots,
                                    &mut queue,
                                    self.sink.as_ref(),
                                    &mut failed_ids,
                                    at,
                                );
                            }
                            let (running, queued) = slots[replica].driver.take_inflight();
                            slots[replica].crashed = true;
                            slots[replica].retired_ms = Some(at);
                            let record = &mut fault_records[index];
                            record.lost_running = running.len();
                            record.lost_queued = queued.len();
                            if let Some(sink) = &self.sink {
                                sink.emit(TraceEvent::ReplicaCrashed {
                                    replica,
                                    at_ms: at,
                                    lost_running: running.len(),
                                    lost_queued: queued.len(),
                                });
                            }
                            let lost: Vec<Request> = running.into_iter().chain(queued).collect();
                            if self.recovery.readmit {
                                // Survivors take over once the weight
                                // transfer lands; the recovery event routes
                                // the buffered requests.
                                readmit_buffers[index] = lost;
                                pending_readmissions += 1;
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::RecoveryStarted {
                                        replica,
                                        at_ms: at,
                                        transfer_ms: self.recovery.transfer_ms,
                                    });
                                }
                                queue.push(
                                    at + self.recovery.transfer_ms,
                                    FleetEvent::FaultRecovery { index },
                                );
                            } else {
                                record.failed = lost.len();
                                failed_ids.extend(lost.iter().map(|r| r.id));
                            }
                            if self.recovery.replace {
                                if let Some(factory) = &self.factory {
                                    let commissioned =
                                        slots.iter().filter(|s| s.commissioned()).count();
                                    if commissioned < self.config.max_replicas {
                                        // Cold replacement through the normal
                                        // warm-up path, plus the weight
                                        // transfer on top.
                                        let ready =
                                            at + self.config.warmup_ms + self.recovery.transfer_ms;
                                        let mut slot = Slot::new(factory(), scfg, at, ready, true);
                                        if let Some(sink) = &self.sink {
                                            slot.driver.attach_sink(sink.clone(), slots.len());
                                            sink.emit(TraceEvent::ReplicaCommissioned {
                                                replica: slots.len(),
                                                at_ms: at,
                                                ready_ms: ready,
                                            });
                                        }
                                        slots.push(slot);
                                        queue.push(
                                            ready,
                                            FleetEvent::WarmupComplete {
                                                slot: slots.len() - 1,
                                            },
                                        );
                                        let record = &mut fault_records[index];
                                        record.replacement = Some(slots.len() - 1);
                                        record.recovered_at_ms = Some(ready);
                                        peak_replicas = peak_replicas
                                            .max(slots.iter().filter(|s| s.commissioned()).count());
                                    }
                                }
                            }
                        }
                        FaultKind::LinkDegrade {
                            replica,
                            duration_ms,
                        } => {
                            if replica < slots.len() && slots[replica].retired_ms.is_none() {
                                slots[replica].degraded += 1;
                                degraded_sets[index].push(replica);
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::LinkDegraded {
                                        replica,
                                        at_ms: at,
                                        until_ms: at + duration_ms,
                                    });
                                }
                                queue.push(at + duration_ms, FleetEvent::FaultRecovery { index });
                            }
                        }
                        FaultKind::IslandPartition {
                            island,
                            replicas,
                            duration_ms,
                        } => {
                            for &replica in &replicas {
                                if replica < slots.len() && slots[replica].retired_ms.is_none() {
                                    slots[replica].degraded += 1;
                                    degraded_sets[index].push(replica);
                                }
                            }
                            if !degraded_sets[index].is_empty() {
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::IslandPartitioned {
                                        island,
                                        replicas: degraded_sets[index].len(),
                                        at_ms: at,
                                        until_ms: at + duration_ms,
                                    });
                                }
                                queue.push(at + duration_ms, FleetEvent::FaultRecovery { index });
                            }
                        }
                    }
                }
                FleetEvent::FaultRecovery { index } => match &fault_specs[index].kind {
                    FaultKind::ReplicaCrash { replica } => {
                        let lost = std::mem::take(&mut readmit_buffers[index]);
                        pending_readmissions -= 1;
                        // Route the buffered requests exactly like fresh
                        // arrivals at the recovery instant: advance the
                        // fleet, filter eligibility, apply the dispatch
                        // policy. The latency clock restarts here — the
                        // request re-enters the fleet now (which also keeps
                        // enqueue order nondecreasing on the new replica).
                        for slot in slots.iter_mut() {
                            slot.driver.advance_to(at);
                        }
                        if let Some(d) = disagg.as_mut() {
                            // The bulk advance may have surfaced prefill
                            // completions; start their transfers (landings
                            // clamped to `at`).
                            for i in 0..slots.len() {
                                d.collect_handoffs(
                                    i,
                                    &slots,
                                    &mut queue,
                                    self.sink.as_ref(),
                                    &mut failed_ids,
                                    at,
                                );
                            }
                        }
                        let mut readmitted = 0usize;
                        let mut failed = 0usize;
                        for request in lost {
                            let moved = match disagg.as_ref() {
                                // Disaggregated survivors re-enter through a
                                // prefill pod. A split request restarts as
                                // its prefill half — the transferred KV died
                                // with the pod, so the prompt recomputes and
                                // hands off again when it finishes.
                                Some(d) if d.originals.contains_key(&request.id) => Request {
                                    arrival_ms: at,
                                    output_len: 1,
                                    ..request
                                },
                                _ => Request {
                                    arrival_ms: at,
                                    ..request
                                },
                            };
                            eligible.clear();
                            match disagg.as_ref() {
                                Some(d) => {
                                    eligible.extend(d.cfg.prefill.iter().copied().filter(|&i| {
                                        slots[i].routable()
                                            && slots[i].driver.can_ever_admit(&moved)
                                    }))
                                }
                                None => eligible.extend(
                                    slots
                                        .iter()
                                        .enumerate()
                                        .filter(|(_, slot)| {
                                            slot.routable() && slot.driver.can_ever_admit(&moved)
                                        })
                                        .map(|(i, _)| i),
                                ),
                            }
                            match pick_replica(self.config.policy, &eligible, &mut rr_cursor, |i| {
                                slots[i].driver.outstanding_tokens()
                            }) {
                                Some(target) => {
                                    if let Some(sink) = &self.sink {
                                        sink.emit(TraceEvent::Routed {
                                            id: moved.id,
                                            replica: target,
                                            at_ms: at,
                                        });
                                    }
                                    slots[target].driver.enqueue(moved);
                                    slots[target].assigned_ids.push(moved.id);
                                    if let Some(d) = disagg.as_mut() {
                                        d.arm_chain(&mut queue, &slots, target, at);
                                    }
                                    readmitted += 1;
                                }
                                None => {
                                    failed += 1;
                                    failed_ids.push(moved.id);
                                }
                            }
                        }
                        let record = &mut fault_records[index];
                        record.readmitted = readmitted;
                        record.failed += failed;
                        record.recovered_at_ms =
                            Some(record.recovered_at_ms.map_or(at, |r| r.max(at)));
                        if let Some(sink) = &self.sink {
                            sink.emit(TraceEvent::RecoveryComplete {
                                replica: *replica,
                                at_ms: at,
                                readmitted,
                                failed,
                            });
                        }
                        if !ticks && next_arrival >= trace.len() && disagg.is_none() {
                            // No tick schedule and no arrivals left to
                            // restart the step chains: re-arm them for every
                            // replica that now holds work. (A replica with an
                            // already-live chain just drains through two
                            // interleaved chains — step_once is state-driven,
                            // so the duplicate is harmless and deterministic.)
                            // Disaggregated runs skip this: their chains are
                            // armed at every enqueue and tracked per slot.
                            for (i, slot) in slots.iter().enumerate() {
                                if !slot.driver.is_drained() {
                                    queue.push(
                                        slot.driver.clock_ms(),
                                        FleetEvent::StepCompletion { slot: i },
                                    );
                                }
                            }
                        }
                    }
                    FaultKind::LinkDegrade { .. } | FaultKind::IslandPartition { .. } => {
                        // Restore exactly the links this fault degraded;
                        // overlapping degradations keep the slot un-routable
                        // until the last one clears.
                        for &replica in &degraded_sets[index] {
                            slots[replica].degraded = slots[replica].degraded.saturating_sub(1);
                            if let Some(sink) = &self.sink {
                                sink.emit(TraceEvent::LinkRestored { replica, at_ms: at });
                            }
                        }
                        if !degraded_sets[index].is_empty() {
                            fault_records[index].recovered_at_ms = Some(at);
                        }
                    }
                },
                FleetEvent::ControlTick { index } => {
                    // Derived, never accumulated: tick k is exactly
                    // k * tick_ms, so 10^6 ticks land where tick 10^6
                    // should, not where 10^6 rounded additions drifted to.
                    let t = index as f64 * self.config.tick_ms;
                    let trace_done = next_arrival >= trace.len();
                    if trace_done
                        && pending_readmissions == 0
                        && disagg.as_ref().is_none_or(|d| d.in_flight == 0)
                        && slots.iter().all(|s| s.driver.is_drained())
                    {
                        // The legacy drain loop stopped ticking here; drop
                        // the schedule and let remaining events drain.
                        continue;
                    }
                    control_tick(
                        t,
                        &self.config,
                        self.autoscaler.as_mut(),
                        self.factory.as_deref(),
                        &mut slots,
                        &mut events,
                        &mut peak_replicas,
                        &mut queue,
                        self.sink.as_ref(),
                    );
                    if let Some(d) = disagg.as_mut() {
                        // The tick's bulk advance may have surfaced prefill
                        // completions; start their transfers (landings
                        // clamped to `t`).
                        for i in 0..slots.len() {
                            d.collect_handoffs(
                                i,
                                &slots,
                                &mut queue,
                                self.sink.as_ref(),
                                &mut failed_ids,
                                t,
                            );
                        }
                    }
                    if trace_done {
                        drain_ticks += 1;
                        if drain_ticks >= self.config.max_drain_ticks
                            && slots.iter().any(|s| !s.driver.is_drained())
                        {
                            drain_incomplete = true;
                            drain_incomplete_replicas = slots
                                .iter()
                                .enumerate()
                                .filter(|(_, s)| !s.driver.is_drained())
                                .map(|(i, _)| i)
                                .collect();
                            continue; // stop the schedule; degraded metrics
                        }
                    }
                    queue.push(
                        (index + 1) as f64 * self.config.tick_ms,
                        FleetEvent::ControlTick { index: index + 1 },
                    );
                }
                FleetEvent::Arrival { index } => {
                    let request = &trace[index];
                    if let Some(sink) = &self.sink {
                        sink.emit(TraceEvent::Arrival {
                            id: request.id,
                            at_ms: request.arrival_ms,
                        });
                    }
                    if let Some(d) = disagg.as_mut() {
                        // Disaggregated routing: prefill pods only. The
                        // prefill half runs the prompt and produces the
                        // first output token (the final prefill forward);
                        // the rest of the generation decodes elsewhere after
                        // the KV handoff. Slots are not bulk-advanced here —
                        // their step chains drive them, which is what lets
                        // prefill completions surface at exact step
                        // boundaries instead of at the next arrival.
                        let sub = if request.output_len > 1 {
                            Request {
                                output_len: 1,
                                ..*request
                            }
                        } else {
                            *request
                        };
                        eligible.clear();
                        eligible.extend(d.cfg.prefill.iter().copied().filter(|&i| {
                            slots[i].routable() && slots[i].driver.can_ever_admit(&sub)
                        }));
                        let picked =
                            pick_replica(self.config.policy, &eligible, &mut rr_cursor, |i| {
                                slots[i].driver.outstanding_tokens()
                            });
                        match picked {
                            Some(target) => {
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::Routed {
                                        id: request.id,
                                        replica: target,
                                        at_ms: request.arrival_ms,
                                    });
                                }
                                if request.output_len > 1 {
                                    d.originals.insert(request.id, *request);
                                }
                                slots[target].driver.enqueue(sub);
                                slots[target].assigned_ids.push(request.id);
                                d.arm_chain(&mut queue, &slots, target, request.arrival_ms);
                            }
                            None => {
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::Unroutable {
                                        id: request.id,
                                        at_ms: request.arrival_ms,
                                    });
                                }
                                unroutable.push(request.id);
                            }
                        }
                    } else {
                        for slot in slots.iter_mut() {
                            slot.driver.advance_to(request.arrival_ms);
                        }

                        // Capability-aware routing from live state: ready,
                        // not draining, kernels support the model, and the
                        // memory budget could ever admit the request.
                        eligible.clear();
                        eligible.extend(
                            slots
                                .iter()
                                .enumerate()
                                .filter(|(_, slot)| {
                                    slot.routable() && slot.driver.can_ever_admit(request)
                                })
                                .map(|(i, _)| i),
                        );
                        let picked =
                            pick_replica(self.config.policy, &eligible, &mut rr_cursor, |i| {
                                slots[i].driver.outstanding_tokens()
                            });
                        match picked {
                            Some(target) => {
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::Routed {
                                        id: request.id,
                                        replica: target,
                                        at_ms: request.arrival_ms,
                                    });
                                }
                                slots[target].driver.enqueue(*request);
                                slots[target].assigned_ids.push(request.id);
                            }
                            None => {
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::Unroutable {
                                        id: request.id,
                                        at_ms: request.arrival_ms,
                                    });
                                }
                                unroutable.push(request.id);
                            }
                        }
                    }

                    next_arrival = index + 1;
                    if let Some(next) = trace.get(next_arrival) {
                        queue.push(
                            next.arrival_ms,
                            FleetEvent::Arrival {
                                index: next_arrival,
                            },
                        );
                    } else if !ticks && disagg.is_none() {
                        // No tick schedule to advance the fleet: drain each
                        // replica one step completion at a time. (A
                        // disaggregated fleet is already chain-driven and
                        // skips this.)
                        for (i, slot) in slots.iter().enumerate() {
                            if !slot.driver.is_drained() {
                                queue.push(
                                    slot.driver.clock_ms(),
                                    FleetEvent::StepCompletion { slot: i },
                                );
                            }
                        }
                    }
                }
                FleetEvent::KvTransferComplete { transfer } => {
                    let d = disagg
                        .as_mut()
                        .expect("transfer events exist only on disaggregated runs");
                    let PendingTransfer {
                        id,
                        from,
                        to,
                        bytes,
                    } = d.transfers[transfer];
                    d.in_flight -= 1;
                    let original = d.originals[&id];
                    let remainder = Request {
                        id,
                        arrival_ms: at,
                        prompt_len: original.prompt_len,
                        output_len: original.output_len - 1,
                    };
                    if slots[to].routable() && slots[to].driver.can_ever_admit(&remainder) {
                        if let Some(sink) = &self.sink {
                            sink.emit(TraceEvent::KvTransferComplete {
                                id,
                                from,
                                to,
                                bytes,
                                at_ms: at,
                            });
                        }
                        slots[to].driver.enqueue_handoff(remainder);
                        slots[to].assigned_ids.push(id);
                        d.arm_chain(&mut queue, &slots, to, at);
                    } else if self.recovery.readmit {
                        // The decode pod died (or went unroutable) while the
                        // KV was on the wire. The prefix still lives on the
                        // prefill pod, so re-transfer to another decode pod.
                        match d.pick_decode_pod(&slots, &remainder) {
                            Some(next) => {
                                let row = d
                                    .prefill_pos
                                    .get(from)
                                    .copied()
                                    .flatten()
                                    .expect("transfers originate on prefill pods");
                                let col = d
                                    .cfg
                                    .decode
                                    .iter()
                                    .position(|&s| s == next)
                                    .expect("pick_decode_pod returns configured pods");
                                let transfer_ms = d.cfg.links[row][col].point_to_point_ms(bytes);
                                if let Some(sink) = &self.sink {
                                    sink.emit(TraceEvent::KvTransferStarted {
                                        id,
                                        from,
                                        to: next,
                                        bytes,
                                        at_ms: at,
                                    });
                                }
                                let retry = d.transfers.len();
                                d.transfers.push(PendingTransfer {
                                    id,
                                    from,
                                    to: next,
                                    bytes,
                                });
                                d.in_flight += 1;
                                queue.push(
                                    at + transfer_ms,
                                    FleetEvent::KvTransferComplete { transfer: retry },
                                );
                            }
                            None => failed_ids.push(id),
                        }
                    } else {
                        failed_ids.push(id);
                    }
                }
                FleetEvent::StepCompletion { slot } => {
                    if slots[slot].driver.step_once() {
                        queue.push(
                            slots[slot].driver.clock_ms(),
                            FleetEvent::StepCompletion { slot },
                        );
                    } else if let Some(d) = disagg.as_mut() {
                        d.chain_died(slot);
                    }
                    if let Some(d) = disagg.as_mut() {
                        d.collect_handoffs(
                            slot,
                            &slots,
                            &mut queue,
                            self.sink.as_ref(),
                            &mut failed_ids,
                            at,
                        );
                    }
                }
            }
        }

        let ledger = disagg.map(|d| DisaggLedger {
            originals: d.originals,
            decode: d.cfg.decode,
        });
        finalize(
            slots,
            events,
            unroutable,
            failed_ids,
            fault_records,
            peak_replicas,
            drain_incomplete,
            drain_incomplete_replicas,
            ledger,
        )
    }
}

/// One control tick: advance every replica to `t`, retire drained draining
/// replicas, observe, and apply the autoscale decision.
#[allow(clippy::too_many_arguments)]
fn control_tick(
    t: f64,
    config: &FleetConfig,
    autoscaler: &mut dyn AutoscalePolicy,
    factory: Option<&dyn Fn() -> Box<dyn ExecutionBackend>>,
    slots: &mut Vec<Slot>,
    events: &mut Vec<ScaleEvent>,
    peak_replicas: &mut usize,
    queue: &mut EventQueue,
    sink: Option<&SharedSink>,
) {
    for (i, slot) in slots.iter_mut().enumerate() {
        slot.driver.advance_to(t);
        if slot.draining && slot.retired_ms.is_none() && slot.driver.is_drained() {
            queue.push(t, FleetEvent::DrainRetire { slot: i });
        }
    }
    // Retirements scheduled at this very tick must land before the
    // observation below — the legacy loop retired before observing.
    while let Some((at, FleetEvent::DrainRetire { slot })) =
        queue.pop_if(|at, e| at == t && matches!(e, FleetEvent::DrainRetire { .. }))
    {
        if slots[slot].retired_ms.is_none() {
            slots[slot].retired_ms = Some(at);
            if let Some(sink) = sink {
                sink.emit(TraceEvent::Retired {
                    replica: slot,
                    at_ms: at,
                });
            }
        }
    }

    let obs = observe(t, config, slots);
    if let Some(sink) = sink {
        // What the autoscale policy is about to see — the gauge row the
        // metrics registry snapshots its per-replica time series at.
        sink.emit(TraceEvent::ControlTick {
            at_ms: t,
            routable: obs.routable_replicas,
            warming: obs.warming_replicas,
            p95_ttft_ms: obs.p95_ttft_ms,
            utilization: obs.utilization,
            queued: obs.queued_requests,
            outstanding_tokens: obs.outstanding_tokens,
        });
    }
    match autoscaler.decide(&obs) {
        ScaleDecision::Hold => {}
        ScaleDecision::ScaleOut => {
            let commissioned = slots.iter().filter(|s| s.commissioned()).count();
            if commissioned < config.max_replicas {
                if let Some(factory) = factory {
                    let mut slot =
                        Slot::new(factory(), config.scheduler, t, t + config.warmup_ms, true);
                    if let Some(sink) = sink {
                        slot.driver.attach_sink((*sink).clone(), slots.len());
                        sink.emit(TraceEvent::ReplicaCommissioned {
                            replica: slots.len(),
                            at_ms: t,
                            ready_ms: t + config.warmup_ms,
                        });
                        sink.emit(TraceEvent::ScaleOut {
                            at_ms: t,
                            replicas_after: commissioned + 1,
                        });
                    }
                    slots.push(slot);
                    // Even a zero-length warm-up goes through the queue: its
                    // completion sorts before every other event at `t`, so
                    // the replica is routable for same-instant arrivals.
                    queue.push(
                        t + config.warmup_ms,
                        FleetEvent::WarmupComplete {
                            slot: slots.len() - 1,
                        },
                    );
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
            // The floor is counted over replicas that can actually *serve*
            // the model: draining must never remove the last capable
            // replica (a heterogeneous fleet may carry dead weight whose
            // kernels or weights can never admit anything, and that dead
            // weight must not satisfy the floor). Warming capable replicas
            // carry no traffic yet, so they skip the routable check here —
            // but they still count toward the commissioned-capable floor
            // the `allowed` gate below enforces.
            let routable_capable = slots
                .iter()
                .filter(|s| s.routable() && s.driver.can_serve_model())
                .count();
            let candidate = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.commissioned())
                .filter(|(_, s)| {
                    !s.driver.can_serve_model()
                        || s.warming
                        || routable_capable > config.min_replicas
                })
                .min_by(|(ia, a), (ib, b)| {
                    // Dead-weight replicas drain first...
                    a.driver
                        .can_serve_model()
                        .cmp(&b.driver.can_serve_model())
                        // ...then the least-loaded...
                        .then(
                            a.driver
                                .outstanding_tokens()
                                .cmp(&b.driver.outstanding_tokens()),
                        )
                        // ...preferring the newest replica (LIFO scale-in)...
                        .then(
                            b.spawned_ms
                                .partial_cmp(&a.spawned_ms)
                                .expect("spawn times are finite"),
                        )
                        // ...and break remaining ties deterministically.
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i);
            if let Some(i) = candidate {
                // The floor is over *capable* replicas: dead weight never
                // satisfies it, so draining dead weight is allowed whenever
                // at least one commissioned replica remains, while draining
                // a capable replica must leave the capable count at or
                // above the floor.
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
                    if let Some(sink) = sink {
                        sink.emit(TraceEvent::DrainStarted {
                            replica: i,
                            at_ms: t,
                        });
                        sink.emit(TraceEvent::ScaleIn {
                            at_ms: t,
                            replicas_after: commissioned - 1,
                        });
                    }
                    if slots[i].driver.is_drained() {
                        // Already empty: retires at this very instant. The
                        // event sorts before any tick or arrival at `t`, so
                        // nothing can observe the slot in between.
                        queue.push(t, FleetEvent::DrainRetire { slot: i });
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

/// Build the tick's observation from live replica state.
fn observe(t: f64, config: &FleetConfig, slots: &[Slot]) -> FleetObservation {
    let window_start = (t - config.window_ms).max(0.0);
    let mut ttfts = Vec::new();
    for slot in slots {
        // Completions are in finished-time order and first_token <=
        // finished, so scanning from the newest and stopping at the window
        // edge keeps each tick O(window), not O(history).
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
        routable_replicas: slots.iter().filter(|s| s.routable()).count(),
        warming_replicas: slots
            .iter()
            .filter(|s| s.commissioned() && s.warming)
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

/// What [`finalize`] needs to stitch split requests back together: the
/// original request behind every split id, and which slots were decode pods
/// (a split id counts as completed exactly when its remainder finished on
/// one of them).
struct DisaggLedger {
    originals: BTreeMap<u64, Request>,
    decode: Vec<usize>,
}

/// Pool the finished slots, timeline, unroutable set and fault ledger into
/// fleet metrics. Raw figures — output tokens, makespan, rejections,
/// per-replica breakdowns — sum over the slots. The pooled latency
/// distributions take every completion as it stands, except that a
/// disaggregated run stitches each split request's prefill half (arrival,
/// admission, first token) to its decode half (completion), so a handoff
/// counts once, end to end, rather than as two short requests. A split id
/// with no decode-pod completion never finished (it died in a crash or a
/// failed handoff) and is excluded — it is already on the failed ledger.
/// A co-located run has no ledger, so nothing is split.
#[allow(clippy::too_many_arguments)]
fn finalize(
    slots: Vec<Slot>,
    scale_events: Vec<ScaleEvent>,
    unroutable_ids: Vec<u64>,
    failed_ids: Vec<u64>,
    faults: Vec<FaultRecord>,
    peak_replicas: usize,
    drain_incomplete: bool,
    drain_incomplete_replicas: Vec<usize>,
    ledger: Option<DisaggLedger>,
) -> FleetMetrics {
    let (originals, decode_pods) = match ledger {
        Some(ledger) => (ledger.originals, ledger.decode.into_iter().collect()),
        None => (BTreeMap::new(), BTreeSet::new()),
    };
    let mut per_replica = Vec::with_capacity(slots.len());
    let mut latencies = Vec::new();
    let mut ttfts = Vec::new();
    let mut tpots = Vec::new();
    let mut completed = 0usize;
    let mut rejected = unroutable_ids.len();
    let mut output_tokens = 0usize;
    let mut makespan_ms = 0.0f64;
    // id → (earliest prefill-half admission, earliest prefill-half first
    // token, decode-half completion). A crash can re-prefill a request, so
    // the prefill side takes minima; at most one decode completion exists
    // per id.
    let mut halves: BTreeMap<u64, (f64, f64, Option<f64>)> = BTreeMap::new();
    for (index, slot) in slots.into_iter().enumerate() {
        let result = slot.driver.finish();
        rejected += result.rejected.len();
        output_tokens += result.output_tokens();
        makespan_ms = makespan_ms.max(result.makespan_ms);
        for c in &result.completed {
            if originals.contains_key(&c.request.id) {
                let entry =
                    halves
                        .entry(c.request.id)
                        .or_insert((f64::INFINITY, f64::INFINITY, None));
                if decode_pods.contains(&index) {
                    entry.2 = Some(c.finished_ms);
                } else {
                    entry.0 = entry.0.min(c.admitted_ms);
                    entry.1 = entry.1.min(c.first_token_ms);
                }
            } else {
                completed += 1;
                latencies.push(c.latency_ms());
                ttfts.push(c.ttft_ms());
                tpots.extend(c.tpot_ms());
            }
        }
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
    // BTreeMap iteration is ordered by id, so the stitched pool is
    // deterministic without an explicit sort.
    for (id, (admitted_ms, first_token_ms, finished)) in halves {
        let (Some(finished_ms), true) = (finished, admitted_ms.is_finite()) else {
            continue;
        };
        let stitched = CompletedRequest {
            request: originals[&id],
            admitted_ms,
            first_token_ms,
            finished_ms,
        };
        completed += 1;
        latencies.push(stitched.latency_ms());
        ttfts.push(stitched.ttft_ms());
        tpots.extend(stitched.tpot_ms());
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
        failed_ids,
        faults,
        drain_incomplete,
        drain_incomplete_replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SingleGpuBackend;
    use crate::trace::{BurstPhase, BurstyTraceConfig};
    use samoyeds_gpu_sim::DeviceSpec;
    use samoyeds_moe::config::MoeModelConfig;

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

    fn burst() -> Vec<Request> {
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

    #[test]
    fn slo_breach_scales_out_and_low_utilization_scales_back_in() {
        let scfg = SchedulerConfig::default();
        let config = FleetConfig {
            scheduler: scfg,
            warmup_ms: 500.0,
            max_replicas: 4,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&burst());
        assert_eq!(metrics.completed, 76);
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.scale_outs() >= 1, "{:?}", metrics.scale_events);
        assert!(metrics.scale_ins() >= 1, "{:?}", metrics.scale_events);
        assert!(metrics.replicas > 1);
        // The first event is a burst-driven scale-out, and some scale-in
        // follows it once the burst drains.
        assert_eq!(metrics.scale_events[0].kind, ScaleKind::Out);
        let first_out = metrics.scale_events[0].at_ms;
        assert!(metrics
            .scale_events
            .iter()
            .any(|e| e.kind == ScaleKind::In && e.at_ms > first_out));
        // Every event respects the floor, and warm-up is charged.
        for e in &metrics.scale_events {
            assert!(e.replicas_after >= 1);
        }
        for r in metrics.per_replica.iter().skip(1) {
            assert_eq!(r.ready_ms, r.spawned_ms + 500.0);
        }
        // The timeline renders.
        assert!(metrics.render_timeline().len() >= 2 + metrics.scale_events.len());
    }

    #[test]
    fn dispatch_skips_replicas_whose_budget_rejects_the_model() {
        // A 12 GiB card cannot hold dense Qwen2 weights: the dense replica
        // is capability-ineligible and every request lands on the Samoyeds
        // replica.
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 10,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 3,
        }
        .generate();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .run(&trace);
        assert_eq!(metrics.completed, 10);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.per_replica[0].assigned, 0);
        assert_eq!(metrics.per_replica[1].assigned, 10);
        // No replica-level rejection: the gate keeps unfit replicas out of
        // the eligible set instead of letting them bounce requests.
        for r in &metrics.per_replica {
            assert_eq!(r.metrics.rejected, 0);
        }
    }

    #[test]
    fn scale_in_never_drains_the_last_capable_replica() {
        // Heterogeneous fleet where one replica is dead weight (dense
        // weights can never fit the 12 GiB card): idle-driven scale-in must
        // drain the dead weight, never the only replica that can serve —
        // otherwise the late requests after the gap would all be stranded.
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        // Early work, a long idle gap (the autoscaler's idle streak fires),
        // then late work.
        let trace: Vec<Request> = (0..4)
            .map(|i| mk(i, 100.0 * i as f64))
            .chain((4..8).map(|i| mk(i, 20_000.0 + 100.0 * (i - 4) as f64)))
            .collect();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &scfg,
            ))
            .with_autoscaler(SloAutoscaler::new(400.0))
            .run(&trace);
        // Everything is served: the capable replica survived the scale-in.
        assert_eq!(metrics.completed, 8, "{:?}", metrics.scale_events);
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.scale_ins() >= 1, "{:?}", metrics.scale_events);
        // The drained replica is the dense dead weight, not the Samoyeds
        // one.
        assert!(metrics.per_replica[0].retired_ms.is_some());
        assert!(metrics.per_replica[1].retired_ms.is_none());
        assert_eq!(metrics.per_replica[1].assigned, 8);

        // Even when the raw replica count sits exactly at the floor, dead
        // weight does not satisfy it and is still drained.
        let at_floor = FleetController::new(FleetConfig {
            min_replicas: 2,
            ..FleetConfig::default()
        })
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Transformers,
            &scfg,
        ))
        .with_replica(single(
            DeviceSpec::rtx4070_super(),
            EngineKind::Samoyeds,
            &scfg,
        ))
        .with_autoscaler(SloAutoscaler::new(400.0))
        .run(&trace);
        assert_eq!(at_floor.completed, 8);
        assert!(
            at_floor.per_replica[0].retired_ms.is_some(),
            "dead weight kept at floor"
        );
        assert!(at_floor.per_replica[1].retired_ms.is_none());
    }

    #[test]
    fn unroutable_requests_are_reported_not_lost() {
        // A fleet made only of dense 12 GiB replicas can never admit the
        // model's requests: everything is fleet-rejected.
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 5,
            arrival_rate_rps: 8.0,
            prompt_len_range: (32, 64),
            output_len_range: (4, 8),
            seed: 4,
        }
        .generate();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .run(&trace);
        assert_eq!(metrics.completed, 0);
        assert_eq!(metrics.rejected, 5);
        assert_eq!(metrics.unroutable_ids.len(), 5);
    }

    #[test]
    fn fixed_policy_never_scales_and_round_robin_spreads() {
        let scfg = SchedulerConfig::default();
        let trace = crate::trace::TraceConfig {
            num_requests: 12,
            arrival_rate_rps: 6.0,
            prompt_len_range: (32, 128),
            output_len_range: (4, 12),
            seed: 9,
        }
        .generate();
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        assert!(metrics.scale_events.is_empty());
        assert_eq!(metrics.replicas, 2);
        assert_eq!(metrics.per_replica[0].assigned, 6);
        assert_eq!(metrics.per_replica[1].assigned, 6);
    }

    #[test]
    fn slo_autoscaler_streaks_gate_the_decisions() {
        let mut policy = SloAutoscaler::new(500.0).with_scale_in(0.3, 2);
        let breach = FleetObservation {
            now_ms: 0.0,
            routable_replicas: 1,
            warming_replicas: 0,
            p95_ttft_ms: Some(900.0),
            max_pending_wait_ms: 0.0,
            utilization: 0.9,
            outstanding_tokens: 100,
            queued_requests: 3,
        };
        let idle = FleetObservation {
            p95_ttft_ms: None,
            utilization: 0.1,
            queued_requests: 0,
            ..breach
        };
        // One breached tick holds; the second scales out.
        assert_eq!(policy.decide(&breach), ScaleDecision::Hold);
        assert_eq!(policy.decide(&breach), ScaleDecision::ScaleOut);
        // Idle ticks reset the breach streak and eventually scale in.
        assert_eq!(policy.decide(&idle), ScaleDecision::Hold);
        assert_eq!(policy.decide(&idle), ScaleDecision::ScaleIn);
        // A pending-wait breach counts even with no completions in window.
        let waiting = FleetObservation {
            p95_ttft_ms: None,
            max_pending_wait_ms: 900.0,
            ..breach
        };
        assert_eq!(policy.decide(&waiting), ScaleDecision::Hold);
        assert_eq!(policy.decide(&waiting), ScaleDecision::ScaleOut);
        // While capacity is warming, further breaches hold instead of
        // stampeding more scale-outs.
        let warming = FleetObservation {
            warming_replicas: 1,
            ..breach
        };
        assert_eq!(policy.decide(&warming), ScaleDecision::Hold);
        assert_eq!(policy.decide(&warming), ScaleDecision::Hold);
        // Once the replica lands, the breach streak starts fresh.
        assert_eq!(policy.decide(&breach), ScaleDecision::Hold);
        assert_eq!(policy.decide(&breach), ScaleDecision::ScaleOut);
    }

    #[test]
    fn slo_autoscaler_freezes_every_streak_while_capacity_warms() {
        let mut policy = SloAutoscaler::new(500.0).with_scale_in(0.3, 2);
        // Idle ticks while a replica is warming must not accrue the idle
        // streak: the fleet looks idle only because the new capacity has
        // not started taking traffic yet, and scaling in here would cancel
        // the scale-out before it ever lands.
        let idle_warming = FleetObservation {
            now_ms: 0.0,
            routable_replicas: 1,
            warming_replicas: 1,
            p95_ttft_ms: None,
            max_pending_wait_ms: 0.0,
            utilization: 0.1,
            outstanding_tokens: 0,
            queued_requests: 0,
        };
        for _ in 0..10 {
            assert_eq!(policy.decide(&idle_warming), ScaleDecision::Hold);
        }
        // Once warm-up lands, the idle streak starts from zero: it takes
        // the full `idle_ticks` run before a scale-in fires.
        let idle = FleetObservation {
            warming_replicas: 0,
            ..idle_warming
        };
        assert_eq!(policy.decide(&idle), ScaleDecision::Hold);
        assert_eq!(policy.decide(&idle), ScaleDecision::ScaleIn);
    }

    /// Records every consultation time so the test can check the schedule.
    struct TickProbe {
        tick_ms: f64,
        /// (ticks seen, all tick times were exactly `k * tick_ms`).
        seen: std::rc::Rc<std::cell::RefCell<(u64, bool)>>,
    }

    impl AutoscalePolicy for TickProbe {
        fn decide(&mut self, obs: &FleetObservation) -> ScaleDecision {
            let mut seen = self.seen.borrow_mut();
            seen.0 += 1;
            if obs.now_ms != seen.0 as f64 * self.tick_ms {
                seen.1 = false;
            }
            ScaleDecision::Hold
        }
    }

    #[test]
    fn control_ticks_do_not_drift_over_a_million_ticks() {
        // 0.1 is not representable in binary floating point, so the old
        // `next_tick += tick_ms` accumulation drifts: after 10^6 additions
        // the schedule is visibly off the true grid...
        let tick_ms = 0.1f64;
        let mut accumulated = 0.0f64;
        for _ in 0..1_000_000 {
            accumulated += tick_ms;
        }
        assert_ne!(
            accumulated,
            1_000_000f64 * tick_ms,
            "the accumulated schedule should drift — that is the bug"
        );

        // ...while the event core derives tick k as exactly k * tick_ms.
        // Two tiny requests 100 s apart put >= 10^6 ticks between them.
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 8,
            output_len: 2,
        };
        let seen = std::rc::Rc::new(std::cell::RefCell::new((0u64, true)));
        let probe = TickProbe {
            tick_ms,
            seen: seen.clone(),
        };
        let metrics = FleetController::new(FleetConfig {
            tick_ms,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(probe)
        .run(&[mk(0, 0.0), mk(1, 100_000.0)]);
        assert_eq!(metrics.completed, 2);
        let (ticks, exact) = *seen.borrow();
        assert!(ticks >= 1_000_000, "only {ticks} ticks fired");
        assert!(exact, "a tick fired off the k * tick_ms grid");
    }

    #[test]
    fn drain_cap_returns_degraded_metrics_instead_of_panicking() {
        // One heavy request takes far longer than three 1 ms drain ticks:
        // the capped run must come back degraded, not panic mid-sweep.
        let scfg = SchedulerConfig::default();
        let trace = vec![Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 2048,
            output_len: 256,
        }];
        let capped = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            max_drain_ticks: 3,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(capped.drain_incomplete, "cap hit should flag the metrics");
        assert_eq!(capped.completed, 0, "the heavy request cannot finish");

        // The same fleet under the default cap drains fine.
        let full = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(!full.drain_incomplete);
        assert_eq!(full.completed, 1);
    }

    #[test]
    fn drain_cap_names_the_replicas_still_holding_work() {
        let scfg = SchedulerConfig::default();
        let trace = vec![Request {
            id: 0,
            arrival_ms: 0.0,
            prompt_len: 2048,
            output_len: 256,
        }];
        let capped = FleetController::new(FleetConfig {
            tick_ms: 1.0,
            max_drain_ticks: 3,
            ..FleetConfig::default()
        })
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        .with_autoscaler(SloAutoscaler::new(1e12))
        .run(&trace);
        assert!(capped.drain_incomplete);
        // Only the replica that took the heavy request is stuck; the idle
        // one drained. The status line names it.
        assert_eq!(capped.drain_incomplete_replicas.len(), 1);
        let stuck = capped.drain_incomplete_replicas[0];
        assert_eq!(capped.per_replica[stuck].assigned, 1);
        assert!(capped.drain_status().contains(&stuck.to_string()));
        // A clean run reports "drained" and an empty list.
        let full = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        assert!(full.drain_incomplete_replicas.is_empty());
        assert_eq!(full.drain_status(), "drained");
    }

    fn steady_trace(n: u64, rate_rps: f64) -> Vec<Request> {
        crate::trace::TraceConfig {
            num_requests: n as usize,
            arrival_rate_rps: rate_rps,
            prompt_len_range: (32, 128),
            output_len_range: (8, 24),
            seed: 23,
        }
        .generate()
    }

    fn crash_at(at_ms: f64, replica: usize) -> FaultSchedule {
        FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms,
            kind: FaultKind::ReplicaCrash { replica },
        }])
    }

    #[test]
    fn crash_with_readmission_loses_nothing() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(crash_at(500.0, 0), RecoveryPolicy::readmit_after(40.0))
            .run(&trace);
        // Conservation with zero losses: everything offered is served.
        assert_eq!(metrics.completed, 30, "{:?}", metrics.faults);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.failed(), 0);
        let record = &metrics.faults[0];
        assert!(
            record.lost_running + record.lost_queued > 0,
            "the crash should catch work in flight: {record:?}"
        );
        assert_eq!(record.readmitted, record.lost_running + record.lost_queued);
        assert_eq!(record.recovery_ms(), Some(40.0));
        // The crashed replica is retired at the fault instant.
        assert_eq!(metrics.per_replica[0].retired_ms, Some(500.0));
    }

    #[test]
    fn fail_fast_crash_fails_in_flight_requests_and_conserves_the_ledger() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(crash_at(500.0, 0), RecoveryPolicy::fail_fast())
            .run(&trace);
        assert!(metrics.failed() > 0, "{:?}", metrics.faults);
        assert_eq!(metrics.completed + metrics.rejected + metrics.failed(), 30);
        let record = &metrics.faults[0];
        assert_eq!(record.failed, metrics.failed());
        assert_eq!(record.readmitted, 0);
        assert_eq!(record.recovered_at_ms, None, "fail-fast never recovers");
        // Every failed request had been routed to the crashed replica.
        assert_eq!(metrics.failed_ids.len(), metrics.failed());
        for id in &metrics.failed_ids {
            assert!(metrics.per_replica[0].assigned_ids.contains(id));
        }
    }

    #[test]
    fn crash_under_ticked_autoscaler_readmits_after_the_fleet_drains() {
        // Crash the replica holding the *only* remaining work right before
        // the fleet would otherwise be fully drained: the tick schedule must
        // outlive the pending re-admission or the buffered requests vanish.
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(12, 40.0);
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_autoscaler(SloAutoscaler::new(1e12))
            .with_faults(crash_at(250.0, 1), RecoveryPolicy::readmit_after(5_000.0))
            .run(&trace);
        assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed(),
            12,
            "{:?}",
            metrics.faults
        );
        assert_eq!(metrics.failed(), 0, "{:?}", metrics.faults);
        assert_eq!(metrics.completed, 12);
    }

    #[test]
    fn crash_with_replacement_commissions_through_the_warmup_path() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 20.0);
        let config = FleetConfig {
            warmup_ms: 300.0,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_factory(move || single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(
                crash_at(500.0, 0),
                RecoveryPolicy::readmit_and_replace(50.0),
            )
            .run(&trace);
        assert_eq!(metrics.completed, 30);
        assert_eq!(metrics.failed(), 0);
        let record = &metrics.faults[0];
        assert_eq!(record.replacement, Some(2));
        // Recovery covers both the re-admission transfer and the
        // replacement's warm-up: spawn + warmup + transfer.
        assert_eq!(record.recovered_at_ms, Some(500.0 + 300.0 + 50.0));
        assert_eq!(metrics.per_replica.len(), 3);
        assert_eq!(metrics.per_replica[2].spawned_ms, 500.0);
        assert_eq!(metrics.per_replica[2].ready_ms, 850.0);
    }

    #[test]
    fn link_degrade_diverts_routing_until_restored() {
        let scfg = SchedulerConfig::default();
        // Two requests inside the degrade window, two after it.
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        let trace = vec![mk(0, 100.0), mk(1, 200.0), mk(2, 2_000.0), mk(3, 2_100.0)];
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let schedule = FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms: 50.0,
            kind: FaultKind::LinkDegrade {
                replica: 1,
                duration_ms: 1_000.0,
            },
        }]);
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(schedule, RecoveryPolicy::default())
            .run(&trace);
        assert_eq!(metrics.completed, 4);
        // During the window only replica 0 is routable; after restoration
        // round-robin reaches replica 1 again.
        assert_eq!(metrics.per_replica[0].assigned_ids, vec![0, 1, 2]);
        assert_eq!(metrics.per_replica[1].assigned_ids, vec![3]);
        assert_eq!(metrics.faults[0].recovery_ms(), Some(1_000.0));
        assert_eq!(metrics.per_replica[1].retired_ms, None);
    }

    #[test]
    fn island_partition_degrades_every_listed_replica_at_once() {
        let scfg = SchedulerConfig::default();
        let mk = |id: u64, arrival_ms: f64| Request {
            id,
            arrival_ms,
            prompt_len: 64,
            output_len: 8,
        };
        let trace = vec![mk(0, 100.0), mk(1, 150.0), mk(2, 3_000.0)];
        let schedule = FaultSchedule::Scripted(vec![crate::faults::FaultSpec {
            at_ms: 50.0,
            kind: FaultKind::IslandPartition {
                island: 1,
                replicas: vec![1, 2],
                duration_ms: 1_000.0,
            },
        }]);
        let config = FleetConfig {
            policy: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let metrics = FleetController::new(config)
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(schedule, RecoveryPolicy::default())
            .run(&trace);
        assert_eq!(metrics.completed, 3);
        // Both partitioned replicas take nothing during the window; the
        // late request lands on a restored replica via round-robin.
        assert_eq!(metrics.per_replica[0].assigned_ids, vec![0, 1]);
        assert_eq!(
            metrics.per_replica[1].assigned + metrics.per_replica[2].assigned,
            1
        );
        assert_eq!(metrics.faults[0].recovery_ms(), Some(1_000.0));
    }

    #[test]
    fn empty_fault_schedule_is_inert() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(20, 15.0);
        let plain = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .run(&trace);
        let with_faults = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_faults(FaultSchedule::none(), RecoveryPolicy::default())
            .run(&trace);
        // The full bit-for-bit pin lives in the `fault_equivalence` suite;
        // this is the smoke check.
        assert_eq!(plain.completed, with_faults.completed);
        assert_eq!(plain.makespan_ms, with_faults.makespan_ms);
        assert!(with_faults.faults.is_empty());
        assert!(with_faults.failed_ids.is_empty());
    }

    fn memory_model() -> MemoryModel {
        MemoryModel::new(
            &DeviceSpec::a100_40g(),
            EngineKind::Samoyeds,
            &MoeModelConfig::qwen2_moe(),
        )
    }

    fn disagg_cfg(prefill: Vec<usize>, decode: Vec<usize>) -> DisaggregationConfig {
        DisaggregationConfig::uniform(
            prefill,
            decode,
            memory_model(),
            LinkSpec {
                name: "kv link".to_string(),
                latency_us: 5.0,
                bandwidth_gbps: 50.0,
            },
        )
    }

    #[test]
    fn disaggregated_requests_hand_off_and_complete_on_decode_pods() {
        use crate::telemetry::{request_timelines, TraceRecorder};
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(24, 20.0);
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let memory = memory_model();
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .with_sink(sink)
            .run(&trace);
        assert_eq!(metrics.completed, trace.len());
        assert_eq!(metrics.rejected, 0);
        assert!(metrics.failed_ids.is_empty());
        let events = recorder.borrow().events();
        let started: Vec<(u64, f64)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::KvTransferStarted { id, bytes, .. } => Some((*id, *bytes)),
                _ => None,
            })
            .collect();
        let landed = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::KvTransferComplete { .. }))
            .count();
        // Every multi-token request hands off exactly once, priced from the
        // memory model's KV sizing of its prompt.
        let multi = trace.iter().filter(|r| r.output_len > 1).count();
        assert_eq!(started.len(), multi);
        assert_eq!(landed, multi);
        for &(id, bytes) in &started {
            assert_eq!(bytes, memory.kv_bytes(trace[id as usize].prompt_len));
        }
        // Timelines merge both halves: full output on the decode pod with a
        // positive transfer phase.
        let timelines = request_timelines(&events);
        assert_eq!(timelines.len(), trace.len());
        for t in &timelines {
            let original = &trace[t.id as usize];
            assert_eq!(t.output_len, original.output_len);
            if original.output_len > 1 {
                assert_eq!(t.replica, 1, "handoffs finish on the decode pod");
                assert!(t.transfer_ms > 0.0);
            }
        }
    }

    #[test]
    fn handoffs_route_to_the_decode_pod_with_the_most_kv_headroom() {
        use crate::telemetry::TraceRecorder;
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(30, 40.0);
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1, 2]))
            .with_sink(sink)
            .run(&trace);
        assert_eq!(metrics.completed, trace.len());
        // Most-free-KV routing under a steady load alternates rather than
        // piling every handoff on one pod: both decode pods take traffic.
        let events = recorder.borrow().events();
        let mut targets: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::KvTransferStarted { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets, vec![1, 2], "both decode pods receive handoffs");
    }

    #[test]
    fn disagg_validation_catches_bad_role_partitions() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(4, 10.0);
        let two_pods = || {
            FleetController::new(FleetConfig::default())
                .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
                .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
        };
        // Overlap: a replica cannot be both roles.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![0]))
            .validate(&trace);
        assert!(
            report.has("disagg::overlapping-roles"),
            "{}",
            report.render()
        );
        // Roles must bind to initial replicas.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![5]))
            .validate(&trace);
        assert!(
            report.has("disagg::role-out-of-range"),
            "{}",
            report.render()
        );
        // Decode pods without prefill pods can never admit anything.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![], vec![1]))
            .validate(&trace);
        assert!(report.has("disagg::empty-role"), "{}", report.render());
        // The link matrix must cover every prefill×decode pair.
        let mut cfg = disagg_cfg(vec![0], vec![1]);
        cfg.links = Vec::new();
        let report = two_pods().with_disaggregation(cfg).validate(&trace);
        assert!(report.has("disagg::link-shape"), "{}", report.render());
        // Link parameters must be physical.
        let mut cfg = disagg_cfg(vec![0], vec![1]);
        cfg.links[0][0].bandwidth_gbps = 0.0;
        let report = two_pods().with_disaggregation(cfg).validate(&trace);
        assert!(report.has("disagg::bad-link"), "{}", report.render());
        // A dense engine on a 12 GiB card cannot hold qwen2_moe: naming it
        // a decode pod is denied up front.
        let report = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(
                DeviceSpec::rtx4070_super(),
                EngineKind::Transformers,
                &scfg,
            ))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .validate(&trace);
        assert!(
            report.has("disagg::decode-cannot-hold-model"),
            "{}",
            report.render()
        );
        // Ratio 0 (no decode pods) and roleless replicas are warnings, not
        // denials: the co-located fallback is legitimate.
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![]))
            .validate(&trace);
        assert!(report.has("disagg::no-decode-pods"), "{}", report.render());
        assert_eq!(report.deny_count(), 0, "{}", report.render());
        let report = two_pods()
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .validate(&trace);
        assert_eq!(report.deny_count(), 0, "{}", report.render());
    }

    #[test]
    fn a_decode_pod_crash_fails_or_reroutes_in_flight_handoffs() {
        let scfg = SchedulerConfig::default();
        let trace = steady_trace(24, 30.0);
        // Fail-fast with the only decode pod crashed: in-flight handoffs
        // fail, and every request is still accounted for exactly once.
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1]))
            .with_faults(crash_at(400.0, 1), RecoveryPolicy::fail_fast())
            .run(&trace);
        assert!(!metrics.failed_ids.is_empty(), "the crash caught handoffs");
        assert_eq!(
            metrics.completed + metrics.rejected + metrics.failed_ids.len(),
            trace.len(),
            "completed + rejected + failed covers the offered trace"
        );
        // With a second decode pod and readmission, the crashed pod's work
        // re-routes instead: nothing is lost.
        let metrics = FleetController::new(FleetConfig::default())
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_replica(single(DeviceSpec::a100_40g(), EngineKind::Samoyeds, &scfg))
            .with_disaggregation(disagg_cfg(vec![0], vec![1, 2]))
            .with_faults(crash_at(400.0, 1), RecoveryPolicy::readmit_after(25.0))
            .run(&trace);
        assert_eq!(metrics.completed, trace.len(), "{:?}", metrics.failed_ids);
        assert!(metrics.failed_ids.is_empty());
    }
}
