//! Golden `FleetMetrics` digests for the online fleet controller.
//!
//! Every cell of the product {round-robin, least-outstanding} × {fixed
//! fleet, SLO autoscaler with a factory} × {no faults, crash + re-admit,
//! crash fail-fast + replace, link degrade} × {co-located, disaggregated
//! 1 prefill : 2 decode} serves one shared bursty trace. Each cell stores
//! an FNV-1a-64 hash of `format!("{:?}", metrics)`. `Debug` prints every
//! `f64` in its shortest round-trip form, so equal hashes mean bit-equal
//! metrics: every percentile, scale-event reason, fault record and
//! per-replica breakdown. A cell that fails validation stores its sorted
//! deny codes instead of a hash.
//!
//! Each cell also runs with a recording telemetry sink, and the two hashes
//! must agree. On a mismatch the test prints the regenerated table; paste
//! it into `golden/fleet_metrics.txt` only when a change to the simulated
//! numbers is intended.

use samoyeds_gpu_sim::{DeviceSpec, LinkSpec};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_moe::engines::EngineKind;
use samoyeds_serve::{
    BurstPhase, BurstyTraceConfig, DisaggregationConfig, DispatchPolicy, ExecutionBackend,
    FaultKind, FaultSchedule, FaultSpec, FleetConfig, FleetController, FleetMetrics, MemoryModel,
    RecoveryPolicy, Request, SchedulerConfig, Severity, SharedSink, SingleGpuBackend,
    SloAutoscaler, TraceRecorder,
};

const GOLDEN: &str = include_str!("golden/fleet_metrics.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(metrics: &FleetMetrics) -> String {
    format!("{:016x}", fnv1a64(format!("{metrics:?}").as_bytes()))
}

fn backend(device: DeviceSpec, scfg: &SchedulerConfig) -> Box<dyn ExecutionBackend> {
    Box::new(SingleGpuBackend::new(
        device,
        &MoeModelConfig::qwen2_moe(),
        EngineKind::Samoyeds,
        scfg,
    ))
}

/// Calm → spike → calm: 52 short requests, the spike between about 3.0 s
/// and 3.5 s. The faults below land inside it.
fn trace() -> Vec<Request> {
    BurstyTraceConfig {
        phases: vec![
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 6,
            },
            BurstPhase {
                arrival_rate_rps: 150.0,
                num_requests: 40,
            },
            BurstPhase {
                arrival_rate_rps: 2.0,
                num_requests: 6,
            },
        ],
        prompt_len_range: (32, 128),
        output_len_range: (4, 16),
        seed: 17,
    }
    .generate()
}

#[derive(Debug, Clone, Copy)]
enum Scaling {
    Fixed,
    Slo,
}

#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    CrashReadmit,
    CrashFailFastReplace,
    LinkDegrade,
}

#[derive(Debug, Clone, Copy)]
enum Layout {
    Colocated,
    Disaggregated,
}

/// One cell of the product.
#[derive(Debug, Clone, Copy)]
struct Cell {
    policy: DispatchPolicy,
    scaling: Scaling,
    faults: Faults,
    layout: Layout,
}

impl Cell {
    fn all() -> Vec<Cell> {
        let mut cells = Vec::new();
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastOutstandingTokens,
        ] {
            for scaling in [Scaling::Fixed, Scaling::Slo] {
                for faults in [
                    Faults::None,
                    Faults::CrashReadmit,
                    Faults::CrashFailFastReplace,
                    Faults::LinkDegrade,
                ] {
                    for layout in [Layout::Colocated, Layout::Disaggregated] {
                        cells.push(Cell {
                            policy,
                            scaling,
                            faults,
                            layout,
                        });
                    }
                }
            }
        }
        cells
    }

    fn name(&self) -> String {
        let scaling = match self.scaling {
            Scaling::Fixed => "fixed",
            Scaling::Slo => "slo",
        };
        let faults = match self.faults {
            Faults::None => "no-faults",
            Faults::CrashReadmit => "crash-readmit",
            Faults::CrashFailFastReplace => "crash-failfast-replace",
            Faults::LinkDegrade => "link-degrade",
        };
        let layout = match self.layout {
            Layout::Colocated => "colocated",
            Layout::Disaggregated => "disagg-1p2d",
        };
        format!("{}/{scaling}/{faults}/{layout}", self.policy.name())
    }

    /// One A100 single and two RTX 4070 Super singles; disaggregated, the
    /// A100 is the prefill pod. Replica 1 is the one the faults hit.
    fn controller(&self) -> FleetController {
        let scfg = SchedulerConfig::default();
        let config = FleetConfig {
            scheduler: scfg,
            policy: self.policy,
            tick_ms: 200.0,
            window_ms: 1_000.0,
            warmup_ms: 500.0,
            min_replicas: 2,
            max_replicas: 5,
            ..FleetConfig::default()
        };
        let mut fleet = FleetController::new(config)
            .with_replica(backend(DeviceSpec::a100_40g(), &scfg))
            .with_replica(backend(DeviceSpec::rtx4070_super(), &scfg))
            .with_replica(backend(DeviceSpec::rtx4070_super(), &scfg));
        if let Scaling::Slo = self.scaling {
            fleet = fleet
                .with_factory(move || backend(DeviceSpec::a100_40g(), &scfg))
                .with_autoscaler(SloAutoscaler::new(150.0));
        }
        let crash = FaultSpec {
            at_ms: 3_100.0,
            kind: FaultKind::ReplicaCrash { replica: 1 },
        };
        fleet = match self.faults {
            Faults::None => fleet,
            Faults::CrashReadmit => fleet.with_faults(
                FaultSchedule::Scripted(vec![crash]),
                RecoveryPolicy::readmit_after(50.0),
            ),
            Faults::CrashFailFastReplace => fleet.with_faults(
                FaultSchedule::Scripted(vec![crash]),
                RecoveryPolicy {
                    readmit: false,
                    replace: true,
                    transfer_ms: 0.0,
                },
            ),
            Faults::LinkDegrade => fleet.with_faults(
                FaultSchedule::Scripted(vec![FaultSpec {
                    at_ms: 3_000.0,
                    kind: FaultKind::LinkDegrade {
                        replica: 1,
                        duration_ms: 1_000.0,
                    },
                }]),
                RecoveryPolicy::default(),
            ),
        };
        if let Layout::Disaggregated = self.layout {
            let memory = MemoryModel::new(
                &DeviceSpec::rtx4070_super(),
                EngineKind::Samoyeds,
                &MoeModelConfig::qwen2_moe(),
            );
            fleet = fleet.with_disaggregation(DisaggregationConfig {
                prefill: vec![0],
                decode: vec![1, 2],
                memory,
                links: vec![vec![
                    LinkSpec::nvlink3(),
                    LinkSpec {
                        name: "kv link".to_string(),
                        latency_us: 5.0,
                        bandwidth_gbps: 50.0,
                    },
                ]],
            });
        }
        fleet
    }

    /// The cell's golden entry: the metrics digest, or the sorted deny codes
    /// when validation rejects the configuration. Runs the cell twice, with
    /// and without a recording sink, and checks the two digests agree.
    fn entry(&self, trace: &[Request]) -> String {
        let fleet = self.controller();
        let mut denies: Vec<String> = fleet
            .validate(trace)
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.code.clone())
            .collect();
        if !denies.is_empty() {
            denies.sort();
            return format!("deny:{}", denies.join(","));
        }
        let plain = digest(&fleet.run(trace));
        let (sink, recorder) = SharedSink::new(TraceRecorder::new());
        let recorded = digest(&self.controller().with_sink(sink).run(trace));
        assert_eq!(
            plain,
            recorded,
            "{}: the recording sink changed the metrics",
            self.name()
        );
        assert!(
            !recorder.borrow().is_empty(),
            "{}: nothing recorded",
            self.name()
        );
        plain
    }
}

#[test]
fn fleet_metrics_match_the_golden_digests() {
    let trace = trace();
    let table: String = Cell::all()
        .iter()
        .map(|cell| format!("{} {}\n", cell.name(), cell.entry(&trace)))
        .collect();
    assert!(
        table == GOLDEN,
        "FleetMetrics digests changed; regenerated table:\n{table}"
    );
}
