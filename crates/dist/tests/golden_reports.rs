//! Golden `FleetMetrics` digests for the fleet sweeps `samoyeds-dist`
//! reports: every `FleetAutoscaleReport` cell under the round-robin and
//! least-outstanding policies, and every `DisaggSweepReport` cell.
//!
//! Each cell stores an FNV-1a-64 hash of `format!("{:?}", metrics)`, which
//! is bit-exact because `Debug` prints every `f64` in its shortest
//! round-trip form. A disaggregation cell the sweep rejects at validation
//! stores the deny code it is rejected for instead. On a mismatch the test
//! prints the regenerated table; paste it into `golden/reports.txt` only
//! when a change to the simulated numbers is intended.

use samoyeds_dist::{DisaggSweepReport, FleetAutoscaleReport};
use samoyeds_moe::config::MoeModelConfig;
use samoyeds_serve::{FleetMetrics, SchedulerConfig};

const GOLDEN: &str = include_str!("golden/reports.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(metrics: &FleetMetrics) -> String {
    format!("{:016x}", fnv1a64(format!("{metrics:?}").as_bytes()))
}

#[test]
fn fleet_sweeps_match_the_golden_digests() {
    let model = MoeModelConfig::qwen2_moe();
    let scfg = SchedulerConfig::default();
    let mut table = String::new();
    let autoscale = FleetAutoscaleReport::sweep(&model, &FleetAutoscaleReport::demo_trace(), &scfg);
    for e in &autoscale.entries {
        table += &format!(
            "autoscale/{}/{}/{} {}\n",
            e.fleet.name(),
            e.policy.name(),
            e.slo_ms,
            digest(&e.metrics)
        );
    }
    for e in &DisaggSweepReport::sweep(&model, &scfg).entries {
        let entry = match &e.outcome {
            Some(outcome) => digest(&outcome.metrics),
            None => "deny:disagg::decode-cannot-hold-model".to_string(),
        };
        table += &format!(
            "disagg/{}/{}:{} {entry}\n",
            e.engine.name(),
            e.prefill_pods,
            e.decode_pods
        );
    }
    assert!(
        table == GOLDEN,
        "fleet sweep digests changed; regenerated table:\n{table}"
    );
}
