//! The online fleet control plane: heterogeneous replicas behind one
//! capability-aware dispatcher with SLO-driven autoscaling.
//!
//! A bursty (calm → spike → calm) Poisson trace is served by a mixed fleet —
//! a 2x A100 expert-parallel Samoyeds pod next to an RTX 4070 Super single —
//! whose autoscaler scales out (charging a warm-up) when the spike breaches
//! the p95-TTFT SLO and back in once utilization drops, then by the full
//! sweep of fleet compositions × dispatch policies × SLO targets.
//!
//! Run with `cargo run --release --example fleet_autoscale`.

use samoyeds::dist::{FleetAutoscaleReport, FleetKind};
use samoyeds::moe::config::MoeModelConfig;
use samoyeds::serve::{DispatchPolicy, FleetConfig, SchedulerConfig, SloAutoscaler};

fn main() {
    let model = MoeModelConfig::qwen2_moe();
    let trace = FleetAutoscaleReport::demo_trace();
    let scfg = SchedulerConfig::default();

    // The headline run in detail: the mixed fleet under a tight SLO.
    let config = FleetConfig {
        scheduler: scfg,
        policy: DispatchPolicy::LeastOutstandingTokens,
        tick_ms: 200.0,
        window_ms: 1_000.0,
        warmup_ms: 1_500.0,
        min_replicas: 2,
        max_replicas: 6,
        ..FleetConfig::default()
    };
    let requests = trace.generate();
    let controller = FleetKind::Mixed.controller(&model, config, &SloAutoscaler::new(400.0));
    // Validate-first: reject an ill-formed experiment before a single event
    // runs, and print the advisory warnings run() deliberately keeps quiet.
    let report = controller.validate(&requests);
    report.assert_valid();
    for diagnostic in report.diagnostics() {
        println!("{diagnostic}");
    }
    let metrics = controller.run(&requests);
    println!(
        "mixed fleet ({}): {} served, {} rejected, TTFT p95 {:.0} ms, \
         peak {} replicas, {} scale-outs / {} scale-ins",
        FleetKind::Mixed.name(),
        metrics.completed,
        metrics.rejected,
        metrics.ttft.p95_ms,
        metrics.replicas,
        metrics.scale_outs(),
        metrics.scale_ins(),
    );
    println!("\nscaling timeline:");
    for line in metrics.render_timeline() {
        println!("{line}");
    }
    println!("\nper-replica breakdown:");
    for r in &metrics.per_replica {
        println!(
            "- {} · assigned {} · completed {} · ready at {:.1} s{}",
            r.description,
            r.assigned,
            r.metrics.completed,
            r.ready_ms / 1e3,
            r.retired_ms
                .map_or_else(String::new, |t| format!(" · retired at {:.1} s", t / 1e3)),
        );
    }

    // The full sweep: fleets x policies x SLOs on the shared trace.
    println!();
    let report = FleetAutoscaleReport::sweep(&model, &trace, &scfg);
    for line in report.render_markdown() {
        println!("{line}");
    }
    match report.scale_out_contrast() {
        Some((samoyeds, dense)) => println!(
            "\n-> at the tight SLO, Samoyeds singles absorb the spike with {samoyeds} \
             scale-outs where dense singles need {dense}\n"
        ),
        None => println!("\n-> no scale-out contrast for this model\n"),
    }
}
