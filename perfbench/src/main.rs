//! The repository benchmark: how fast the simulator runs, and what it
//! simulates, on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_short --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The workload seed generates the inputs
//! (request trace, weights, activations); the simulator only ever sees the
//! generated inputs. `--trace 0` prints every end-to-end metric, `--trace 1`
//! every per-layer metric from a separate traced repetition (see
//! `GLOSSARY.md`). The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! report with provenance, sample counts and any failure messages.

mod fleet;
mod kernel;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// End-to-end metrics (`--trace 0`), name and unit. Every workload reports
/// every one; `GLOSSARY.md` gives each one's meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("host_steps_per_ref", "1/ref"),
    ("sim_output_tok_per_s", "tok/s"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_tpot_p50_ms", "ms"),
    ("sim_tpot_p99_ms", "ms"),
    ("sim_slo_attainment", "ratio"),
    ("sim_kernel_ms", "ms"),
    ("sim_kernel_speedup_vs_dense", "x"),
];

/// Per-layer metrics (`--trace 1`), name and unit, named after the crates.
/// A layer a workload does not run reports zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.step_cost.calls", "count"),
    ("serve.step_cost.host_us", "us"),
    ("serve.step_cost.share", "ratio"),
    ("serve.step_cost.tokens_per_call", "tokens"),
    ("serve.loop.host_s", "s"),
    ("serve.loop.host_ns_per_event", "ns"),
    ("serve.events.arrival", "count"),
    ("serve.events.admitted", "count"),
    ("serve.events.rejected", "count"),
    ("serve.events.step", "count"),
    ("serve.events.first_token", "count"),
    ("serve.events.completed", "count"),
    ("serve.events.total", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch.tokens_per_step.p50", "tokens"),
    ("moe.route.calls", "count"),
    ("moe.route.host_us", "us"),
    ("moe.route.host_ns_per_token", "ns"),
    ("moe.route.sim_imbalance", "ratio"),
    ("moe.layer_cost.host_us", "us"),
    ("moe.layer_cost.expert_evals", "count"),
    ("moe.layer_cost.key_reuse", "ratio"),
    ("dist.step_cost.host_us", "us"),
    ("dist.place.host_us", "us"),
    ("dist.place.fallback_ratio", "ratio"),
    ("dist.step.host_us", "us"),
    ("dist.sim_all_to_all_share", "ratio"),
    ("dist.sim_straggler_ratio", "ratio"),
    ("sparse.encode.host_ms", "ms"),
    ("sparse.encode.mb_per_s", "MB/s"),
    ("sparse.gather.host_ms", "ms"),
    ("sparse.compression_ratio", "x"),
    ("sptc.mma_sp.host_ns_per_tile", "ns"),
    ("kernels.execute.host_ms", "ms"),
    ("kernels.execute.host_gflop_per_s", "GFLOP/s"),
    ("kernels.profile.host_us", "us"),
    ("kernels.sim_flops", "FLOP"),
    ("kernels.sim_dram_bytes", "bytes"),
    ("gpu_sim.evaluate.host_us", "us"),
    ("trace.host_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet_short|cluster_ep|kernel_layer> \
--seed <u64> --seconds <positive number> --trace <0|1>";

const WORKLOADS: &[&str] = &["fleet_short", "cluster_ep", "kernel_layer"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced: operations and their failures, the
/// metrics of the requested mode, and the simulated values the determinism
/// check compares across runs.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every `sim_*` metric and `serve.events.*` count of the run, which
    /// must repeat bit for bit across runs of one workload and seed.
    pub digest: BTreeMap<String, f64>,
    pub details: BTreeMap<String, String>,
}

impl Run {
    /// Record one operation and the problems its checks found (none: the
    /// operation succeeded).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set `host_wall_ref` (median repetition in reference passes) and
    /// `host_steps_per_ref` (`steps` per repetition over it), record the
    /// raw host seconds as details, and return the median repetition's
    /// host seconds.
    pub fn set_host_time(&mut self, reps: &stats::Repetitions, steps: f64) -> f64 {
        let wall_ref = stats::median(&reps.in_reference_units());
        self.set("host_wall_ref", wall_ref);
        self.set("host_steps_per_ref", steps / wall_ref);
        let wall = stats::median(reps.walls());
        self.detail("timed_reps", reps.walls().len());
        self.detail("median_rep_wall_s", wall);
        self.detail(
            "ref_passes_s",
            reps.refs()
                .iter()
                .map(|r| format!("{r:.6}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        self.detail(
            "rep_walls_s",
            reps.walls()
                .iter()
                .map(|w| format!("{w:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        wall
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.insert(key.to_string(), value.to_string());
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a, for fingerprints (not security).
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// Digest of the simulator sources the benchmark builds (`crates/`, the
/// root manifest and lock file): identifies the code when the checkout is
/// not a git repository.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let hash = files.iter().fold(FNV_OFFSET, |h, path| {
        let h = fnv1a(h, path.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(path).unwrap_or_default())
    });
    format!("{hash:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(args: &Args) -> BTreeMap<&'static str, String> {
    BTreeMap::from([
        (
            "git_rev",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unavailable (not a git checkout)".into()),
        ),
        ("source_digest", source_digest()),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unavailable".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ])
}

/// Cross-run determinism: the first run of a (workload, seed, binary)
/// records its digest under the build directory; every later run must
/// reproduce it bit for bit. Returns the problems found.
fn check_determinism(args: &Args, digest: &BTreeMap<String, f64>) -> Vec<String> {
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv1a(FNV_OFFSET, &bytes));
    let dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-determinism");
    let path = dir.join(format!(
        "{}-seed{}-{exe_hash:016x}.txt",
        args.workload, args.seed
    ));
    let rendered: String = digest
        .iter()
        .map(|(k, v)| format!("{k} {:016x}\n", v.to_bits()))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == rendered => Vec::new(),
        Ok(previous) => {
            let before: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once(' ')).collect();
            let differing: Vec<String> = digest
                .iter()
                .filter(|(k, v)| {
                    before.get(k.as_str()) != Some(&format!("{:016x}", v.to_bits()).as_str())
                })
                .map(|(k, _)| k.clone())
                .collect();
            vec![format!(
                "determinism: simulated values differ from an earlier run of this workload, \
                 seed and binary: {differing:?}"
            )]
        }
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&tmp, &rendered))
                .and_then(|()| std::fs::rename(&tmp, &path));
            match written {
                Ok(()) => Vec::new(),
                Err(e) => vec![format!(
                    "determinism: cannot record {}: {e}",
                    path.display()
                )],
            }
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = pairs
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut run = match args.workload.as_str() {
        "kernel_layer" => kernel::run(&args),
        name => fleet::run(&args, fleet::Workload::from_name(name)),
    };
    let problems = check_determinism(&args, &run.digest);
    run.op(problems);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        run.set("peak_rss_mib", peak_rss_mib());
    }
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match run.metrics.get(name) {
            Some(v) => *v,
            // A layer this workload does not run did no work.
            None if args.trace => 0.0,
            None => {
                run.op(vec![format!("end-to-end metric {name} was not measured")]);
                0.0
            }
        };
        if !value.is_finite() {
            run.op(vec![format!("metric {name} is not finite")]);
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push((
            name,
            format!("{{\"value\": {value}, \"unit\": {}}}", json_string(unit)),
        ));
    }

    let prov = provenance(&args);
    let report = json_object(
        [
            (
                "provenance",
                json_object(prov.iter().map(|(k, v)| (*k, json_string(v)))),
            ),
            (
                "details",
                json_object(
                    run.details
                        .iter()
                        .map(|(k, v)| (k.as_str(), json_string(v))),
                ),
            ),
            (
                "failures",
                format!(
                    "[{}]",
                    run.failures
                        .iter()
                        .map(|f| json_string(f))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ]
        .into_iter(),
    );
    println!("{{\"perfbench_report\": {report}}}");
    for failure in &run.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_object(metrics.into_iter())
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload cluster_ep --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "cluster_ep");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet_short --seed x --seconds 1 --trace 0",
            "--workload fleet_short --seed 1 --seconds 0 --trace 0",
            "--workload fleet_short --seed 1 --seconds 1 --trace 2",
            "--workload fleet_short --seed 1 --seconds 1",
            "--workload fleet_short --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
