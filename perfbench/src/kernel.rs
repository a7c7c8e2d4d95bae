//! `kernel_layer`: one functional MoE layer through the Samoyeds format and
//! SpTC kernel, plus the kernel-level pricing every workload shares.
//!
//! The timed section prunes every projection into `SamoyedsWeight`, routes
//! the tokens with `TopKRouter`, runs `Engine::forward_samoyeds` (the
//! SEL-driven `SamoyedsKernel::execute` on gate, up and down) and prices each
//! kernel call against `DenseGemm` on the same problem. It touches no
//! `serve` or `dist` code.

use crate::stats::{another_rep, median, percentile, ratio, sample_times, timed, Repetitions};
use crate::{Args, Run};
use samoyeds_gpu_sim::{CostModel, DeviceSpec, KernelStats};
use samoyeds_kernels::fusion::Activation;
use samoyeds_kernels::gemm_dense::DenseGemm;
use samoyeds_kernels::{GemmProblem, SamoyedsKernel};
use samoyeds_moe::engines::Engine;
use samoyeds_moe::expert::{ExpertWeights, SamoyedsExpertWeights};
use samoyeds_moe::{MoeModelConfig, RoutingPlan, TopKRouter};
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::{DenseMatrix, SamoyedsWeight, SelInput, SelectionArray, SparseFormat};
use samoyeds_sptc::{mma_sp_m16n8k32, MmaTile, SparseATile};
use std::hint::black_box;
use std::time::Instant;

const EXPERTS: usize = 16;
const TOP_K: usize = 4;
const HIDDEN: usize = 256;
const INTERMEDIATE: usize = 512;
const TOKENS: usize = 512;
/// Token-level service limits of the layer (see `GLOSSARY.md`): a token's
/// layer output complete within this time of the layer start...
const TTFT_SLO_MS: f64 = 0.55;
/// ...and at most this much kernel time spent on it.
const TPOT_SLO_MS: f64 = 0.00113;
/// `allclose` tolerances of the output check (those of the quickstart).
const ATOL: f32 = 1e-3;
const RTOL: f32 = 1e-3;

fn device() -> DeviceSpec {
    DeviceSpec::rtx4070_super()
}

fn model() -> MoeModelConfig {
    MoeModelConfig {
        name: "kernel_layer".into(),
        num_experts: EXPERTS,
        top_k: TOP_K,
        num_shared_experts: 0,
        hidden_size: HIDDEN,
        intermediate_size: INTERMEDIATE,
        activation: Activation::Silu,
        ..MoeModelConfig::qwen2_moe()
    }
}

/// Predicted cost of one layer's routed expert kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPrice {
    /// Samoyeds time of each expert's three kernel calls, in expert order.
    pub expert_ms: Vec<f64>,
    /// Σ Samoyeds time over the calls, ms.
    pub samoyeds_ms: f64,
    /// Σ `DenseGemm` time over the same problems, ms.
    pub dense_ms: f64,
    /// Σ useful FLOPs and DRAM bytes of the Samoyeds calls.
    pub flops: f64,
    pub dram_bytes: f64,
    /// The Samoyeds problems priced, three per non-empty expert.
    pub problems: Vec<GemmProblem>,
}

/// Price gate, up and down of every expert with `expert_tokens[e]` routed
/// tokens out of `total_tokens`, on the problems `SamoyedsKernel::execute`
/// builds for them, and the dense GEMMs over the same tokens.
pub fn price_layer(
    device: &DeviceSpec,
    hidden: usize,
    intermediate: usize,
    total_tokens: usize,
    expert_tokens: &[usize],
) -> LayerPrice {
    let kernel = SamoyedsKernel::new(device.clone());
    let dense = DenseGemm::new(device.clone());
    let cfg = SamoyedsConfig::DEFAULT;
    let mut price = LayerPrice {
        expert_ms: Vec::with_capacity(expert_tokens.len()),
        samoyeds_ms: 0.0,
        dense_ms: 0.0,
        flops: 0.0,
        dram_bytes: 0.0,
        problems: Vec::new(),
    };
    for &n in expert_tokens {
        if n == 0 {
            price.expert_ms.push(0.0);
            continue;
        }
        let calls = [
            (
                GemmProblem::samoyeds(intermediate, hidden, total_tokens, n, cfg),
                GemmProblem::dense(intermediate, hidden, n),
            ),
            (
                GemmProblem::samoyeds(intermediate, hidden, total_tokens, n, cfg),
                GemmProblem::dense(intermediate, hidden, n),
            ),
            (
                GemmProblem::samoyeds(hidden, intermediate, n, n, cfg),
                GemmProblem::dense(hidden, intermediate, n),
            ),
        ];
        let mut expert = 0.0;
        for (sparse, dense_problem) in calls {
            let stats: KernelStats = kernel.stats(&sparse);
            expert += stats.time_ms;
            price.flops += stats.total_flops;
            price.dram_bytes += stats.dram_bytes;
            price.dense_ms += dense.stats(&dense_problem).time_ms;
            price.problems.push(sparse);
        }
        price.expert_ms.push(expert);
        price.samoyeds_ms += expert;
    }
    price
}

/// Host time of the analytical pair inside every price: mean µs per
/// `SamoyedsKernel::profile` and per `CostModel::evaluate` over `problems`,
/// repeated until enough calls are timed for a stable mean.
pub fn time_pricing(device: &DeviceSpec, problems: &[GemmProblem]) -> (f64, f64) {
    if problems.is_empty() {
        return (0.0, 0.0);
    }
    let kernel = SamoyedsKernel::new(device.clone());
    let model = CostModel::new(device.clone());
    let (mut profile_ns, mut evaluate_ns, mut calls) = (0u128, 0u128, 0u64);
    while calls < 20_000 {
        for problem in problems {
            let t = Instant::now();
            let profile = black_box(kernel.profile(black_box(problem)));
            profile_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(model.evaluate(&profile));
            evaluate_ns += t.elapsed().as_nanos();
            calls += 1;
        }
    }
    (
        profile_ns as f64 / calls as f64 / 1e3,
        evaluate_ns as f64 / calls as f64 / 1e3,
    )
}

/// Fleet-style service figures of the layer, one per token: experts run
/// back to back in index order (the order `Engine::forward_samoyeds`
/// executes them), so a token's output is complete when its last routed
/// expert finishes (its time to first token); its time per output token is
/// the kernel time spent on it, each routed expert's call time divided by
/// the tokens that call served.
fn token_service(plan: &RoutingPlan, price: &LayerPrice) -> (Vec<f64>, Vec<f64>) {
    let mut done = 0.0;
    let mut complete = vec![0.0f64; plan.num_tokens];
    let mut spent = vec![0.0f64; plan.num_tokens];
    for (e, tokens) in plan.expert_tokens.iter().enumerate() {
        done += price.expert_ms[e];
        for &t in tokens {
            complete[t as usize] = done;
            spent[t as usize] += price.expert_ms[e] / tokens.len() as f64;
        }
    }
    (complete, spent)
}

struct Inputs {
    experts: Vec<ExpertWeights>,
    x: DenseMatrix,
    router: TopKRouter,
}

fn setup(seed: u64) -> Inputs {
    let model = model();
    Inputs {
        experts: (0..EXPERTS)
            .map(|e| ExpertWeights::random(&model, e, seed))
            .collect(),
        x: DenseMatrix::random(HIDDEN, TOKENS, seed ^ 0x6b65_726e_656c),
        router: TopKRouter::new(EXPERTS, TOP_K, seed).expect("top_k <= experts"),
    }
}

fn expert_tokens(plan: &RoutingPlan) -> Vec<usize> {
    (0..plan.num_experts())
        .map(|e| plan.tokens_for(e))
        .collect()
}

struct Forward {
    pruned: Vec<SamoyedsExpertWeights>,
    plan: RoutingPlan,
    out: DenseMatrix,
    price: LayerPrice,
}

/// The timed section: encode, route, execute, price.
fn forward(inputs: &Inputs, device: &DeviceSpec) -> Result<Forward, String> {
    let pruned = inputs
        .experts
        .iter()
        .map(|w| w.prune_samoyeds(SamoyedsConfig::DEFAULT))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("encode: {e}"))?;
    let plan = inputs.router.route(TOKENS);
    let out = Engine::forward_samoyeds(device, &pruned, &inputs.x, &plan)
        .map_err(|e| format!("forward_samoyeds: {e}"))?;
    let price = price_layer(device, HIDDEN, INTERMEDIATE, TOKENS, &expert_tokens(&plan));
    Ok(Forward {
        pruned,
        plan,
        out,
        price,
    })
}

/// The dense product of the pruned weights (Transformers-style data flow).
fn reference(
    pruned: &[SamoyedsExpertWeights],
    x: &DenseMatrix,
    plan: &RoutingPlan,
) -> Result<DenseMatrix, String> {
    let dense: Vec<ExpertWeights> = pruned
        .iter()
        .map(|p| ExpertWeights {
            gate: p.gate.to_dense(),
            up: p.up.to_dense(),
            down: p.down.to_dense(),
            activation: p.activation,
        })
        .collect();
    Engine::forward_reference(&dense, x, plan).map_err(|e| format!("reference: {e}"))
}

fn close_problems(what: &str, out: &DenseMatrix, expected: &DenseMatrix) -> Vec<String> {
    if out.shape() == expected.shape() && out.allclose(expected, ATOL, RTOL) {
        Vec::new()
    } else {
        vec![format!(
            "{what}: output not allclose to the dense product of the pruned weights \
             (max diff {:.3e})",
            out.max_abs_diff(expected)
        )]
    }
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let device = device();

    let inputs = setup(args.seed);

    // Warm-up repetition: checked against the dense reference, and the
    // baseline every timed repetition must reproduce bit for bit.
    let first = match forward(&inputs, &device) {
        Ok(first) => first,
        Err(e) => {
            run.op(vec![e]);
            return run;
        }
    };
    let problems = match reference(&first.pruned, &inputs.x, &first.plan) {
        Ok(expected) => close_problems("warm-up", &first.out, &expected),
        Err(e) => vec![e],
    };
    run.op(problems);

    // One timed set-up before each timed repetition; the median over the
    // run is reported.
    let mut setups = Vec::new();
    let mut reps = Repetitions::default();
    let start = Instant::now();
    while another_rep(reps.walls(), start.elapsed().as_secs_f64(), args.seconds) {
        sample_times(&mut setups, 1, 1, 0.0, || setup(args.seed));
        let (rep, t) = timed(|| forward(&inputs, &device));
        reps.push(t);
        run.op(match rep {
            Err(e) => vec![e],
            Ok(rep)
                if rep.out != first.out || rep.price != first.price || rep.plan != first.plan =>
            {
                vec!["repetition differs from the warm-up repetition".into()]
            }
            Ok(_) => Vec::new(),
        });
    }

    let price = &first.price;
    let calls = price.problems.len() as f64;
    let (ttft, tpot) = token_service(&first.plan, price);
    let attained = ttft
        .iter()
        .zip(&tpot)
        .filter(|&(&t, &p)| t <= TTFT_SLO_MS && p <= TPOT_SLO_MS)
        .count();
    let sims = [
        (
            "sim_output_tok_per_s",
            TOKENS as f64 / (price.samoyeds_ms / 1e3),
        ),
        ("sim_ttft_p50_ms", percentile(&ttft, 0.5)),
        ("sim_ttft_p99_ms", percentile(&ttft, 0.99)),
        ("sim_tpot_p50_ms", percentile(&tpot, 0.5)),
        ("sim_tpot_p99_ms", percentile(&tpot, 0.99)),
        ("sim_slo_attainment", attained as f64 / TOKENS as f64),
        ("sim_kernel_ms", price.samoyeds_ms),
        (
            "sim_kernel_speedup_vs_dense",
            price.dense_ms / price.samoyeds_ms,
        ),
    ];
    for (name, value) in sims {
        run.set(name, value);
        run.digest.insert(name.to_string(), value);
    }
    let wall = run.set_host_time(&reps, calls);
    run.set("setup_s", median(&setups));
    run.detail("kernel_calls", calls);
    run.detail("setups", setups.len());
    run.detail("ttft_samples", ttft.len());
    run.detail("tpot_samples", tpot.len());

    if args.trace {
        traced(&mut run, &inputs, &device, &first, wall);
    }
    run
}

/// `mma.sp` fragments the fragment-wise kernel issues for `weight` over
/// `cols` input columns.
fn mma_tiles(weight: &SamoyedsWeight, cols: usize) -> u64 {
    let frags_per_window = weight.config().v / 32;
    (weight.compressed_rows().div_ceil(16)
        * cols.div_ceil(8)
        * weight.col_blocks()
        * frags_per_window) as u64
}

/// Host ns per `mma_sp_m16n8k32`, timed over `tiles` calls on fixed
/// fragments.
fn time_mma_sp(tiles: u64) -> f64 {
    let values: Vec<f32> = (0..16 * 16).map(|i| 0.5 + (i % 7) as f32 * 0.125).collect();
    // Two of every four positions kept, indices strictly increasing.
    let metadata: Vec<u8> = (0..16 * 16).map(|i| [0u8, 2][i % 2]).collect();
    let a = SparseATile::new(values, metadata).expect("valid 2:4 fragment");
    let b = MmaTile::from_vec(32, 8, (0..32 * 8).map(|i| (i % 5) as f32 * 0.25).collect())
        .expect("32x8 fragment");
    let mut c = MmaTile::zeros(16, 8);
    let start = Instant::now();
    for _ in 0..tiles {
        mma_sp_m16n8k32(black_box(&a), black_box(&b), &mut c, false).expect("fragment shapes");
    }
    black_box(&c);
    ratio(start.elapsed().as_nanos() as f64, tiles as f64)
}

/// `prune_samoyeds` of every projection, one timer around each
/// `SamoyedsWeight::prune_from_dense`: the pruned experts, the encode ns and
/// the dense f32 bytes encoded.
fn encode_timed(
    experts: &[ExpertWeights],
) -> samoyeds_sparse::Result<(Vec<SamoyedsExpertWeights>, u128, usize)> {
    let (mut ns, mut bytes) = (0u128, 0usize);
    let mut encode = |m: &DenseMatrix| {
        bytes += m.rows() * m.cols() * 4;
        let t = Instant::now();
        let out = SamoyedsWeight::prune_from_dense(m, SamoyedsConfig::DEFAULT);
        ns += t.elapsed().as_nanos();
        out
    };
    let mut pruned = Vec::with_capacity(experts.len());
    for w in experts {
        pruned.push(SamoyedsExpertWeights {
            gate: encode(&w.gate)?,
            up: encode(&w.up)?,
            down: encode(&w.down)?,
            activation: w.activation,
        });
    }
    Ok((pruned, ns, bytes))
}

/// The traced repetition: the same work as [`forward`], step by step with a
/// timer around each call into `sparse`, `moe` and `kernels`.
fn traced(
    run: &mut Run,
    inputs: &Inputs,
    device: &DeviceSpec,
    first: &Forward,
    untraced_wall: f64,
) {
    let start = Instant::now();
    let (pruned, encode_ns, encoded_bytes) = match encode_timed(&inputs.experts) {
        Ok(encoded) => encoded,
        Err(e) => {
            run.op(vec![format!("traced encode: {e}")]);
            return;
        }
    };

    let t = Instant::now();
    let plan = inputs.router.route(TOKENS);
    let route_ns = t.elapsed().as_nanos();

    let kernel = SamoyedsKernel::new(device.clone());
    let (mut gather_ns, mut execute_ns, mut flops, mut tiles) = (0u128, 0u128, 0.0f64, 0u64);
    let mut out = DenseMatrix::zeros(inputs.x.rows(), inputs.x.cols());
    let mut execute = |w: &SamoyedsWeight, input: &SelInput| {
        let t = Instant::now();
        black_box(input.gather());
        gather_ns += t.elapsed().as_nanos();
        flops += 2.0 * (w.rows() * w.cols() * input.selected_cols()) as f64;
        tiles += mma_tiles(w, input.selected_cols());
        let t = Instant::now();
        let result = kernel.execute(w, input);
        execute_ns += t.elapsed().as_nanos();
        result.map(|(m, _)| m)
    };
    let mut failure = None;
    for (e, weights) in pruned.iter().enumerate() {
        let step = (|| {
            let sel = plan.selection(e)?;
            if sel.is_empty() {
                return Ok(());
            }
            let input = SelInput::new(inputs.x.clone(), sel.clone())?;
            let gate = execute(&weights.gate, &input)?;
            let up = execute(&weights.up, &input)?;
            let inter = weights.activation.apply_matrix(&gate).hadamard(&up)?;
            let down = execute(
                &weights.down,
                &SelInput::new(inter, SelectionArray::all(sel.len()))?,
            )?;
            for (slot, &tok) in sel.indices().iter().enumerate() {
                let w = plan.expert_weights[e][slot];
                for r in 0..out.rows() {
                    out.set(
                        r,
                        tok as usize,
                        out.get(r, tok as usize) + w * down.get(r, slot),
                    );
                }
            }
            Ok::<(), samoyeds_sparse::SparseError>(())
        })();
        if let Err(err) = step {
            failure = Some(format!("traced execute: {err}"));
            break;
        }
    }
    let price = price_layer(device, HIDDEN, INTERMEDIATE, TOKENS, &expert_tokens(&plan));
    let traced_wall = start.elapsed().as_secs_f64();

    let mut problems: Vec<String> = failure.into_iter().collect();
    if problems.is_empty() {
        problems.extend(close_problems("traced repetition", &out, &first.out));
    }
    if price != first.price {
        problems.push("traced pricing differs from the untraced repetitions".into());
    }
    run.op(problems);

    let (profile_us, evaluate_us) = time_pricing(device, &price.problems);
    let dense_bytes: usize = pruned
        .iter()
        .flat_map(|p| [&p.gate, &p.up, &p.down])
        .map(|w| w.rows() * w.cols() * 2)
        .sum();
    let stored_bytes: usize = pruned
        .iter()
        .flat_map(|p| [&p.gate, &p.up, &p.down])
        .map(|w| w.storage_bytes(true))
        .sum();
    let encode_s = encode_ns as f64 / 1e9;
    let execute_s = execute_ns as f64 / 1e9;
    let per_layer = [
        ("sparse.encode.host_ms", encode_s * 1e3),
        (
            "sparse.encode.mb_per_s",
            ratio(encoded_bytes as f64 / 1e6, encode_s),
        ),
        ("sparse.gather.host_ms", gather_ns as f64 / 1e6),
        (
            "sparse.compression_ratio",
            ratio(dense_bytes as f64, stored_bytes as f64),
        ),
        ("sptc.mma_sp.host_ns_per_tile", time_mma_sp(tiles)),
        ("kernels.execute.host_ms", execute_s * 1e3),
        (
            "kernels.execute.host_gflop_per_s",
            ratio(flops / 1e9, execute_s),
        ),
        ("kernels.profile.host_us", profile_us),
        ("kernels.sim_flops", price.flops),
        ("kernels.sim_dram_bytes", price.dram_bytes),
        ("gpu_sim.evaluate.host_us", evaluate_us),
        ("moe.route.calls", 1.0),
        ("moe.route.host_us", route_ns as f64 / 1e3),
        (
            "moe.route.host_ns_per_token",
            route_ns as f64 / TOKENS as f64,
        ),
        ("moe.route.sim_imbalance", plan.imbalance()),
        ("trace.host_wall_s", traced_wall),
        ("trace.overhead_ratio", traced_wall / untraced_wall),
    ];
    for (name, value) in per_layer {
        run.set(name, value);
    }
    run.detail("mma_sp_tiles", tiles);
}
