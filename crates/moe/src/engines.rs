//! The MoE execution engines compared in the paper: Transformers (permute +
//! per-expert dense GEMMs), MegaBlocks (block-sparse grouped GEMM), vLLM-DS
//! (fused MoE kernel), PIT (permutation-invariant dynamic-sparsity compiler)
//! and Samoyeds (dual-side structured sparsity on the Sparse Tensor Cores).
//!
//! Each engine converts a model configuration, a number of tokens and a
//! routing plan into a [`LayerCost`]: the predicted MoE-layer execution time
//! on a device plus the memory the layer's weights and transient activations
//! occupy. The differences between engines are exactly the data-flow
//! redundancies of §3.1 (permutation copies, un-permutation round trips,
//! per-expert launches, padding) and the kernel each one can call.

use crate::config::MoeModelConfig;
use crate::expert::{ExpertWeights, SamoyedsExpertWeights};
use crate::router::RoutingPlan;
use samoyeds_gpu_sim::{CostModel, DeviceSpec};
use samoyeds_kernels::fusion::{standalone_epilogue_cost, Activation};
use samoyeds_kernels::gemm_dense::DenseGemm;
use samoyeds_kernels::samoyeds_kernel::{SamoyedsKernel, SamoyedsOptions};
use samoyeds_kernels::{GemmProblem, TilingConfig};
use samoyeds_sparse::samoyeds::SamoyedsConfig;
use samoyeds_sparse::{DenseMatrix, Result, SelInput, SelectionArray, SparseError};
use serde::{Deserialize, Serialize};

/// Which execution engine a cost was produced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineKind {
    /// HuggingFace Transformers: permute, per-expert dense GEMMs, un-permute.
    Transformers,
    /// MegaBlocks: grouped block-sparse GEMM over all experts.
    MegaBlocks,
    /// vLLM-DS: fused MoE kernel (dense weights).
    VllmDs,
    /// PIT: permutation-invariant transformation of dynamic sparsity, dense
    /// tensor cores only.
    Pit,
    /// Samoyeds: dual-side structured sparsity on Sparse Tensor Cores.
    Samoyeds,
}

impl EngineKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Transformers => "Transformers",
            EngineKind::MegaBlocks => "MegaBlocks",
            EngineKind::VllmDs => "vLLM-DS",
            EngineKind::Pit => "PIT",
            EngineKind::Samoyeds => "Samoyeds",
        }
    }

    /// All engines compared in Figure 14/15.
    pub fn all() -> [EngineKind; 5] {
        [
            EngineKind::Transformers,
            EngineKind::MegaBlocks,
            EngineKind::VllmDs,
            EngineKind::Pit,
            EngineKind::Samoyeds,
        ]
    }
}

/// Predicted cost of executing one MoE layer (or one decoder layer when the
/// attention cost is folded in by [`crate::decoder`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Predicted execution time in milliseconds.
    pub time_ms: f64,
    /// Bytes of model weights the engine keeps resident for this layer.
    pub weight_bytes: f64,
    /// Peak transient activation/workspace bytes for this many tokens.
    pub activation_bytes: f64,
    /// False when the engine cannot run this model at all (the `NS` entries
    /// of Figure 14: MegaBlocks / vLLM-DS lack kernels for OpenMoE's
    /// activation function).
    pub supported: bool,
}

impl LayerCost {
    /// An unsupported marker.
    pub fn unsupported() -> Self {
        Self {
            time_ms: f64::INFINITY,
            weight_bytes: 0.0,
            activation_bytes: 0.0,
            supported: false,
        }
    }

    /// Total memory footprint (weights + activations).
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.activation_bytes
    }
}

/// An MoE execution engine bound to a device.
#[derive(Debug, Clone)]
pub struct Engine {
    kind: EngineKind,
    device: DeviceSpec,
    samoyeds_cfg: SamoyedsConfig,
    samoyeds_options: SamoyedsOptions,
}

impl Engine {
    /// Create an engine of the given kind on a device.
    pub fn new(kind: EngineKind, device: DeviceSpec) -> Self {
        Self {
            kind,
            device,
            samoyeds_cfg: SamoyedsConfig::DEFAULT,
            samoyeds_options: SamoyedsOptions::FULL,
        }
    }

    /// Override the Samoyeds sparsity configuration (only meaningful for the
    /// Samoyeds engine).
    pub fn with_samoyeds_config(mut self, cfg: SamoyedsConfig) -> Self {
        self.samoyeds_cfg = cfg;
        self
    }

    /// Override the Samoyeds optimisation toggles (used by the Figure 17
    /// breakdown).
    pub fn with_samoyeds_options(mut self, options: SamoyedsOptions) -> Self {
        self.samoyeds_options = options;
        self
    }

    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The device the engine targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Whether the engine has kernels for this model (the `NS` rule).
    pub fn supports(&self, config: &MoeModelConfig) -> bool {
        match self.kind {
            EngineKind::MegaBlocks | EngineKind::VllmDs => config.activation != Activation::Relu,
            _ => true,
        }
    }

    /// Resident weight bytes for one MoE layer under this engine.
    pub fn weight_bytes(&self, config: &MoeModelConfig) -> f64 {
        let dense = config.params_per_moe_layer() as f64 * 2.0;
        match self.kind {
            // Dense bf16 weights.
            EngineKind::Transformers | EngineKind::Pit => dense,
            // MegaBlocks / vLLM keep the dense weights plus reordered /
            // padded copies and per-expert workspace tensors sized with the
            // weights; this is what costs them maximum batch size in Table 3.
            EngineKind::MegaBlocks | EngineKind::VllmDs => dense * 2.5,
            // Samoyeds stores the compressed (data + metadata + indices)
            // form: 25% of the values, ~12.5% metadata overhead.
            EngineKind::Samoyeds => {
                dense * (1.0 - self.samoyeds_cfg.sparsity()) * 1.125
                    + config.params_per_moe_layer() as f64 / self.samoyeds_cfg.v as f64
            }
        }
    }

    /// Peak transient activation bytes for `num_tokens` routed tokens.
    pub fn activation_bytes(&self, config: &MoeModelConfig, num_tokens: usize) -> f64 {
        let h = config.hidden_size as f64;
        let i = config.intermediate_size as f64;
        let t = num_tokens as f64;
        let k = config.top_k as f64 + config.num_shared_experts as f64;
        match self.kind {
            // Permuted input copies + gate/up/intermediate buffers + expert
            // outputs awaiting un-permutation, all at bf16.
            EngineKind::Transformers => t * (2.0 * h * (1.0 + k) + 3.0 * i * k) * 2.0,
            // No permutation copy, but block padding and grouped workspace.
            EngineKind::MegaBlocks => t * (h * (1.0 + k) + 3.2 * i * k) * 2.0,
            // Fused kernel keeps gate/up in flight but materialises the
            // per-expert intermediate workspace.
            EngineKind::VllmDs => t * (h + 2.5 * i * k) * 2.0,
            EngineKind::Pit => t * (h + 2.2 * i * k) * 2.0,
            // SEL-driven kernel: no permute copies, compressed intermediate
            // layout, fused activation.
            EngineKind::Samoyeds => t * (h + 1.2 * i * k) * 2.0,
        }
    }

    /// Predicted cost of one MoE layer for `num_tokens` tokens routed by
    /// `plan`. Only the per-expert token counts of the plan matter; see
    /// [`Self::moe_layer_cost_for_loads`].
    pub fn moe_layer_cost(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        plan: &RoutingPlan,
    ) -> LayerCost {
        self.moe_layer_cost_for_loads(config, num_tokens, &plan.expert_loads())
    }

    /// Predicted cost of one MoE layer for `num_tokens` tokens, given the
    /// routed token count of every expert (`loads[e]`, in expert order).
    ///
    /// An expert kernel reads its tokens through the SEL array, so what it
    /// costs depends only on how many tokens it was given: this is the
    /// whole of what a routing plan contributes to the layer's cost.
    pub fn moe_layer_cost_for_loads(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
    ) -> LayerCost {
        if !self.supports(config) {
            return LayerCost::unsupported();
        }
        let time_ms = match self.kind {
            EngineKind::Transformers => self.time_transformers(config, num_tokens, loads),
            EngineKind::MegaBlocks => self.time_grouped(config, num_tokens, loads, 128, 0.9),
            EngineKind::VllmDs => self.time_fused_dense(config, num_tokens, loads, 64),
            EngineKind::Pit => self.time_pit(config, num_tokens, loads),
            EngineKind::Samoyeds => self.time_samoyeds(config, num_tokens, loads),
        };
        LayerCost {
            time_ms,
            weight_bytes: self.weight_bytes(config),
            activation_bytes: self.activation_bytes(config, num_tokens),
            supported: true,
        }
    }

    /// Expert GEMM helper: the three projections of one expert over `tokens`
    /// tokens, costed with the dense cuBLAS-like kernel.
    fn dense_expert_time_ms(gemm: &DenseGemm, config: &MoeModelConfig, tokens: usize) -> f64 {
        if tokens == 0 {
            return 0.0;
        }
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let gate = gemm.stats(&GemmProblem::dense(i, h, tokens)).time_ms;
        // The up projection has the gate's shape.
        let up = gate;
        let down = gemm.stats(&GemmProblem::dense(h, i, tokens)).time_ms;
        gate + up + down
    }

    /// Sum over the routed experts of the three projections on the dense
    /// kernel, each expert's tokens padded up to a multiple of `tile` (the
    /// grouped, fused and PIT kernels differ only in their tile).
    fn padded_dense_experts_ms(
        gemm: &DenseGemm,
        config: &MoeModelConfig,
        loads: &[usize],
        tile: usize,
    ) -> f64 {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let mut memo = ExpertMemo::default();
        let mut total = 0.0;
        for &tokens in loads.iter().filter(|&&t| t > 0) {
            let [gate_up, down] = memo.get(tokens.div_ceil(tile) * tile, |padded| {
                [
                    gemm.stats(&GemmProblem::dense(i, h, padded)).time_ms * 2.0,
                    gemm.stats(&GemmProblem::dense(h, i, padded)).time_ms,
                ]
            });
            total += gate_up;
            total += down;
        }
        total
    }

    /// Extra time of an element-wise pass (activation or weighted
    /// accumulation) executed as its own kernel over an `m x n` bf16 tensor.
    fn elementwise_pass_ms(&self, m: usize, n: usize, act: Activation) -> f64 {
        let (read, write, flops, overhead_us) = standalone_epilogue_cost(m, n, act);
        let bandwidth = self.device.mem_bandwidth_gbps * 1e9;
        let cuda = self.device.cuda_tflops_fp32 * 1e12 * 0.5;
        ((read + write) / bandwidth + flops / cuda) * 1e3 + overhead_us * 1e-3
    }

    /// Cost of copying `bytes` through global memory (a permute / un-permute
    /// data movement pass).
    fn copy_pass_ms(&self, bytes: f64) -> f64 {
        (2.0 * bytes / (self.device.mem_bandwidth_gbps * 1e9)) * 1e3 + 5.0e-3
    }

    /// Transformers-style execution: permute, per-expert dense GEMMs with
    /// standalone activations, un-permute with weighted accumulation.
    fn time_transformers(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
    ) -> f64 {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let gemm = DenseGemm::new(self.device.clone());
        let mut total = 0.0;
        // Input permutation: every routed token is copied into its expert's
        // buffer.
        let permuted_tokens: usize = loads.iter().sum();
        total += self.copy_pass_ms((permuted_tokens * h) as f64 * 2.0);
        let mut memo = ExpertMemo::default();
        for &tokens in loads.iter().filter(|&&t| t > 0) {
            let [gemms, activation, gating] = memo.get(tokens, |tokens| {
                [
                    Self::dense_expert_time_ms(&gemm, config, tokens),
                    // Standalone activation + gating multiply over the
                    // intermediate.
                    self.elementwise_pass_ms(i, tokens, config.activation),
                    self.elementwise_pass_ms(i, tokens, Activation::Identity),
                ]
            });
            total += gemms;
            total += activation;
            total += gating;
        }
        // Shared experts process every token.
        for _ in 0..config.num_shared_experts {
            total += Self::dense_expert_time_ms(&gemm, config, num_tokens);
            total += self.elementwise_pass_ms(i, num_tokens, config.activation);
        }
        // Weighted un-permutation: expert outputs are written to global
        // memory, re-read, scaled and accumulated into the final output.
        total += self.copy_pass_ms((permuted_tokens * h) as f64 * 2.0 * 2.0);
        total += self.elementwise_pass_ms(h, num_tokens, Activation::Identity);
        total
    }

    /// Grouped dense execution (MegaBlocks-like): one launch over all
    /// experts, tokens padded to `block` per expert, partial fusion.
    fn time_grouped(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
        block: usize,
        fusion_quality: f64,
    ) -> f64 {
        let h = config.hidden_size;
        let i = config.intermediate_size;
        let gemm = DenseGemm::new(self.device.clone());
        let gemm_ms = Self::padded_dense_experts_ms(&gemm, config, loads, block);
        // Grouping removes the per-expert launch overheads except one, and
        // fuses most of the element-wise work.
        let launches_saved = (loads.len().saturating_sub(1) * 3) as f64 * 5.0e-3;
        let mut total = gemm_ms - launches_saved.min(gemm_ms * 0.1);
        total +=
            (1.0 - fusion_quality) * self.elementwise_pass_ms(i, num_tokens, config.activation);
        // Shared experts are ordinary dense GEMMs.
        for _ in 0..config.num_shared_experts {
            total += Self::dense_expert_time_ms(&gemm, config, num_tokens);
        }
        // Token gather/scatter still happens once each way.
        total += self.copy_pass_ms((loads.iter().sum::<usize>() * h) as f64 * 2.0);
        total
    }

    /// Fused dense MoE kernel (vLLM-DS-like): in-kernel gather, tokens padded
    /// to the kernel tile, fused activation and accumulation.
    fn time_fused_dense(
        &self,
        config: &MoeModelConfig,
        num_tokens: usize,
        loads: &[usize],
        tile: usize,
    ) -> f64 {
        let h = config.hidden_size;
        let gemm = DenseGemm::new(self.device.clone());
        let mut total = Self::padded_dense_experts_ms(&gemm, config, loads, tile);
        // The fused kernel eliminates the separate permute/un-permute passes
        // and the element-wise kernels; only a small in-kernel gather cost
        // proportional to the routed tokens remains.
        total += self.copy_pass_ms((loads.iter().sum::<usize>() * h) as f64 * 2.0) * 0.3;
        for _ in 0..config.num_shared_experts {
            total += Self::dense_expert_time_ms(&gemm, config, num_tokens);
        }
        total
    }

    /// PIT-like execution: micro-tile permutation invariant packing removes
    /// padding waste entirely but the compute stays on the dense tensor
    /// cores and the packing itself costs one extra pass over the tokens.
    fn time_pit(&self, config: &MoeModelConfig, num_tokens: usize, loads: &[usize]) -> f64 {
        let h = config.hidden_size;
        let gemm = DenseGemm::new(self.device.clone());
        // Micro-tiles of 16 remove almost all padding.
        let mut total = Self::padded_dense_experts_ms(&gemm, config, loads, 16);
        total += self.copy_pass_ms((loads.iter().sum::<usize>() * h) as f64 * 2.0) * 0.5;
        for _ in 0..config.num_shared_experts {
            total += Self::dense_expert_time_ms(&gemm, config, num_tokens);
        }
        total
    }

    /// Cost of one expert (three projections) under the Samoyeds `kernel`.
    /// `padded` is the expert's routed token count padded to the kernel's
    /// N-tile ([`samoyeds_padded`]), `total` the logical token count the SEL
    /// array indexes into.
    fn samoyeds_expert_time_ms(
        &self,
        kernel: &SamoyedsKernel,
        config: &MoeModelConfig,
        padded: usize,
        total: usize,
    ) -> f64 {
        if padded == 0 {
            return 0.0;
        }
        let h = config.hidden_size;
        let i = config.intermediate_size;
        // With input sparsity the kernel indexes the full token buffer through
        // the SEL array; without it (the "+W" data flow) the expert receives
        // an already-gathered buffer of just its own tokens.
        let logical_n = if kernel.options().input_sparsity {
            total.max(padded)
        } else {
            padded
        };
        let gate = kernel
            .stats(&GemmProblem::samoyeds(
                i,
                h,
                logical_n,
                padded,
                self.samoyeds_cfg,
            ))
            .time_ms;
        let down = kernel
            .stats(&GemmProblem::samoyeds(
                h,
                i,
                padded,
                padded,
                self.samoyeds_cfg,
            ))
            .time_ms;
        gate * 2.0 + down
    }

    /// Samoyeds execution: dual-side sparse kernels straight off the SEL
    /// arrays, fused activation and weighted accumulation, no permute
    /// round-trips.
    fn time_samoyeds(&self, config: &MoeModelConfig, num_tokens: usize, loads: &[usize]) -> f64 {
        let kernel = SamoyedsKernel::with_options(self.device.clone(), self.samoyeds_options);
        let mut memo = ExpertMemo::default();
        let mut total = 0.0;
        let price = |padded| self.samoyeds_expert_time_ms(&kernel, config, padded, num_tokens);
        for &tokens in loads {
            total += memo.get(samoyeds_padded(tokens), price);
        }
        // Shared experts are experts that see every token.
        for _ in 0..config.num_shared_experts {
            total += memo.get(samoyeds_padded(num_tokens), price);
        }
        // The weighted accumulation is fused; only the final dense output
        // write remains, which the kernel already accounts for. A residual
        // reduction across experts' compressed outputs costs one pass when
        // the optimized layout is disabled (handled inside the kernel model).
        if !self.samoyeds_options.input_sparsity {
            // The "+W" configuration keeps the permute/un-permute flow.
            let h = config.hidden_size;
            total += self.copy_pass_ms((loads.iter().sum::<usize>() * h) as f64 * 2.0 * 3.0);
        }
        total
    }

    /// Functional reference forward of the whole MoE layer under
    /// Transformers-style semantics (gather → expert → weighted scatter),
    /// used to validate that every engine computes the same function.
    pub fn forward_reference(
        experts: &[ExpertWeights],
        x: &DenseMatrix,
        plan: &RoutingPlan,
    ) -> Result<DenseMatrix> {
        if plan.num_experts() != experts.len() {
            return Err(SparseError::config("expert count mismatch"));
        }
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        for (e, weights) in experts.iter().enumerate() {
            let sel = plan.selection(e)?;
            if sel.is_empty() {
                continue;
            }
            let gathered = x.select_columns(&sel.indices_usize())?;
            let y = weights.forward(&gathered)?;
            for (slot, &tok) in sel.indices().iter().enumerate() {
                let w = plan.expert_weights[e][slot];
                for r in 0..out.rows() {
                    let cur = out.get(r, tok as usize);
                    out.set(r, tok as usize, cur + w * y.get(r, slot));
                }
            }
        }
        Ok(out)
    }

    /// Functional forward of the MoE layer through the Samoyeds kernel path
    /// (SEL-driven sparse experts, weighted accumulation on the compressed
    /// output). Numerically this differs from [`Self::forward_reference`]
    /// only by the weight pruning error.
    pub fn forward_samoyeds(
        device: &DeviceSpec,
        experts: &[SamoyedsExpertWeights],
        x: &DenseMatrix,
        plan: &RoutingPlan,
    ) -> Result<DenseMatrix> {
        let kernel = SamoyedsKernel::new(device.clone());
        let mut out = DenseMatrix::zeros(x.rows(), x.cols());
        for (e, weights) in experts.iter().enumerate() {
            let sel = plan.selection(e)?;
            if sel.is_empty() {
                continue;
            }
            let input = SelInput::new(x.clone(), sel.clone())?;
            let (gate_out, _) = kernel.execute(&weights.gate, &input)?;
            let (up_out, _) = kernel.execute(&weights.up, &input)?;
            let inter = weights
                .activation
                .apply_matrix(&gate_out)
                .hadamard(&up_out)?;
            let inter_input = SelInput::new(inter, SelectionArray::all(sel.len()))?;
            let (down_out, _) = kernel.execute(&weights.down, &inter_input)?;
            for (slot, &tok) in sel.indices().iter().enumerate() {
                let w = plan.expert_weights[e][slot];
                for r in 0..out.rows() {
                    let cur = out.get(r, tok as usize);
                    out.set(r, tok as usize, cur + w * down_out.get(r, slot));
                }
            }
        }
        Ok(out)
    }

    /// Convenience: evaluate the MoE-layer time of every engine on the same
    /// routing plan, in [`EngineKind::all`] order.
    pub fn compare_all(
        device: &DeviceSpec,
        config: &MoeModelConfig,
        num_tokens: usize,
        plan: &RoutingPlan,
    ) -> Vec<(EngineKind, LayerCost)> {
        EngineKind::all()
            .into_iter()
            .map(|kind| {
                let cost =
                    Engine::new(kind, device.clone()).moe_layer_cost(config, num_tokens, plan);
                (kind, cost)
            })
            .collect()
    }

    /// The cost model bound to this engine's device (handy for callers that
    /// want to evaluate extra kernels consistently).
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.device.clone())
    }
}

/// A routed token count padded to the Samoyeds kernel's N-tile (the §6.2
/// padding effect). The expert's cost depends on its count only through
/// this value.
fn samoyeds_padded(selected: usize) -> usize {
    let nb = TilingConfig::DEFAULT_4070S.nb.min(64);
    selected.div_ceil(nb) * nb
}

/// The per-expert terms of one layer-cost evaluation, keyed on the value
/// they depend on (a routed count, or that count padded to a tile). The
/// experts of a step repeat a handful of shapes, so each distinct shape is
/// priced once; the caller still adds one term per expert, in expert order,
/// so the sums are those of pricing every expert. Lives for one call only.
#[derive(Default)]
struct ExpertMemo<T> {
    entries: Vec<(usize, T)>,
}

impl<T: Copy> ExpertMemo<T> {
    /// The terms for `key`, computed by `price(key)` on first use.
    fn get(&mut self, key: usize, price: impl FnOnce(usize) -> T) -> T {
        if let Some(&(_, terms)) = self.entries.iter().find(|(k, _)| *k == key) {
            return terms;
        }
        let terms = price(key);
        self.entries.push((key, terms));
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::TopKRouter;

    fn plan_for(config: &MoeModelConfig, tokens: usize) -> RoutingPlan {
        TopKRouter::for_config(config, 7).route(tokens)
    }

    /// Every engine, plus the Samoyeds breakdown option sets.
    fn cost_engines() -> Vec<Engine> {
        let device = DeviceSpec::a100_40g();
        let mut engines: Vec<Engine> = EngineKind::all()
            .into_iter()
            .map(|kind| Engine::new(kind, device.clone()))
            .collect();
        for options in [
            SamoyedsOptions::WEIGHT_ONLY,
            SamoyedsOptions::WEIGHT_INPUT,
            SamoyedsOptions::WEIGHT_INPUT_LAYOUT,
        ] {
            engines.push(
                Engine::new(EngineKind::Samoyeds, device.clone()).with_samoyeds_options(options),
            );
        }
        engines
    }

    /// Models with and without shared experts (OpenMoE is the `NS` case of
    /// the dense fused engines) under balanced and skewed routing, with
    /// batches small enough to leave most experts without a token.
    fn cost_plans() -> Vec<(MoeModelConfig, usize, RoutingPlan)> {
        let mut plans = Vec::new();
        for model in [
            MoeModelConfig::qwen2_moe(),
            MoeModelConfig::mixtral_8x7b(),
            MoeModelConfig::deepseek_moe(),
            MoeModelConfig::openmoe_34b(),
        ] {
            for skew in [0.0, 1.2] {
                for tokens in [0usize, 1, 7, 226, 1024] {
                    let plan = TopKRouter::for_config(&model, 7)
                        .with_skew(skew)
                        .route(tokens);
                    plans.push((model.clone(), tokens, plan));
                }
            }
        }
        plans
    }

    #[test]
    fn layer_cost_from_loads_equals_layer_cost_from_the_plan() {
        let plans = cost_plans();
        let mut zero_load_plans = 0;
        let mut unsupported = 0;
        for engine in cost_engines() {
            for (model, tokens, plan) in &plans {
                let loads = plan.expert_loads();
                zero_load_plans += usize::from(loads.contains(&0));
                let from_loads = engine.moe_layer_cost_for_loads(model, *tokens, &loads);
                let from_plan = engine.moe_layer_cost(model, *tokens, plan);
                unsupported += usize::from(!from_plan.supported);
                assert_eq!(
                    from_loads,
                    from_plan,
                    "{:?} {:?} {} tokens",
                    engine.kind(),
                    model.name,
                    tokens
                );
            }
        }
        assert!(zero_load_plans > 0);
        // OpenMoE on MegaBlocks and vLLM-DS, every batch.
        assert_eq!(unsupported, 2 * 10);
    }

    #[test]
    fn layer_costs_are_pinned_to_the_per_expert_evaluation() {
        // FNV-1a-64 of the `Debug` form of every case's cost (which prints
        // each f64 in shortest round-trip form), captured before the
        // per-expert terms were memoized: pricing each distinct shape once
        // must leave every bit of every layer cost unchanged.
        const GOLDEN: [&str; 8] = [
            "bce281155a90cb02", // Transformers
            "ff0797f1d87b3d4d", // MegaBlocks
            "875711089c204915", // vLLM-DS
            "d497e0c024d10f40", // PIT
            "ae5257b64ed815b4", // Samoyeds (full)
            "9ccc1c36e5c5dd06", // Samoyeds+W
            "86f9ff836df3cf41", // Samoyeds+WI
            "9fe4cfdb5d7af907", // Samoyeds+WIT
        ];
        fn fnv1a64(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let plans = cost_plans();
        let digests: Vec<String> = cost_engines()
            .into_iter()
            .map(|engine| {
                let text: String = plans
                    .iter()
                    .map(|(model, tokens, plan)| {
                        format!("{:?}\n", engine.moe_layer_cost(model, *tokens, plan))
                    })
                    .collect();
                format!("{:016x}", fnv1a64(text.as_bytes()))
            })
            .collect();
        assert_eq!(digests, GOLDEN, "regenerated digests: {digests:?}");
    }

    #[test]
    fn engine_names_and_all() {
        assert_eq!(EngineKind::all().len(), 5);
        assert_eq!(EngineKind::Samoyeds.name(), "Samoyeds");
        assert_eq!(EngineKind::VllmDs.name(), "vLLM-DS");
    }

    #[test]
    fn ns_rule_for_openmoe() {
        let device = DeviceSpec::rtx4070_super();
        let openmoe = MoeModelConfig::openmoe_34b();
        assert!(!Engine::new(EngineKind::MegaBlocks, device.clone()).supports(&openmoe));
        assert!(!Engine::new(EngineKind::VllmDs, device.clone()).supports(&openmoe));
        assert!(Engine::new(EngineKind::Transformers, device.clone()).supports(&openmoe));
        assert!(Engine::new(EngineKind::Samoyeds, device.clone()).supports(&openmoe));
        let cost = Engine::new(EngineKind::VllmDs, device).moe_layer_cost(
            &openmoe,
            256,
            &plan_for(&openmoe, 256),
        );
        assert!(!cost.supported);
        assert!(cost.time_ms.is_infinite());
    }

    #[test]
    fn samoyeds_is_fastest_on_mixtral_moe_layer() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let plan = plan_for(&config, 4096);
        let results = Engine::compare_all(&device, &config, 4096, &plan);
        let time = |k: EngineKind| {
            results
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, c)| c.time_ms)
                .unwrap()
        };
        let samoyeds = time(EngineKind::Samoyeds);
        let transformers = time(EngineKind::Transformers);
        let megablocks = time(EngineKind::MegaBlocks);
        let vllm = time(EngineKind::VllmDs);
        assert!(
            samoyeds < transformers,
            "samoyeds {samoyeds} transformers {transformers}"
        );
        assert!(
            samoyeds < megablocks,
            "samoyeds {samoyeds} megablocks {megablocks}"
        );
        assert!(samoyeds < vllm, "samoyeds {samoyeds} vllm {vllm}");
        // The speedup over Transformers must be substantial but not an
        // implausible order of magnitude. (The simulation omits the Python
        // framework overheads of HuggingFace Transformers, so the ratio runs
        // higher than the paper's 1.45x average — see EXPERIMENTS.md.)
        let speedup = transformers / samoyeds;
        assert!(speedup > 1.2 && speedup < 6.0, "speedup {speedup}");
        // The fused baselines beat plain Transformers.
        assert!(vllm < transformers);
    }

    #[test]
    fn samoyeds_weight_bytes_are_a_fraction_of_dense() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let dense = Engine::new(EngineKind::Transformers, device.clone()).weight_bytes(&config);
        let samoyeds = Engine::new(EngineKind::Samoyeds, device.clone()).weight_bytes(&config);
        let vllm = Engine::new(EngineKind::VllmDs, device).weight_bytes(&config);
        assert!(samoyeds < dense * 0.4);
        assert!(vllm > dense); // workspace copies
    }

    #[test]
    fn activation_bytes_ordering_matches_memory_claims() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::mixtral_8x7b();
        let tokens = 4096;
        let act = |k| Engine::new(k, device.clone()).activation_bytes(&config, tokens);
        assert!(act(EngineKind::Samoyeds) < act(EngineKind::VllmDs));
        assert!(act(EngineKind::Samoyeds) < act(EngineKind::Transformers));
        assert!(act(EngineKind::VllmDs) < act(EngineKind::Transformers));
    }

    #[test]
    fn shared_expert_models_cost_more_than_without() {
        let device = DeviceSpec::rtx4070_super();
        let mut config = MoeModelConfig::qwen2_moe();
        let plan = plan_for(&config, 1024);
        let with_shared = Engine::new(EngineKind::Samoyeds, device.clone())
            .moe_layer_cost(&config, 1024, &plan)
            .time_ms;
        config.num_shared_experts = 0;
        let without = Engine::new(EngineKind::Samoyeds, device)
            .moe_layer_cost(&config, 1024, &plan)
            .time_ms;
        assert!(with_shared > without);
    }

    #[test]
    fn functional_reference_and_samoyeds_paths_agree_on_tiny_model() {
        let config = MoeModelConfig::tiny_test();
        let device = DeviceSpec::rtx4070_super();
        let experts: Vec<ExpertWeights> = (0..config.num_experts)
            .map(|e| ExpertWeights::random(&config, e, 11))
            .collect();
        let pruned: Vec<SamoyedsExpertWeights> = experts
            .iter()
            .map(|w| w.prune_samoyeds(SamoyedsConfig::DEFAULT).unwrap())
            .collect();
        let x = DenseMatrix::random(config.hidden_size, 24, 13);
        let plan = TopKRouter::for_config(&config, 17).route(24);

        let reference = Engine::forward_reference(&experts, &x, &plan).unwrap();
        let samoyeds = Engine::forward_samoyeds(&device, &pruned, &x, &plan).unwrap();
        assert_eq!(reference.shape(), samoyeds.shape());

        // The two paths use the *same pruned weights* check: run the
        // reference data flow on the pruned experts' dense expansions and it
        // must match the kernel path almost exactly.
        let pruned_dense: Vec<ExpertWeights> = pruned
            .iter()
            .map(|p| ExpertWeights {
                gate: samoyeds_sparse::SparseFormat::to_dense(&p.gate),
                up: samoyeds_sparse::SparseFormat::to_dense(&p.up),
                down: samoyeds_sparse::SparseFormat::to_dense(&p.down),
                activation: p.activation,
            })
            .collect();
        let reference_pruned = Engine::forward_reference(&pruned_dense, &x, &plan).unwrap();
        assert!(
            samoyeds.allclose(&reference_pruned, 1e-2, 1e-2),
            "max diff {}",
            samoyeds.max_abs_diff(&reference_pruned)
        );
        // And the pruned output stays in the same ballpark as the dense one.
        let rel = reference
            .add(&samoyeds.scale(-1.0))
            .unwrap()
            .frobenius_norm()
            / reference.frobenius_norm().max(1e-6);
        assert!(rel < 1.0, "relative error {rel}");
    }

    #[test]
    fn breakdown_options_order_holds_at_the_layer_level() {
        let device = DeviceSpec::rtx4070_super();
        let config = MoeModelConfig::deepseek_moe();
        let plan = plan_for(&config, 4096);
        let time = |opts: SamoyedsOptions| {
            Engine::new(EngineKind::Samoyeds, device.clone())
                .with_samoyeds_options(opts)
                .moe_layer_cost(&config, 4096, &plan)
                .time_ms
        };
        let w = time(SamoyedsOptions::WEIGHT_ONLY);
        let wi = time(SamoyedsOptions::WEIGHT_INPUT);
        let wit = time(SamoyedsOptions::WEIGHT_INPUT_LAYOUT);
        let wits = time(SamoyedsOptions::FULL);
        assert!(wi < w, "WI {wi} vs W {w}");
        assert!(wit < wi);
        assert!(wits < wit);
    }
}
