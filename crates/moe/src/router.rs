//! Top-k token routing and the per-expert selection arrays.
//!
//! The router is where the input-side sparsity of the Samoyeds format comes
//! from: each token is dispatched to `top_k` of the routed experts (plus all
//! shared experts), so from the perspective of one expert the activation
//! matrix is column-sparse with a dynamic pattern. To keep experiments
//! deterministic the simulated router draws token-to-expert affinities from a
//! seeded RNG; the distribution can be uniform or mildly skewed, matching the
//! balanced-routing regime the paper evaluates in (identical inputs across
//! engines, §6.3).

use crate::config::MoeModelConfig;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use samoyeds_sparse::{Result, SelectionArray, SparseError};
use serde::{Deserialize, Serialize};

/// The routing decision for one batch of tokens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingPlan {
    /// Number of routed tokens.
    pub num_tokens: usize,
    /// Experts activated per token.
    pub top_k: usize,
    /// For each expert, the ascending token indices routed to it.
    pub expert_tokens: Vec<Vec<u32>>,
    /// For each expert, the router weight of each routed token (same order
    /// as `expert_tokens`).
    pub expert_weights: Vec<Vec<f32>>,
}

impl RoutingPlan {
    /// The selection array of one expert (the `SEL` operand of the kernel).
    pub fn selection(&self, expert: usize) -> Result<SelectionArray> {
        let tokens = self
            .expert_tokens
            .get(expert)
            .ok_or_else(|| SparseError::config(format!("expert {expert} out of range")))?;
        SelectionArray::new(self.num_tokens, tokens.clone())
    }

    /// The selection array of a shared expert: shared experts are isolated
    /// from routing and always process every token of the batch.
    pub fn shared_selection(&self) -> SelectionArray {
        SelectionArray::all(self.num_tokens)
    }

    /// Number of experts in the plan.
    pub fn num_experts(&self) -> usize {
        self.expert_tokens.len()
    }

    /// Tokens routed to `expert`.
    pub fn tokens_for(&self, expert: usize) -> usize {
        self.expert_tokens.get(expert).map_or(0, |t| t.len())
    }

    /// The largest per-expert token count (drives padding overhead).
    pub fn max_tokens_per_expert(&self) -> usize {
        self.expert_tokens
            .iter()
            .map(|t| t.len())
            .max()
            .unwrap_or(0)
    }

    /// Load imbalance: max per-expert tokens over the balanced average.
    pub fn imbalance(&self) -> f64 {
        let avg = self.num_tokens as f64 * self.top_k as f64 / self.num_experts().max(1) as f64;
        if avg == 0.0 {
            return 1.0;
        }
        self.max_tokens_per_expert() as f64 / avg
    }

    /// Total token-expert assignments (must equal `num_tokens * top_k`).
    pub fn total_assignments(&self) -> usize {
        self.expert_tokens.iter().map(|t| t.len()).sum()
    }

    /// Per-expert token counts (the load profile placement strategies use).
    pub fn expert_loads(&self) -> Vec<usize> {
        self.expert_tokens.iter().map(|t| t.len()).collect()
    }

    /// Shard the plan across expert-parallel ranks.
    ///
    /// `assignments[g]` lists the global expert ids owned by rank `g`; the
    /// returned plan for rank `g` contains exactly those experts, renumbered
    /// in the given order, with `num_tokens`/`top_k` unchanged (selection
    /// arrays still index the global token batch). An expert may appear on
    /// several ranks (a replicated hot expert): its token list is then split
    /// round-robin across the replicas, so token assignments are conserved —
    /// the shards' `total_assignments` always sum to the plan's.
    ///
    /// Errors if an expert id is out of range or a non-idle expert is left
    /// unplaced (its tokens would be dropped).
    pub fn shard(&self, assignments: &[Vec<usize>]) -> Result<Vec<RoutingPlan>> {
        let owners = self.collect_owners(assignments)?;
        let mut next_replica = vec![0usize; self.num_experts()];
        let mut shards = Vec::with_capacity(assignments.len());
        for owned in assignments {
            let mut expert_tokens = Vec::with_capacity(owned.len());
            let mut expert_weights = Vec::with_capacity(owned.len());
            for &e in owned {
                let replica = next_replica[e];
                next_replica[e] += 1;
                let stride = owners[e].len();
                // The round-robin slice keeps token indices ascending, as
                // the SelectionArray constructor requires.
                let tokens: Vec<u32> = self.expert_tokens[e]
                    .iter()
                    .skip(replica)
                    .step_by(stride)
                    .copied()
                    .collect();
                let weights: Vec<f32> = self.expert_weights[e]
                    .iter()
                    .skip(replica)
                    .step_by(stride)
                    .copied()
                    .collect();
                expert_tokens.push(tokens);
                expert_weights.push(weights);
            }
            shards.push(RoutingPlan {
                num_tokens: self.num_tokens,
                top_k: self.top_k,
                expert_tokens,
                expert_weights,
            });
        }
        Ok(shards)
    }

    /// Collect the owning ranks of every expert across `assignments`
    /// (assignment-iteration order), validating that ids are in range and
    /// that no expert with routed tokens is left unplaced — the shared
    /// contract of [`RoutingPlan::shard`] and [`RoutingPlan::shard_with`].
    fn collect_owners(&self, assignments: &[Vec<usize>]) -> Result<Vec<Vec<usize>>> {
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); self.num_experts()];
        for (rank, owned) in assignments.iter().enumerate() {
            for &e in owned {
                if e >= self.num_experts() {
                    return Err(SparseError::config(format!(
                        "expert {e} out of range (plan has {})",
                        self.num_experts()
                    )));
                }
                owners[e].push(rank);
            }
        }
        for (e, ranks) in owners.iter().enumerate() {
            if ranks.is_empty() && !self.expert_tokens[e].is_empty() {
                return Err(SparseError::config(format!(
                    "expert {e} has {} routed tokens but no rank owns it",
                    self.expert_tokens[e].len()
                )));
            }
        }
        Ok(owners)
    }

    /// Shard the plan like [`RoutingPlan::shard`], but let the caller pick
    /// which replica serves each token of a replicated expert.
    ///
    /// `pick(expert, token, owners)` is called once per routed token of
    /// every expert with more than one owner; `owners` lists the owning
    /// ranks in assignment-iteration order (rank ascending, position within
    /// a rank's list preserved) and the returned index selects one of them
    /// (clamped into range). Topology-aware callers use this to keep a
    /// token on the replica inside its own island so its dispatch never
    /// crosses the spine. Token assignments are conserved exactly as in
    /// `shard`: each token goes to exactly one replica and token lists
    /// stay ascending.
    pub fn shard_with<F>(&self, assignments: &[Vec<usize>], mut pick: F) -> Result<Vec<RoutingPlan>>
    where
        F: FnMut(usize, u32, &[usize]) -> usize,
    {
        let owners = self.collect_owners(assignments)?;

        // Partition each expert's token list across its replica instances
        // (filtering keeps the per-replica lists ascending).
        let mut split_tokens: Vec<Vec<Vec<u32>>> = Vec::with_capacity(self.num_experts());
        let mut split_weights: Vec<Vec<Vec<f32>>> = Vec::with_capacity(self.num_experts());
        for (e, ranks) in owners.iter().enumerate() {
            let replicas = ranks.len().max(1);
            let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); replicas];
            let mut weights: Vec<Vec<f32>> = vec![Vec::new(); replicas];
            for (i, &t) in self.expert_tokens[e].iter().enumerate() {
                let choice = if replicas == 1 {
                    0
                } else {
                    pick(e, t, ranks).min(replicas - 1)
                };
                tokens[choice].push(t);
                weights[choice].push(self.expert_weights[e][i]);
            }
            split_tokens.push(tokens);
            split_weights.push(weights);
        }

        let mut next_replica = vec![0usize; self.num_experts()];
        let mut shards = Vec::with_capacity(assignments.len());
        for owned in assignments {
            let mut expert_tokens = Vec::with_capacity(owned.len());
            let mut expert_weights = Vec::with_capacity(owned.len());
            for &e in owned {
                let replica = next_replica[e];
                next_replica[e] += 1;
                expert_tokens.push(std::mem::take(&mut split_tokens[e][replica]));
                expert_weights.push(std::mem::take(&mut split_weights[e][replica]));
            }
            shards.push(RoutingPlan {
                num_tokens: self.num_tokens,
                top_k: self.top_k,
                expert_tokens,
                expert_weights,
            });
        }
        Ok(shards)
    }
}

/// A deterministic top-k router.
#[derive(Debug, Clone)]
pub struct TopKRouter {
    num_experts: usize,
    top_k: usize,
    seed: u64,
    skew: f64,
}

impl TopKRouter {
    /// Build a router for a model configuration.
    pub fn for_config(config: &MoeModelConfig, seed: u64) -> Self {
        Self {
            num_experts: config.num_experts,
            top_k: config.top_k,
            seed,
            skew: 0.0,
        }
    }

    /// Build a router with explicit parameters.
    pub fn new(num_experts: usize, top_k: usize, seed: u64) -> Result<Self> {
        if top_k == 0 || top_k > num_experts {
            return Err(SparseError::config(format!(
                "top_k {top_k} must be in 1..={num_experts}"
            )));
        }
        Ok(Self {
            num_experts,
            top_k,
            seed,
            skew: 0.0,
        })
    }

    /// Skew the expert popularity: expert `e` is drawn with probability
    /// proportional to `1 / (e + 1)^skew` (Zipf-like). `skew = 0` is the
    /// uniform, balanced-routing regime of the paper's experiments; larger
    /// values concentrate traffic on a few hot experts, the imbalanced
    /// regime expert-parallel placement has to cope with.
    pub fn with_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
        self.skew = skew;
        self
    }

    /// Route `num_tokens` tokens: each token picks `top_k` distinct experts
    /// (uniformly, or Zipf-weighted under [`Self::with_skew`]) and receives
    /// softmax-normalised router weights.
    pub fn route(&self, num_tokens: usize) -> RoutingPlan {
        self.route_seeded(self.seed, num_tokens)
    }

    /// [`Self::route`] with an explicit seed override. Lets a long-lived
    /// router be reseeded per call (one router per scheduler, one seed per
    /// step) instead of being rebuilt on every step of a serving hot path:
    /// `router.route_seeded(s, n)` equals
    /// `TopKRouter::new(num_experts, top_k, s).unwrap().route(n)` with the
    /// same skew.
    pub fn route_seeded(&self, seed: u64, num_tokens: usize) -> RoutingPlan {
        let mut expert_tokens: Vec<Vec<u32>> = vec![Vec::new(); self.num_experts];
        let mut expert_weights: Vec<Vec<f32>> = vec![Vec::new(); self.num_experts];
        let mut exps: Vec<f32> = Vec::with_capacity(self.top_k);
        self.draw(seed, num_tokens, |token, chosen, logits| {
            // Softmax over the random logits of the chosen experts.
            let max = logits.iter().cloned().fold(f32::MIN, f32::max);
            exps.clear();
            exps.extend(logits.iter().map(|l| (l - max).exp()));
            let sum: f32 = exps.iter().sum();
            for (&e, w) in chosen.iter().zip(exps.iter()) {
                expert_tokens[e].push(token as u32);
                expert_weights[e].push(w / sum);
            }
        });
        RoutingPlan {
            num_tokens,
            top_k: self.top_k,
            expert_tokens,
            expert_weights,
        }
    }

    /// Per-expert token counts of [`Self::route_seeded`], without building
    /// the plan: `router.route_loads_seeded(s, n)` equals
    /// `router.route_seeded(s, n).expert_loads()`. Every value of the same
    /// random stream is still drawn (the expert picks and the router
    /// logits), only the token lists and softmax weights are skipped — the
    /// serving hot path prices a step from the counts alone.
    pub fn route_loads_seeded(&self, seed: u64, num_tokens: usize) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_experts];
        self.draw(seed, num_tokens, |_, chosen, _| {
            for &e in chosen {
                loads[e] += 1;
            }
        });
        loads
    }

    /// The sampling loop shared by every routing entry point: for each
    /// token, pick `top_k` distinct experts and draw one router logit per
    /// pick, then hand `(token, chosen experts, logits)` to `visit`. One
    /// ChaCha stream per call, consumed in the same order whatever the
    /// visitor does with the draws.
    fn draw<F>(&self, seed: u64, num_tokens: usize, mut visit: F)
    where
        F: FnMut(usize, &[usize], &[f32]),
    {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut experts: Vec<usize> = (0..self.num_experts).collect();
        // Clamp to the smallest positive float: extreme skews underflow the
        // Zipf tail to 0.0, which would leave the sampler with an empty
        // distribution once the hot experts are drawn.
        let popularity: Vec<f64> = (0..self.num_experts)
            .map(|e| (1.0 / ((e + 1) as f64).powf(self.skew)).max(f64::MIN_POSITIVE))
            .collect();
        let mut chosen_buf: Vec<usize> = Vec::with_capacity(self.top_k);
        let mut logits: Vec<f32> = Vec::with_capacity(self.top_k);
        let mut remaining = popularity.clone();
        for token in 0..num_tokens {
            let chosen: &[usize] = if self.skew == 0.0 {
                experts.shuffle(&mut rng);
                &experts[..self.top_k]
            } else {
                // Weighted sampling without replacement over the popularity
                // distribution.
                chosen_buf.clear();
                remaining.copy_from_slice(&popularity);
                for _ in 0..self.top_k {
                    let total: f64 = remaining.iter().sum();
                    let mut draw = rng.gen_range(0.0..total);
                    // Fallback to the last still-available expert: rounding
                    // in the running subtraction can leave `draw` above
                    // every probability, and a fixed fallback could pick an
                    // already-chosen expert (duplicating a token in its
                    // list).
                    let mut pick = remaining
                        .iter()
                        .rposition(|&p| p > 0.0)
                        .expect("top_k <= num_experts leaves an expert available");
                    for (e, &p) in remaining.iter().enumerate() {
                        if p <= 0.0 {
                            continue;
                        }
                        if draw < p {
                            pick = e;
                            break;
                        }
                        draw -= p;
                    }
                    remaining[pick] = 0.0;
                    chosen_buf.push(pick);
                }
                &chosen_buf
            };
            logits.clear();
            logits.extend(chosen.iter().map(|_| rng.gen_range(-1.0f32..1.0)));
            visit(token, chosen, &logits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_validates_top_k() {
        assert!(TopKRouter::new(8, 0, 1).is_err());
        assert!(TopKRouter::new(8, 9, 1).is_err());
        assert!(TopKRouter::new(8, 2, 1).is_ok());
    }

    #[test]
    fn routing_is_deterministic_per_seed() {
        let r = TopKRouter::new(8, 2, 42).unwrap();
        assert_eq!(r.route(128), r.route(128));
        let r2 = TopKRouter::new(8, 2, 43).unwrap();
        assert_ne!(r.route(128), r2.route(128));
    }

    #[test]
    fn route_seeded_matches_a_router_built_with_that_seed() {
        // The per-step reseeding contract the serving backends rely on: one
        // long-lived router reseeded per call is indistinguishable from a
        // router rebuilt with the override seed.
        let base = TopKRouter::new(8, 2, 42).unwrap();
        for seed in [0u64, 1, 42, 42 ^ 7, u64::MAX] {
            let rebuilt = TopKRouter::new(8, 2, seed).unwrap();
            assert_eq!(base.route_seeded(seed, 128), rebuilt.route(128));
        }
        // The same holds under skew.
        let skewed = TopKRouter::new(16, 3, 5).unwrap().with_skew(1.2);
        let rebuilt = TopKRouter::new(16, 3, 99).unwrap().with_skew(1.2);
        assert_eq!(skewed.route_seeded(99, 256), rebuilt.route(256));
    }

    #[test]
    fn route_loads_seeded_matches_the_full_plan_loads() {
        // The counts-only path draws the same stream as the full plan: were
        // it to skip a draw (a logit, say), every later token would pick
        // different experts and the loads would drift apart.
        let config = MoeModelConfig::qwen2_moe();
        for skew in [0.0, 1.2] {
            let router = TopKRouter::for_config(&config, 3).with_skew(skew);
            for seed in [0u64, 42, u64::MAX] {
                for tokens in [0usize, 1, 7, 226, 1024] {
                    assert_eq!(
                        router.route_loads_seeded(seed, tokens),
                        router.route_seeded(seed, tokens).expert_loads(),
                        "skew {skew} seed {seed} tokens {tokens}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_token_gets_exactly_top_k_experts() {
        let r = TopKRouter::new(16, 4, 7).unwrap();
        let plan = r.route(256);
        assert_eq!(plan.total_assignments(), 256 * 4);
        // Token indices are strictly increasing per expert (required by the
        // SelectionArray constructor).
        for e in 0..plan.num_experts() {
            let sel = plan.selection(e).unwrap();
            assert_eq!(sel.len(), plan.tokens_for(e));
            assert_eq!(sel.total(), 256);
        }
        assert!(plan.selection(99).is_err());
    }

    #[test]
    fn router_weights_are_normalised_per_token() {
        let r = TopKRouter::new(8, 2, 9).unwrap();
        let plan = r.route(64);
        // Sum of weights across experts for each token must be ~1.
        let mut per_token = vec![0.0f32; 64];
        for e in 0..plan.num_experts() {
            for (i, &t) in plan.expert_tokens[e].iter().enumerate() {
                per_token[t as usize] += plan.expert_weights[e][i];
            }
        }
        for (t, w) in per_token.iter().enumerate() {
            assert!((w - 1.0).abs() < 1e-5, "token {t} weight sum {w}");
        }
    }

    #[test]
    fn per_expert_loads_sum_to_tokens_times_top_k() {
        // The conservation invariant behind the input-side sparsity: every
        // token contributes exactly top_k assignments, however skewed the
        // per-expert loads are.
        for config in MoeModelConfig::table2() {
            for tokens in [1usize, 17, 256] {
                let plan = TopKRouter::for_config(&config, 13).route(tokens);
                let load_sum: usize = (0..plan.num_experts()).map(|e| plan.tokens_for(e)).sum();
                assert_eq!(load_sum, tokens * config.top_k, "{}", config.name);
                assert_eq!(plan.total_assignments(), tokens * config.top_k);
                assert_eq!(plan.num_experts(), config.num_experts);
                // Router weights mirror the token lists exactly.
                for e in 0..plan.num_experts() {
                    assert_eq!(plan.expert_tokens[e].len(), plan.expert_weights[e].len());
                }
            }
        }
    }

    #[test]
    fn shared_experts_always_receive_all_tokens() {
        let config = MoeModelConfig::deepseek_moe();
        assert!(config.has_shared_experts());
        let plan = TopKRouter::for_config(&config, 5).route(97);
        let shared = plan.shared_selection();
        // The shared-expert selection is dense: every token, in order.
        assert_eq!(shared.len(), 97);
        assert_eq!(shared.total(), 97);
        let indices: Vec<u32> = (0..97).collect();
        assert_eq!(shared.indices(), indices.as_slice());
        // Routed experts, by contrast, each see a strict subset for top_k <
        // num_experts.
        for e in 0..plan.num_experts() {
            assert!(plan.tokens_for(e) < 97);
        }
    }

    #[test]
    fn plans_are_deterministic_and_selection_arrays_match_loads() {
        let config = MoeModelConfig::qwen2_moe();
        let a = TopKRouter::for_config(&config, 99).route(333);
        let b = TopKRouter::for_config(&config, 99).route(333);
        assert_eq!(a, b);
        for e in 0..a.num_experts() {
            let sel = a.selection(e).unwrap();
            assert_eq!(sel.len(), a.tokens_for(e));
            assert_eq!(sel.total(), 333);
        }
        // A different seed changes at least the assignment pattern.
        let c = TopKRouter::for_config(&config, 100).route(333);
        assert_ne!(a, c);
    }

    #[test]
    fn sharding_conserves_assignments_and_renumbers_experts() {
        let plan = TopKRouter::new(8, 2, 21).unwrap().route(256);
        // 8 experts over 4 ranks, contiguous blocks of two.
        let assignments: Vec<Vec<usize>> = (0..4).map(|g| vec![2 * g, 2 * g + 1]).collect();
        let shards = plan.shard(&assignments).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.total_assignments()).sum();
        assert_eq!(total, plan.total_assignments());
        for (g, shard) in shards.iter().enumerate() {
            assert_eq!(shard.num_experts(), 2);
            assert_eq!(shard.num_tokens, plan.num_tokens);
            assert_eq!(shard.top_k, plan.top_k);
            for local in 0..2 {
                assert_eq!(
                    shard.expert_tokens[local],
                    plan.expert_tokens[2 * g + local]
                );
                // Selection arrays still index the global batch.
                let sel = shard.selection(local).unwrap();
                assert_eq!(sel.total(), plan.num_tokens);
            }
        }
    }

    #[test]
    fn sharding_splits_replicated_experts_without_losing_tokens() {
        let plan = TopKRouter::new(4, 2, 5).unwrap().route(101);
        // Expert 0 replicated on both ranks; the rest split.
        let assignments = vec![vec![0, 1], vec![0, 2, 3]];
        let shards = plan.shard(&assignments).unwrap();
        let replica_a = &shards[0].expert_tokens[0];
        let replica_b = &shards[1].expert_tokens[0];
        assert_eq!(replica_a.len() + replica_b.len(), plan.tokens_for(0));
        // Replicas are disjoint, ascending, and merge back to the original.
        let mut merged: Vec<u32> = replica_a.iter().chain(replica_b.iter()).copied().collect();
        merged.sort_unstable();
        assert_eq!(&merged, &plan.expert_tokens[0]);
        assert!(replica_a.windows(2).all(|w| w[0] < w[1]));
        assert!(replica_b.windows(2).all(|w| w[0] < w[1]));
        // The replicas' loads differ by at most one token (round-robin).
        assert!(replica_a.len().abs_diff(replica_b.len()) <= 1);
        let total: usize = shards.iter().map(|s| s.total_assignments()).sum();
        assert_eq!(total, plan.total_assignments());
    }

    #[test]
    fn sharding_rejects_bad_assignments() {
        let plan = TopKRouter::new(4, 2, 5).unwrap().route(64);
        // Out-of-range expert id.
        assert!(plan.shard(&[vec![0, 1], vec![2, 9]]).is_err());
        // Expert 3 has routed tokens but no owner.
        assert!(plan.shard(&[vec![0, 1], vec![2]]).is_err());
        // shard_with enforces the same contract.
        assert!(plan
            .shard_with(&[vec![0, 1], vec![2, 9]], |_, _, _| 0)
            .is_err());
        assert!(plan
            .shard_with(&[vec![0, 1], vec![2]], |_, _, _| 0)
            .is_err());
    }

    #[test]
    fn shard_with_routes_tokens_to_the_picked_replica() {
        let plan = TopKRouter::new(4, 2, 7).unwrap().route(128);
        // Expert 0 replicated on both ranks; even tokens to the rank-0
        // replica, odd tokens to the rank-1 replica (an affinity rule).
        let assignments = vec![vec![0, 1], vec![0, 2, 3]];
        let shards = plan
            .shard_with(&assignments, |e, t, owners| {
                assert_eq!(e, 0, "pick only runs for replicated experts");
                assert_eq!(owners, &[0, 1]);
                (t % 2) as usize
            })
            .unwrap();
        let total: usize = shards.iter().map(|s| s.total_assignments()).sum();
        assert_eq!(total, plan.total_assignments());
        assert!(shards[0].expert_tokens[0].iter().all(|t| t % 2 == 0));
        assert!(shards[1].expert_tokens[0].iter().all(|t| t % 2 == 1));
        for shard in &shards {
            for et in &shard.expert_tokens {
                assert!(et.windows(2).all(|w| w[0] < w[1]));
            }
        }
        // Singly-owned experts keep their full token lists.
        assert_eq!(shards[0].expert_tokens[1], plan.expert_tokens[1]);
        // Out-of-range picks clamp to the last replica instead of dropping
        // tokens.
        let clamped = plan.shard_with(&assignments, |_, _, _| 99).unwrap();
        let total: usize = clamped.iter().map(|s| s.total_assignments()).sum();
        assert_eq!(total, plan.total_assignments());
        assert!(clamped[0].expert_tokens[0].is_empty());
    }

    #[test]
    fn skewed_routing_is_imbalanced_and_still_conserves_tokens() {
        let uniform = TopKRouter::new(16, 2, 11).unwrap().route(2048);
        let skewed = TopKRouter::new(16, 2, 11)
            .unwrap()
            .with_skew(1.2)
            .route(2048);
        assert_eq!(skewed.total_assignments(), 2048 * 2);
        assert!(
            skewed.imbalance() > uniform.imbalance() * 1.5,
            "skewed {} vs uniform {}",
            skewed.imbalance(),
            uniform.imbalance()
        );
        // Low-index experts are the hot ones under the Zipf popularity.
        assert!(skewed.tokens_for(0) > skewed.tokens_for(15) * 2);
        // Still deterministic and valid: ascending per-expert token lists.
        assert_eq!(
            skewed,
            TopKRouter::new(16, 2, 11)
                .unwrap()
                .with_skew(1.2)
                .route(2048)
        );
        for e in 0..skewed.num_experts() {
            assert!(skewed.expert_tokens[e].windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn extreme_skew_does_not_panic_and_stays_valid() {
        // Skews large enough to underflow the Zipf tail to 0.0 must still
        // sample top_k distinct experts per token.
        let plan = TopKRouter::new(16, 3, 0)
            .unwrap()
            .with_skew(1100.0)
            .route(64);
        assert_eq!(plan.total_assignments(), 64 * 3);
        for e in 0..plan.num_experts() {
            assert!(plan.expert_tokens[e].windows(2).all(|w| w[0] < w[1]));
        }
        // The hottest expert absorbs every token; once the un-underflowed
        // head is exhausted the clamped tail is sampled uniformly.
        assert_eq!(plan.tokens_for(0), 64);
    }

    #[test]
    fn load_is_roughly_balanced_for_uniform_routing() {
        let cfg = MoeModelConfig::mixtral_8x7b();
        let r = TopKRouter::for_config(&cfg, 3);
        let plan = r.route(4096);
        // Uniform random routing keeps the imbalance mild.
        assert!(plan.imbalance() < 1.35, "imbalance {}", plan.imbalance());
        let expected_avg = 4096.0 * 2.0 / 8.0;
        for e in 0..8 {
            let frac = plan.tokens_for(e) as f64 / expected_avg;
            assert!(frac > 0.7 && frac < 1.3, "expert {e} load fraction {frac}");
        }
    }
}
