//! Request dispatch: how the [`FleetController`](crate::fleet::FleetController)
//! picks a replica for each arriving or re-admitted request.

use serde::{Deserialize, Serialize};

/// How the fleet controller picks a replica for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Strict rotation in arrival order.
    RoundRobin,
    /// Each request goes to the replica with the fewest outstanding tokens:
    /// the replicas' live remaining work at the request's arrival time.
    LeastOutstandingTokens,
}

impl DispatchPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstandingTokens => "least-outstanding",
        }
    }
}

/// Apply `policy` to the `eligible` replica slots. `outstanding_tokens`
/// reports a slot's live remaining work; `rr_cursor` is the round-robin
/// position, shared between fresh arrivals and post-crash re-admissions so
/// the two can never drift.
pub(crate) fn pick_replica(
    policy: DispatchPolicy,
    eligible: &[usize],
    rr_cursor: &mut usize,
    outstanding_tokens: impl Fn(usize) -> usize,
) -> Option<usize> {
    match policy {
        DispatchPolicy::RoundRobin => {
            let picked = eligible
                .get(rr_cursor.checked_rem(eligible.len()).unwrap_or(0))
                .copied();
            *rr_cursor = rr_cursor.wrapping_add(1);
            picked
        }
        DispatchPolicy::LeastOutstandingTokens => eligible
            .iter()
            .copied()
            .min_by_key(|&i| outstanding_tokens(i)),
    }
}
