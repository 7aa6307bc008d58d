//! Per-tenant admission control.
//!
//! A tenant's policy reuses [`SolveBudget`] as the per-request effort cap
//! and adds the daemon-level knobs: how many of the tenant's jobs may run
//! at once, how many may wait, and a cumulative node budget after which
//! the tenant is degraded to the greedy backend instead of being starved
//! or silently throttled.

use partita_core::api::SolveSpec;
use partita_core::SolveBudget;

/// Admission policy for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Jobs of this tenant that may run concurrently, counted across
    /// every served connection; beyond this, jobs wait in the tenant's
    /// FIFO while other tenants' jobs run (the fair scheduler's cap — see
    /// [`crate::server`]). A value of 0 is enforced as 1: a zero cap
    /// would leave queued jobs permanently unrunnable, and the daemon's
    /// contract is that every admitted job is answered.
    pub max_inflight: usize,
    /// Jobs that may wait in the tenant's FIFOs, counted across every
    /// served connection; beyond this, requests are refused outright with
    /// [`partita_core::api::ApiError::Overloaded`] (code 429).
    pub max_queued: usize,
    /// Cumulative branch-and-bound nodes the tenant may spend on exact
    /// solves; a search that runs dry is charged its clamped node cap.
    /// Once exhausted, further points degrade to the greedy
    /// backend — honestly labelled, never starved: degraded requests
    /// still complete, and other tenants keep their exact service.
    pub node_budget: u64,
    /// Per-request effort cap. A request's own `max_nodes` / `deadline_ms`
    /// are honoured only *up to* these values.
    pub budget: SolveBudget,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            max_inflight: 4,
            max_queued: 1024,
            node_budget: u64::MAX,
            budget: SolveBudget::default(),
        }
    }
}

impl TenantPolicy {
    /// The effective per-request budget: the spec's asks clamped by this
    /// policy's caps.
    #[must_use]
    pub fn clamp(&self, spec: &SolveSpec) -> SolveBudget {
        let mut budget = self.budget;
        if let Some(n) = spec.max_nodes {
            budget.max_nodes = n.min(self.budget.max_nodes);
        }
        budget.deadline = match (
            spec.deadline_ms.map(std::time::Duration::from_millis),
            self.budget.deadline,
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, cap) => cap,
        };
        budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_caps_spec_asks() {
        let policy = TenantPolicy {
            budget: SolveBudget::default()
                .with_max_nodes(10_000)
                .with_deadline(std::time::Duration::from_millis(100)),
            ..TenantPolicy::default()
        };
        let spec = SolveSpec {
            max_nodes: Some(50_000),
            deadline_ms: Some(5),
            ..SolveSpec::default()
        };
        let budget = policy.clamp(&spec);
        assert_eq!(budget.max_nodes, 10_000, "node ask capped by policy");
        assert_eq!(
            budget.deadline,
            Some(std::time::Duration::from_millis(5)),
            "tighter caller deadline wins"
        );
        // A modest ask passes through.
        let modest = SolveSpec {
            max_nodes: Some(5),
            ..SolveSpec::default()
        };
        assert_eq!(policy.clamp(&modest).max_nodes, 5);
    }
}
