//! Market configuration: utility rate, budget, termination tolerances,
//! bargaining costs, and the round/exploration limits.

use crate::cost::CostModel;
use crate::error::{MarketError, Result};
use serde::{Deserialize, Serialize};

/// All bargaining hyper-parameters. Field names follow the paper's symbols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarketConfig {
    /// Utility rate `u`: task-party utility per unit of performance gain.
    pub utility_rate: f64,
    /// Budget `B`: the cap any quoted `Ph` must respect.
    pub budget: f64,
    /// Task-party success tolerance `ε_t` (Case 5).
    pub eps_task: f64,
    /// Data-party success tolerance `ε_d` (Case 2).
    pub eps_data: f64,
    /// Task-party cost-rule tolerance `ε_{t,c}` (Eq. 7).
    pub eps_task_cost: f64,
    /// Data-party cost-rule tolerance `ε_{d,c}` (Eq. 6).
    pub eps_data_cost: f64,
    /// Hard round limit; exceeding it fails the transaction (paper: 500).
    pub max_rounds: u32,
    /// Exploration rounds `N` for imperfect information (Case VII); 0 in the
    /// perfect setting.
    pub explore_rounds: u32,
    /// Number of candidate quotes sampled per re-quote (Alg. 1 line 16).
    pub quote_samples: usize,
    /// Relative escalation step per re-quote: candidates are drawn from
    /// `(current, current * (1 + step)]`.
    pub escalation_step: f64,
    /// Hard cap on the quoted payment rate `p` (the paper constrains
    /// `p_i ∈ (p0, u]`; tighter caps model rate-averse buyers). The
    /// effective cap is `min(rate_cap, utility_rate)`.
    pub rate_cap: f64,
    /// Task-party bargaining cost `C_t(T)`.
    pub task_cost: CostModel,
    /// Data-party bargaining cost `C_d(T)`.
    pub data_cost: CostModel,
    /// Base seed for all strategy randomness in one run.
    pub seed: u64,
    /// Bounded-channel capacity (messages per direction) for a driver that
    /// runs the two parties over wire channels. No in-tree driver reads
    /// it; it stays because [`crate::session::wire::config_digest`] folds
    /// it in and journaled submissions record that digest, so removing it
    /// would change every recorded digest. Must be >= 1.
    pub channel_capacity: usize,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            utility_rate: 1000.0,
            budget: 10.0,
            eps_task: 1e-3,
            eps_data: 1e-3,
            eps_task_cost: 1e-2,
            eps_data_cost: 1e-2,
            max_rounds: 500,
            explore_rounds: 0,
            quote_samples: 16,
            escalation_step: 0.25,
            rate_cap: f64::INFINITY,
            task_cost: CostModel::None,
            data_cost: CostModel::None,
            seed: 0,
            channel_capacity: 1,
        }
    }
}

impl MarketConfig {
    /// Validates all parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.utility_rate > 0.0 && self.utility_rate.is_finite()) {
            return Err(MarketError::InvalidConfig(
                "utility_rate must be > 0".into(),
            ));
        }
        if !(self.budget > 0.0 && self.budget.is_finite()) {
            return Err(MarketError::InvalidConfig("budget must be > 0".into()));
        }
        for (name, eps) in [
            ("eps_task", self.eps_task),
            ("eps_data", self.eps_data),
            ("eps_task_cost", self.eps_task_cost),
            ("eps_data_cost", self.eps_data_cost),
        ] {
            if !(eps >= 0.0 && eps.is_finite()) {
                return Err(MarketError::InvalidConfig(format!("{name} must be >= 0")));
            }
        }
        if self.max_rounds == 0 {
            return Err(MarketError::InvalidConfig("max_rounds must be >= 1".into()));
        }
        if self.quote_samples == 0 {
            return Err(MarketError::InvalidConfig(
                "quote_samples must be >= 1".into(),
            ));
        }
        if !(self.escalation_step > 0.0 && self.escalation_step.is_finite()) {
            return Err(MarketError::InvalidConfig(
                "escalation_step must be > 0".into(),
            ));
        }
        if self.rate_cap <= 0.0 || self.rate_cap.is_nan() {
            return Err(MarketError::InvalidConfig("rate_cap must be > 0".into()));
        }
        if self.channel_capacity == 0 {
            return Err(MarketError::InvalidConfig(
                "channel_capacity must be >= 1".into(),
            ));
        }
        self.task_cost.validate()?;
        self.data_cost.validate()?;
        Ok(())
    }

    /// Derives an independent config for run `i` of a repeated experiment.
    pub fn with_run_seed(&self, run: u64) -> Self {
        MarketConfig {
            seed: self.seed.wrapping_add(run.wrapping_mul(0x9e37_79b9)),
            ..*self
        }
    }

    /// Effective payment-rate ceiling: `min(rate_cap, u)` (the paper's
    /// individual-rationality bound `p <= u`).
    pub fn effective_rate_cap(&self) -> f64 {
        self.rate_cap.min(self.utility_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        MarketConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_parameters() {
        let base = MarketConfig::default();
        assert!(MarketConfig {
            utility_rate: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            budget: -1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            eps_task: -1e-3,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            max_rounds: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            quote_samples: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            escalation_step: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            task_cost: CostModel::Linear { a: -1.0 },
            ..base
        }
        .validate()
        .is_err());
        assert!(MarketConfig {
            channel_capacity: 0,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn run_seeds_differ() {
        let cfg = MarketConfig::default();
        assert_ne!(cfg.with_run_seed(1).seed, cfg.with_run_seed(2).seed);
        assert_eq!(cfg.with_run_seed(3).seed, cfg.with_run_seed(3).seed);
    }
}
