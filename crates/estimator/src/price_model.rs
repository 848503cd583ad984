//! The task party's estimation function `f(p, P0, Ph) -> ΔG` (Eq. 9): a
//! 3-layer MLP (hidden 64/32/16 as in §4.4) over normalized price
//! components, trained online with MSE on the rounds' realized gains.

use crate::buffer::ReplayBuffer;
use vfl_market::QuotedPrice;
use vfl_ml::MlpRegressor;
use vfl_tabular::Matrix;

/// Normalization scales so inputs and targets are O(1) for the net.
#[derive(Debug, Clone, Copy)]
pub struct PriceModelConfig {
    /// Divisor for the payment rate `p`.
    pub rate_scale: f64,
    /// Divisor for the base payment and cap.
    pub payment_scale: f64,
    /// Divisor for the gain targets (≈ the expected maximum ΔG).
    pub gain_scale: f64,
    /// Learning rate of the Adam optimizer.
    pub lr: f64,
    /// Gradient passes over the buffer per observed round.
    pub updates_per_round: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    pub seed: u64,
}

impl Default for PriceModelConfig {
    fn default() -> Self {
        PriceModelConfig {
            rate_scale: 10.0,
            payment_scale: 2.0,
            gain_scale: 0.2,
            lr: 3e-3,
            updates_per_round: 8,
            buffer_capacity: 512,
            seed: 0,
        }
    }
}

/// Online price → gain regressor with MSE tracking (Figure 4's task-party
/// curve).
#[derive(Debug, Clone)]
pub struct PriceGainModel {
    cfg: PriceModelConfig,
    net: MlpRegressor,
    buffer: ReplayBuffer<([f64; 3], f64)>,
    mse_history: Vec<f64>,
}

impl PriceGainModel {
    /// Builds the 3 → 64 → 32 → 16 → 1 network of §4.4.
    pub fn new(cfg: PriceModelConfig) -> Self {
        assert!(cfg.rate_scale > 0.0 && cfg.payment_scale > 0.0 && cfg.gain_scale > 0.0);
        PriceGainModel {
            net: MlpRegressor::new(3, &[64, 32, 16], cfg.lr, cfg.seed ^ 0xfee15),
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            mse_history: Vec::new(),
            cfg,
        }
    }

    fn featurize(&self, quote: &QuotedPrice) -> [f64; 3] {
        [
            quote.rate / self.cfg.rate_scale,
            quote.base / self.cfg.payment_scale,
            quote.cap / self.cfg.payment_scale,
        ]
    }

    /// Predicted ΔG for a quote.
    pub fn predict(&self, quote: &QuotedPrice) -> f64 {
        let x = Matrix::from_vec(1, 3, self.featurize(quote).to_vec()).expect("1x3 features");
        self.net.predict(&x)[0] * self.cfg.gain_scale
    }

    /// Records a realized (quote, ΔG) pair and performs the per-round
    /// updates; returns the buffer MSE after updating (normalized units).
    pub fn observe(&mut self, quote: &QuotedPrice, gain: f64) -> f64 {
        let features = self.featurize(quote);
        self.buffer.push((features, gain / self.cfg.gain_scale));
        let (x, t) = self.training_set();
        for _ in 0..self.cfg.updates_per_round {
            self.net.train_batch(&x, &t);
        }
        let mse = self.net.evaluate(&x, &t);
        self.mse_history.push(mse);
        mse
    }

    fn training_set(&self) -> (Matrix, Vec<f64>) {
        let features: Vec<f64> = self.buffer.iter().flat_map(|(f, _)| *f).collect();
        let targets: Vec<f64> = self.buffer.iter().map(|&(_, t)| t).collect();
        (
            Matrix::from_vec(targets.len(), 3, features).expect("3 features per row"),
            targets,
        )
    }

    /// Per-round MSE trace (normalized target units).
    pub fn mse_history(&self) -> &[f64] {
        &self.mse_history
    }

    /// Number of stored experiences.
    pub fn n_samples(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote(rate: f64, base: f64, cap: f64) -> QuotedPrice {
        QuotedPrice::new(rate, base, cap).unwrap()
    }

    #[test]
    fn learns_a_monotone_price_gain_map() {
        // Ground truth: gain rises with the cap (richer quotes buy better
        // bundles), saturating at 0.2.
        let mut m = PriceGainModel::new(PriceModelConfig {
            updates_per_round: 20,
            ..Default::default()
        });
        let true_gain = |cap: f64| 0.2 * (cap / 4.0).min(1.0);
        for round in 0..120 {
            let cap = 1.0 + 3.0 * ((round % 30) as f64 / 30.0);
            let q = quote(8.0, 1.0, cap);
            m.observe(&q, true_gain(cap));
        }
        let low = m.predict(&quote(8.0, 1.0, 1.2));
        let high = m.predict(&quote(8.0, 1.0, 3.8));
        assert!(
            high > low + 0.02,
            "must learn monotonicity: low={low} high={high}"
        );
        let final_mse = *m.mse_history().last().unwrap();
        assert!(final_mse < 0.05, "mse {final_mse}");
    }

    #[test]
    fn mse_history_grows_per_observation() {
        let mut m = PriceGainModel::new(PriceModelConfig::default());
        assert!(m.mse_history().is_empty());
        m.observe(&quote(8.0, 1.0, 2.0), 0.1);
        m.observe(&quote(9.0, 1.0, 2.5), 0.12);
        assert_eq!(m.mse_history().len(), 2);
        assert_eq!(m.n_samples(), 2);
    }

    #[test]
    fn mse_decreases_on_a_fixed_sample() {
        let mut m = PriceGainModel::new(PriceModelConfig {
            updates_per_round: 4,
            ..Default::default()
        });
        let q = quote(8.0, 1.0, 2.0);
        let first = m.observe(&q, 0.15);
        let mut last = first;
        for _ in 0..30 {
            last = m.observe(&q, 0.15);
        }
        assert!(
            last < first,
            "repeated training on one point must reduce MSE"
        );
    }
}
