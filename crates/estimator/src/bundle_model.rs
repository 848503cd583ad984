//! The data party's estimation function `g(F) -> ΔG` (Eq. 8): each feature
//! in the bundle is embedded, the embeddings are mean-pooled into the
//! bundle representation, and a 3-layer MLP (64/32/16) regresses the gain —
//! exactly the architecture of §4.4 (nn.Embedding + averaging).

use crate::buffer::ReplayBuffer;
use vfl_ml::nn::AdamConfig;
use vfl_ml::{Embedding, MlpRegressor};
use vfl_sim::BundleMask;
use vfl_tabular::Matrix;

/// Hyper-parameters of the bundle → gain estimator.
#[derive(Debug, Clone, Copy)]
pub struct BundleModelConfig {
    /// Number of data-party features (embedding vocabulary).
    pub n_features: usize,
    /// Embedding dimension.
    pub emb_dim: usize,
    /// Divisor for the gain targets.
    pub gain_scale: f64,
    /// Learning rate (shared by the embedding and the MLP).
    pub lr: f64,
    /// Gradient passes over the buffer per observed round.
    pub updates_per_round: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    pub seed: u64,
}

impl BundleModelConfig {
    /// Paper-style defaults for `n_features` data-party features.
    pub fn for_features(n_features: usize, gain_scale: f64, seed: u64) -> Self {
        BundleModelConfig {
            n_features,
            emb_dim: 16,
            gain_scale,
            lr: 3e-3,
            updates_per_round: 8,
            buffer_capacity: 512,
            seed,
        }
    }
}

/// Online bundle → gain regressor with MSE tracking (Figure 4's data-party
/// curve).
#[derive(Debug, Clone)]
pub struct BundleGainModel {
    cfg: BundleModelConfig,
    embedding: Embedding,
    net: MlpRegressor,
    adam: AdamConfig,
    buffer: ReplayBuffer<(BundleMask, f64)>,
    mse_history: Vec<f64>,
}

impl BundleGainModel {
    /// Builds the embedding + 64/32/16 MLP stack.
    pub fn new(cfg: BundleModelConfig) -> Self {
        assert!(
            cfg.n_features > 0 && cfg.n_features <= 63,
            "1..=63 features"
        );
        assert!(cfg.gain_scale > 0.0 && cfg.emb_dim > 0);
        let mut rng = vfl_ml::rng::rng_from_seed(cfg.seed ^ 0xeb0d9);
        BundleGainModel {
            embedding: Embedding::new(cfg.n_features, cfg.emb_dim, &mut rng),
            net: MlpRegressor::new(cfg.emb_dim, &[64, 32, 16], cfg.lr, cfg.seed ^ 0x9e77),
            adam: AdamConfig::with_lr(cfg.lr),
            buffer: ReplayBuffer::new(cfg.buffer_capacity),
            mse_history: Vec::new(),
            cfg,
        }
    }

    fn ids_of(bundle: BundleMask) -> Vec<u32> {
        bundle.iter().map(|f| f as u32).collect()
    }

    /// Predicted ΔG for a bundle.
    pub fn predict(&self, bundle: BundleMask) -> f64 {
        let pooled = self.embedding.forward_mean(&[Self::ids_of(bundle)]);
        self.net.predict(&pooled)[0] * self.cfg.gain_scale
    }

    /// Predicted ΔG for many bundles at once.
    pub fn predict_many(&self, bundles: &[BundleMask]) -> Vec<f64> {
        let batch: Vec<Vec<u32>> = bundles.iter().map(|&b| Self::ids_of(b)).collect();
        let pooled = self.embedding.forward_mean(&batch);
        self.net
            .predict(&pooled)
            .into_iter()
            .map(|v| v * self.cfg.gain_scale)
            .collect()
    }

    /// Records a realized (bundle, ΔG) pair, performs the per-round updates
    /// through both the MLP and the embedding, and returns the buffer MSE
    /// after updating (normalized units). The id lists, targets and pooled
    /// batch are built once per call and reused by every update.
    pub fn observe(&mut self, bundle: BundleMask, gain: f64) -> f64 {
        self.buffer.push((bundle, gain / self.cfg.gain_scale));
        let batch: Vec<Vec<u32>> = self.buffer.iter().map(|&(b, _)| Self::ids_of(b)).collect();
        let targets: Vec<f64> = self.buffer.iter().map(|&(_, t)| t).collect();
        let mut pooled = Matrix::zeros(0, 0);
        for _ in 0..self.cfg.updates_per_round {
            self.embedding.forward_mean_into(&batch, &mut pooled);
            let (_, d_pooled) = self.net.train_batch_with_input_grad(&pooled, &targets);
            self.embedding.backward_mean(&batch, d_pooled);
            self.embedding.step(&self.adam);
        }
        self.embedding.forward_mean_into(&batch, &mut pooled);
        let mse = self.net.evaluate(&pooled, &targets);
        self.mse_history.push(mse);
        mse
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

    #[test]
    fn learns_additive_feature_values() {
        // Ground truth: each feature contributes a fixed gain share.
        let contributions = [0.02, 0.05, 0.1, 0.01];
        let truth = |b: BundleMask| -> f64 { b.iter().map(|f| contributions[f]).sum() };
        let mut m = BundleGainModel::new(BundleModelConfig {
            updates_per_round: 20,
            ..BundleModelConfig::for_features(4, 0.2, 1)
        });
        // Observe all 15 bundles a few times.
        for _ in 0..20 {
            for mask in 1u64..16 {
                let b = BundleMask(mask);
                m.observe(b, truth(b));
            }
        }
        let strong = m.predict(BundleMask::from_features(&[1, 2]));
        let weak = m.predict(BundleMask::from_features(&[0, 3]));
        assert!(
            strong > weak,
            "must rank bundles: strong={strong} weak={weak}"
        );
        let final_mse = *m.mse_history().last().unwrap();
        assert!(final_mse < 0.05, "mse {final_mse}");
    }

    #[test]
    fn batch_prediction_matches_single() {
        let mut m = BundleGainModel::new(BundleModelConfig::for_features(5, 0.2, 2));
        m.observe(BundleMask::singleton(0), 0.05);
        let bundles = [BundleMask::singleton(0), BundleMask::all(5)];
        let batch = m.predict_many(&bundles);
        for (b, expected) in bundles.iter().zip(&batch) {
            assert!((m.predict(*b) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn mse_history_tracks_observations() {
        let mut m = BundleGainModel::new(BundleModelConfig::for_features(3, 0.2, 3));
        assert!(m.mse_history().is_empty());
        m.observe(BundleMask::singleton(1), 0.1);
        m.observe(BundleMask::singleton(2), 0.15);
        assert_eq!(m.mse_history().len(), 2);
        assert_eq!(m.n_samples(), 2);
    }

    #[test]
    #[should_panic(expected = "1..=63 features")]
    fn rejects_zero_features() {
        let _ = BundleGainModel::new(BundleModelConfig::for_features(0, 0.2, 0));
    }
}
