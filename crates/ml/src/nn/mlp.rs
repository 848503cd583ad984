//! Multi-layer perceptron built from [`Linear`] and [`ActLayer`] blocks,
//! with a classifier wrapper (the paper's 3-layer MLP base model, §4.1.2)
//! and a regressor wrapper (the ΔG estimation networks, §3.5.1).
//!
//! The blocks keep no activations: [`Mlp`] owns one reusable training
//! tape, so a training step allocates nothing once the tape has grown to
//! the batch size (DESIGN.md, "The MLP training tape").

use crate::error::{MlError, Result};
use crate::model::{check_fit_inputs, Classifier};
use crate::nn::activation::{ActLayer, Activation};
use crate::nn::linear::Linear;
use crate::nn::loss::{bce_with_logits, mse_loss, probs_from_logits};
use crate::nn::optim::AdamConfig;
use crate::rng::{rng_from_seed, shuffle};
use rand::rngs::StdRng;
use vfl_tabular::{Matrix, Standardizer};

/// The buffers of one training step, reused across steps.
#[derive(Debug, Clone)]
struct Tape {
    /// `acts[i]`: output of linear layer `i`, with the hidden activation
    /// applied in place (every layer but the last). It is both the input of
    /// layer `i + 1` and the output the activation's backward pass reads.
    acts: Vec<Matrix>,
    /// Ping-pong gradient buffers: the loss writes `dL/d(output)` into one;
    /// each layer reads its output gradient from one and writes its input
    /// gradient into the other, and then the two swap roles.
    grads: [Matrix; 2],
}

/// A plain feed-forward stack: `dims = [in, h1, ..., out]` with the chosen
/// activation between linear layers (none after the output layer).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    act: ActLayer,
    tape: Tape,
}

impl Mlp {
    /// Builds the stack. Panics if `dims` has fewer than two entries.
    pub fn new(dims: &[usize], hidden_act: Activation, rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Mlp needs at least [in, out] dims");
        let layers: Vec<Linear> = dims
            .windows(2)
            .map(|pair| Linear::new(pair[0], pair[1], rng))
            .collect();
        let tape = Tape {
            acts: vec![Matrix::zeros(0, 0); layers.len()],
            grads: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
        };
        Mlp {
            layers,
            act: ActLayer::new(hidden_act),
            tape,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Linear::n_params).sum()
    }

    /// Inference forward pass (`&self`: two local ping-pong buffers, the
    /// tape is untouched).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h = Matrix::zeros(0, 0);
        let mut next = Matrix::zeros(0, 0);
        for (i, layer) in self.layers.iter().enumerate() {
            layer.affine_into(if i == 0 { x } else { &h }, &mut next);
            if i < last {
                self.act.apply_inplace(&mut next);
            }
            std::mem::swap(&mut h, &mut next);
        }
        h
    }

    /// One training step on the batch `x`: forward pass onto the tape;
    /// `loss(output, grad)` writes `dL/d(output)` into `grad` and returns
    /// the loss; backward pass; Adam step on every layer. Returns the loss
    /// and, when `need_dx`, `dL/dx` (taken with the pre-step weights).
    pub fn train_step(
        &mut self,
        x: &Matrix,
        adam: &AdamConfig,
        need_dx: bool,
        loss: impl FnOnce(&Matrix, &mut Matrix) -> f64,
    ) -> (f64, Option<&Matrix>) {
        let Tape { acts, grads } = &mut self.tape;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(i);
            let out = &mut rest[0];
            layer.affine_into(if i == 0 { x } else { &done[i - 1] }, out);
            if i < last {
                self.act.apply_inplace(out);
            }
        }

        let [mut d, mut spare] = grads.each_mut();
        let value = loss(&acts[last], d);
        for i in (1..=last).rev() {
            self.layers[i].backward_into(&acts[i - 1], d, Some(spare));
            self.act.backward_inplace(&acts[i - 1], spare);
            std::mem::swap(&mut d, &mut spare);
        }
        self.layers[0].backward_into(x, d, need_dx.then_some(&mut *spare));

        for layer in &mut self.layers {
            layer.step(adam);
        }
        (value, need_dx.then_some(&*spare))
    }
}

/// Mini-batch training hyper-parameters shared by the wrappers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f64,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // Paper defaults: lr 1e-2; 200 epochs for the isolated task-party
        // model; batch 128 (Titanic) / 512 (Credit, Adult).
        TrainConfig {
            epochs: 200,
            batch_size: 128,
            lr: 1e-2,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Validates the hyper-parameters.
    pub fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(MlError::InvalidConfig("epochs must be >= 1".into()));
        }
        if self.batch_size == 0 {
            return Err(MlError::InvalidConfig("batch_size must be >= 1".into()));
        }
        if self.lr <= 0.0 || self.lr.is_nan() {
            return Err(MlError::InvalidConfig("lr must be > 0".into()));
        }
        Ok(())
    }
}

/// Binary MLP classifier: standardizes inputs, trains with BCE + Adam.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    hidden: Vec<usize>,
    activation: Activation,
    train: TrainConfig,
    state: Option<(Mlp, Standardizer)>,
}

impl MlpClassifier {
    /// New classifier with the paper's embedding dims (e.g. `[64, 32]`).
    pub fn new(hidden: Vec<usize>, train: TrainConfig) -> Self {
        MlpClassifier {
            hidden,
            activation: Activation::Relu,
            train,
            state: None,
        }
    }

    /// Overrides the hidden activation.
    pub fn with_activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        self.train.validate()?;
        check_fit_inputs(x, y)?;
        let standardizer = Standardizer::fit(x);
        let mut xs = x.clone();
        standardizer.transform_inplace(&mut xs);

        let mut dims = vec![xs.cols()];
        dims.extend_from_slice(&self.hidden);
        dims.push(1);
        let mut rng = rng_from_seed(self.train.seed);
        let mut mlp = Mlp::new(&dims, self.activation, &mut rng);
        let adam = AdamConfig::with_lr(self.train.lr);

        let n = xs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut xb = Matrix::zeros(0, 0);
        let mut yb: Vec<u8> = Vec::with_capacity(self.train.batch_size.min(n));
        for _ in 0..self.train.epochs {
            shuffle(&mut order, &mut rng);
            for chunk in order.chunks(self.train.batch_size) {
                xs.select_rows_into(chunk, &mut xb)?;
                yb.clear();
                yb.extend(chunk.iter().map(|&i| y[i]));
                mlp.train_step(&xb, &adam, false, |logits, grad| {
                    bce_with_logits(logits, &yb, grad)
                });
            }
        }
        self.state = Some((mlp, standardizer));
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let (mlp, standardizer) = self.state.as_ref().ok_or(MlError::NotFitted)?;
        if x.cols() != mlp.in_dim() {
            return Err(MlError::FeatureMismatch {
                expected: mlp.in_dim(),
                got: x.cols(),
            });
        }
        let mut xs = x.clone();
        standardizer.transform_inplace(&mut xs);
        Ok(probs_from_logits(&mlp.forward_inference(&xs)))
    }
}

/// Online MLP regressor used by the ΔG estimators: callers own the input
/// featurization; this wrapper owns the net, the optimizer, and MSE steps.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    mlp: Mlp,
    adam: AdamConfig,
}

impl MlpRegressor {
    /// Builds `in_dim -> hidden... -> 1` with ReLU hiddens.
    pub fn new(in_dim: usize, hidden: &[usize], lr: f64, seed: u64) -> Self {
        let mut dims = vec![in_dim];
        dims.extend_from_slice(hidden);
        dims.push(1);
        let mut rng = rng_from_seed(seed);
        MlpRegressor {
            mlp: Mlp::new(&dims, Activation::Relu, &mut rng),
            adam: AdamConfig::with_lr(lr),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// One gradient step on a batch; returns the batch MSE before the step.
    pub fn train_batch(&mut self, x: &Matrix, targets: &[f64]) -> f64 {
        let mse = |pred: &Matrix, grad: &mut Matrix| mse_loss(pred, targets, grad);
        self.mlp.train_step(x, &self.adam, false, mse).0
    }

    /// Like [`Self::train_batch`] but also returns the gradient w.r.t. the
    /// *input* (needed to train an upstream embedding). The gradient lives
    /// on the network's tape until the next step.
    pub fn train_batch_with_input_grad(&mut self, x: &Matrix, targets: &[f64]) -> (f64, &Matrix) {
        let mse = |pred: &Matrix, grad: &mut Matrix| mse_loss(pred, targets, grad);
        let (loss, dx) = self.mlp.train_step(x, &self.adam, true, mse);
        (loss, dx.expect("input gradient requested"))
    }

    /// Predictions for a batch.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let out = self.mlp.forward_inference(x);
        (0..out.rows()).map(|i| out.get(i, 0)).collect()
    }

    /// Current MSE on a batch without updating.
    pub fn evaluate(&self, x: &Matrix, targets: &[f64]) -> f64 {
        crate::metrics::mse(&self.predict(x), targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy_from_probs;
    use crate::rng::normal;

    fn two_moons_ish(n: usize, seed: u64) -> (Matrix, Vec<u8>) {
        // Concentric-ring data: not linearly separable, needs the hidden layer.
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = (i % 2) as u8;
            let radius = if label == 1 { 2.0 } else { 0.5 };
            let angle = 2.0 * std::f64::consts::PI * (i as f64 / n as f64) * 7.3;
            rows.push(vec![
                radius * angle.cos() + 0.1 * normal(&mut rng),
                radius * angle.sin() + 0.1 * normal(&mut rng),
            ]);
            y.push(label);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn mlp_shapes_and_params() {
        let mut rng = rng_from_seed(1);
        let mlp = Mlp::new(&[5, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.n_params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn train_step_input_grad_matches_numerical_gradient() {
        // Tanh keeps the loss smooth; dx must be taken before the step.
        let mut rng = rng_from_seed(9);
        let mut mlp = Mlp::new(&[3, 5, 4, 1], Activation::Tanh, &mut rng);
        let before = mlp.clone();
        let x = Matrix::from_rows(&[vec![0.3, -1.2, 0.8], vec![-0.5, 0.1, 1.7]]).unwrap();
        let targets = [0.4, -0.9];
        let loss_at = |x: &Matrix| {
            let mut grad = Matrix::zeros(0, 0);
            mse_loss(&before.forward_inference(x), &targets, &mut grad)
        };
        let adam = AdamConfig::with_lr(0.1);
        let (loss, dx) =
            mlp.train_step(&x, &adam, true, |pred, grad| mse_loss(pred, &targets, grad));
        assert_eq!(loss, loss_at(&x));
        let dx = dx.unwrap().clone();
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let num = (loss_at(&xp) - loss_at(&xm)) / (2.0 * eps);
                assert!((dx.get(r, c) - num).abs() < 1e-6, "dx[{r},{c}]");
            }
        }
        assert_ne!(
            mlp.forward_inference(&x),
            before.forward_inference(&x),
            "the step must move the weights"
        );
    }

    #[test]
    fn classifier_learns_nonlinear_boundary() {
        let (x, y) = two_moons_ish(240, 2);
        let mut clf = MlpClassifier::new(
            vec![16, 8],
            TrainConfig {
                epochs: 120,
                batch_size: 32,
                lr: 1e-2,
                seed: 3,
            },
        );
        clf.fit(&x, &y).unwrap();
        let acc = accuracy_from_probs(&clf.predict_proba(&x).unwrap(), &y);
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn classifier_is_deterministic() {
        let (x, y) = two_moons_ish(100, 4);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 25,
            lr: 1e-2,
            seed: 5,
        };
        let mut a = MlpClassifier::new(vec![8], cfg);
        let mut b = MlpClassifier::new(vec![8], cfg);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn regressor_fits_quadratic() {
        let mut rng = rng_from_seed(6);
        let xs: Vec<Vec<f64>> = (0..200).map(|_| vec![2.0 * normal(&mut rng)]).collect();
        let targets: Vec<f64> = xs.iter().map(|v| v[0] * v[0]).collect();
        let x = Matrix::from_rows(&xs).unwrap();
        let mut reg = MlpRegressor::new(1, &[32, 16], 5e-3, 7);
        for _ in 0..600 {
            reg.train_batch(&x, &targets);
        }
        let final_mse = reg.evaluate(&x, &targets);
        assert!(final_mse < 0.3, "mse {final_mse}");
    }

    #[test]
    fn train_config_validation() {
        assert!(TrainConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            lr: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn classifier_feature_mismatch() {
        let (x, y) = two_moons_ish(60, 8);
        let mut clf = MlpClassifier::new(
            vec![4],
            TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 1e-2,
                seed: 0,
            },
        );
        clf.fit(&x, &y).unwrap();
        assert!(clf.predict_proba(&Matrix::zeros(2, 5)).is_err());
    }
}
