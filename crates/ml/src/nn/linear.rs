//! Fully connected layer with manual backprop and per-layer Adam state.

use crate::nn::optim::{AdamConfig, AdamState};
use crate::rng::normal;
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// `y = x W + b`. The layer keeps no activations: the caller passes the
/// input back in for the backward pass (see [`crate::nn::Mlp`]'s tape).
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix, // in_dim x out_dim
    b: Vec<f64>,
    dw: Matrix,
    db: Vec<f64>,
    opt_w: AdamState,
    opt_b: AdamState,
}

impl Linear {
    /// He-initialized layer (suits the ReLU hidden stacks used throughout).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / in_dim.max(1) as f64).sqrt();
        let mut w = Matrix::zeros(in_dim, out_dim);
        for v in w.as_mut_slice() {
            *v = scale * normal(rng);
        }
        Linear {
            w,
            b: vec![0.0; out_dim],
            dw: Matrix::zeros(in_dim, out_dim),
            db: vec![0.0; out_dim],
            opt_w: AdamState::new(in_dim * out_dim),
            opt_b: AdamState::new(out_dim),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// `out = x W + b`, reusing `out`'s storage.
    pub fn affine_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out)
            .expect("linear: input width mismatch");
        for r in 0..out.rows() {
            for (v, b) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    /// Backward pass for the forward input `x` and `d_out = dL/dy`: stores
    /// `dw`/`db` and, when `dx` is given, writes `dL/dx` into it.
    pub fn backward_into(&mut self, x: &Matrix, d_out: &Matrix, dx: Option<&mut Matrix>) {
        assert_eq!(d_out.cols(), self.out_dim(), "linear: grad width");
        if let Some(dx) = dx {
            // dx = d_out · Wᵀ as row axpys over a transient Wᵀ. `dw` lends
            // its storage for the transpose: it is overwritten with the
            // weight gradient right below, so no buffer is added.
            self.w.transpose_into(&mut self.dw);
            d_out.matmul_into(&self.dw, dx).expect("linear: dx shape");
        }
        x.t_matmul_into(d_out, &mut self.dw)
            .expect("linear: grad shape");
        d_out.col_sums_into(&mut self.db);
    }

    /// Applies one Adam step on the stored gradients.
    pub fn step(&mut self, cfg: &AdamConfig) {
        self.opt_w
            .step(self.w.as_mut_slice(), self.dw.as_slice(), cfg);
        self.opt_b.step(&mut self.b, &self.db, cfg);
    }

    /// Read access to the weights (tests / inspection).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read access to the bias.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn affine(layer: &Linear, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        layer.affine_into(x, &mut out);
        out
    }

    #[test]
    fn forward_is_affine() {
        let mut rng = rng_from_seed(1);
        let layer = Linear::new(2, 1, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let y = affine(&layer, &x);
        let w = layer.weights();
        let expected = 1.0 * w.get(0, 0) + 2.0 * w.get(1, 0) + layer.bias()[0];
        assert!((y.get(0, 0) - expected).abs() < 1e-12);
        assert!((y.get(1, 0) - layer.bias()[0]).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = rng_from_seed(2);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let dy = Matrix::filled(2, 2, 1.0);
        let mut dx = Matrix::zeros(0, 0);
        layer.backward_into(&x, &dy, Some(&mut dx));

        // Numerical dL/dx.
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lp: f64 = affine(&layer, &xp).as_slice().iter().sum();
                let lm: f64 = affine(&layer, &xm).as_slice().iter().sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!((dx.get(r, c) - num).abs() < 1e-5, "dx[{r},{c}]");
            }
        }
    }

    #[test]
    fn backward_dx_is_bitwise_the_dot_product() {
        // dx through the borrowed-Wᵀ axpys must equal the plain per-element
        // dot product Σ_k d[i][k] * W[j][k] bit for bit, and leave dw equal
        // to a fresh xᵀ·d (the transpose it borrowed is fully overwritten).
        let mut rng = rng_from_seed(5);
        let mut layer = Linear::new(6, 4, &mut rng);
        let x = Matrix::from_rows(&[
            vec![0.5, -0.0, 2.0, 0.0, -1.25, 3.0],
            vec![1.5, 0.3, -0.7, 0.0, 0.0, -0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        .unwrap();
        let d = Matrix::from_rows(&[
            vec![0.25, -0.0, 0.0, -1.5],
            vec![0.0, 0.75, -0.125, 0.0],
            vec![-2.0, 0.0, 0.5, 1.0],
        ])
        .unwrap();
        let mut dx = Matrix::filled(7, 9, f64::NAN);
        layer.backward_into(&x, &d, Some(&mut dx));
        let w = layer.weights();
        assert_eq!(dx.shape(), (3, 6));
        for i in 0..3 {
            for j in 0..6 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += d.get(i, k) * w.get(j, k);
                }
                assert_eq!(dx.get(i, j).to_bits(), acc.to_bits(), "dx[{i},{j}]");
            }
        }
        let with_dx = layer.dw.clone();
        layer.backward_into(&x, &d, None);
        assert_eq!(layer.dw, with_dx);
        assert_eq!(layer.dw, x.t_matmul(&d).unwrap());
        assert_eq!(layer.db, d.col_sums());
    }

    #[test]
    fn step_reduces_simple_loss() {
        // Fit y = 2x with a single linear unit.
        let mut rng = rng_from_seed(3);
        let mut layer = Linear::new(1, 1, &mut rng);
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![-1.0]]).unwrap();
        let target = [2.0, 4.0, -2.0];
        let cfg = AdamConfig::with_lr(0.05);
        let mut y = Matrix::zeros(0, 0);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            layer.affine_into(&x, &mut y);
            let mut dy = Matrix::zeros(3, 1);
            let mut loss = 0.0;
            for (i, &t) in target.iter().enumerate() {
                let e = y.get(i, 0) - t;
                loss += e * e / 3.0;
                dy.set(i, 0, 2.0 * e / 3.0);
            }
            layer.backward_into(&x, &dy, None);
            layer.step(&cfg);
            last = loss;
        }
        assert!(last < 1e-4, "loss {last}");
        assert!((layer.weights().get(0, 0) - 2.0).abs() < 0.05);
    }

    #[test]
    fn inference_equals_forward() {
        // A training forward writes into a reused (dirty, oversized) tape
        // buffer; it must equal an inference forward into a fresh one.
        let mut rng = rng_from_seed(4);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::filled(2, 4, 0.3);
        let mut reused = Matrix::filled(5, 5, f64::NAN);
        layer.affine_into(&x, &mut reused);
        assert_eq!(reused, affine(&layer, &x));
        assert_eq!(reused.shape(), (2, 3));
    }
}
