//! Learnable embedding table with mean pooling — the data party's bundle
//! featurizer: "embed each singular feature ... then take the average of
//! each feature variable's embedding as the representation of the whole
//! feature bundle" (paper §4.4).

use crate::nn::optim::{AdamConfig, AdamState};
use crate::rng::normal;
use rand::rngs::StdRng;
use vfl_tabular::Matrix;

/// `vocab x dim` embedding table trained with Adam. It keeps no batch:
/// the backward pass takes the forward batch back from the caller.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Matrix,
    grad: Matrix,
    opt: AdamState,
}

impl Embedding {
    /// New table initialized ~N(0, 0.1²).
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        let mut table = Matrix::zeros(vocab, dim);
        for v in table.as_mut_slice() {
            *v = 0.1 * normal(rng);
        }
        Embedding {
            grad: Matrix::zeros(vocab, dim),
            opt: AdamState::new(vocab * dim),
            table,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Mean-pooled embeddings for a batch of id lists.
    pub fn forward_mean(&self, batch: &[Vec<u32>]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_mean_into(batch, &mut out);
        out
    }

    /// Mean-pooled embeddings written into `out`, reusing its storage.
    pub fn forward_mean_into(&self, batch: &[Vec<u32>], out: &mut Matrix) {
        out.reset_zeros(batch.len(), self.dim());
        for (r, ids) in batch.iter().enumerate() {
            if ids.is_empty() {
                continue; // empty bundle pools to the zero vector
            }
            let inv = 1.0 / ids.len() as f64;
            for &id in ids {
                debug_assert!(
                    (id as usize) < self.table.rows(),
                    "embedding id out of range"
                );
                let src = self.table.row(id as usize);
                for (o, s) in out.row_mut(r).iter_mut().zip(src) {
                    *o += s * inv;
                }
            }
        }
    }

    /// Scatters the pooled gradient of the forward `batch` back onto the
    /// table rows.
    pub fn backward_mean(&mut self, batch: &[Vec<u32>], d_pooled: &Matrix) {
        assert_eq!(d_pooled.rows(), batch.len(), "embedding grad batch size");
        assert_eq!(d_pooled.cols(), self.dim(), "embedding grad dim");
        self.grad.scale(0.0);
        for (ids, row) in batch.iter().zip(d_pooled.iter_rows()) {
            if ids.is_empty() {
                continue;
            }
            let inv = 1.0 / ids.len() as f64;
            for &id in ids {
                for (g, d) in self.grad.row_mut(id as usize).iter_mut().zip(row) {
                    *g += d * inv;
                }
            }
        }
    }

    /// Adam step on the whole table.
    pub fn step(&mut self, cfg: &AdamConfig) {
        // Split borrows: table (params) vs grad.
        let Embedding { table, grad, opt } = self;
        opt.step(table.as_mut_slice(), grad.as_slice(), cfg);
    }

    /// Read access to the table (tests / inspection).
    pub fn table(&self) -> &Matrix {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn pooling_is_the_mean() {
        let mut rng = rng_from_seed(1);
        let emb = Embedding::new(4, 3, &mut rng);
        let batch = vec![vec![0, 2], vec![1], vec![]];
        let out = emb.forward_mean(&batch);
        let mut reused = Matrix::filled(5, 5, f64::NAN);
        emb.forward_mean_into(&batch, &mut reused);
        assert_eq!(reused, out);
        for c in 0..3 {
            let expected = 0.5 * (emb.table().get(0, c) + emb.table().get(2, c));
            assert!((out.get(0, c) - expected).abs() < 1e-12);
            assert_eq!(out.get(1, c), emb.table().get(1, c));
            assert_eq!(out.get(2, c), 0.0);
        }
    }

    #[test]
    fn backward_distributes_by_membership() {
        let mut rng = rng_from_seed(2);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let batch = vec![vec![0, 1]];
        let mut d = Matrix::zeros(1, 2);
        d.set(0, 0, 1.0);
        emb.backward_mean(&batch, &d);
        // Each member receives d/2; the untouched row stays zero.
        assert!((emb.grad.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((emb.grad.get(1, 0) - 0.5).abs() < 1e-12);
        assert_eq!(emb.grad.get(2, 0), 0.0);
    }

    #[test]
    fn gradient_step_moves_only_touched_rows() {
        let mut rng = rng_from_seed(3);
        let mut emb = Embedding::new(3, 2, &mut rng);
        let before_untouched = emb.table().row(2).to_vec();
        let batch = vec![vec![0]];
        emb.backward_mean(&batch, &Matrix::filled(1, 2, 1.0));
        emb.step(&AdamConfig::with_lr(0.1));
        assert_eq!(
            emb.table().row(2),
            &before_untouched[..],
            "untouched row must not move"
        );
    }

    #[test]
    fn learns_to_separate_two_tokens() {
        // Regression target: token 0 -> +1, token 1 -> -1, readout = first coord.
        let mut rng = rng_from_seed(4);
        let mut emb = Embedding::new(2, 1, &mut rng);
        let cfg = AdamConfig::with_lr(0.05);
        for _ in 0..300 {
            let batch = vec![vec![0], vec![1]];
            let out = emb.forward_mean(&batch);
            let mut d = Matrix::zeros(2, 1);
            d.set(0, 0, out.get(0, 0) - 1.0);
            d.set(1, 0, out.get(1, 0) + 1.0);
            emb.backward_mean(&batch, &d);
            emb.step(&cfg);
        }
        assert!((emb.table().get(0, 0) - 1.0).abs() < 0.05);
        assert!((emb.table().get(1, 0) + 1.0).abs() < 0.05);
    }
}
