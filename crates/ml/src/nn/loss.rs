//! Loss functions returning the scalar loss and writing the gradient
//! w.r.t. the network output into a caller-owned (reused) buffer;
//! gradients are already averaged over the batch.

use vfl_tabular::Matrix;

/// Numerically stable `log(1 + exp(x))`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        0.0
    } else {
        (1.0 + x.exp()).ln()
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy on raw logits (shape `n x 1`).
///
/// `loss = mean(softplus(z) - y * z)`, `dL/dz = (sigmoid(z) - y) / n`.
pub fn bce_with_logits(logits: &Matrix, targets: &[u8], grad: &mut Matrix) -> f64 {
    assert_eq!(logits.cols(), 1, "bce expects a single output column");
    assert_eq!(logits.rows(), targets.len(), "bce target length");
    let n = targets.len().max(1) as f64;
    grad.reset_zeros(logits.rows(), 1);
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let z = logits.get(i, 0);
        loss += softplus(z) - t as f64 * z;
        grad.set(i, 0, (sigmoid(z) - t as f64) / n);
    }
    loss / n
}

/// Mean squared error on a real-valued output column (shape `n x 1`).
pub fn mse_loss(pred: &Matrix, targets: &[f64], grad: &mut Matrix) -> f64 {
    assert_eq!(pred.cols(), 1, "mse expects a single output column");
    assert_eq!(pred.rows(), targets.len(), "mse target length");
    let n = targets.len().max(1) as f64;
    grad.reset_zeros(pred.rows(), 1);
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let e = pred.get(i, 0) - t;
        loss += e * e;
        grad.set(i, 0, 2.0 * e / n);
    }
    loss / n
}

/// Sigmoid applied to a logits column, as probabilities.
pub fn probs_from_logits(logits: &Matrix) -> Vec<f64> {
    assert_eq!(logits.cols(), 1, "expects a single output column");
    (0..logits.rows())
        .map(|i| sigmoid(logits.get(i, 0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bce(logits: &Matrix, targets: &[u8]) -> (f64, Matrix) {
        let mut grad = Matrix::filled(3, 3, f64::NAN);
        let loss = bce_with_logits(logits, targets, &mut grad);
        (loss, grad)
    }

    #[test]
    fn bce_loss_values() {
        let logits = Matrix::from_vec(2, 1, vec![0.0, 0.0]).unwrap();
        let (loss, grad) = bce(&logits, &[1, 0]);
        assert!((loss - (2.0f64).ln()).abs() < 1e-12);
        assert!((grad.get(0, 0) + 0.25).abs() < 1e-12);
        assert!((grad.get(1, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bce_gradient_is_numerically_correct() {
        let z0 = 0.7;
        let logits = Matrix::from_vec(1, 1, vec![z0]).unwrap();
        let (_, grad) = bce(&logits, &[1]);
        let eps = 1e-6;
        let lp = bce(&Matrix::from_vec(1, 1, vec![z0 + eps]).unwrap(), &[1]).0;
        let lm = bce(&Matrix::from_vec(1, 1, vec![z0 - eps]).unwrap(), &[1]).0;
        assert!((grad.get(0, 0) - (lp - lm) / (2.0 * eps)).abs() < 1e-6);
    }

    #[test]
    fn bce_extreme_logits_are_finite() {
        let logits = Matrix::from_vec(2, 1, vec![1000.0, -1000.0]).unwrap();
        let (loss, grad) = bce(&logits, &[0, 1]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn mse_values_and_grad() {
        let pred = Matrix::from_vec(2, 1, vec![1.0, 3.0]).unwrap();
        let mut grad = Matrix::filled(4, 1, f64::NAN);
        let loss = mse_loss(&pred, &[0.0, 3.0], &mut grad);
        assert_eq!(grad.shape(), (2, 1));
        assert!((loss - 0.5).abs() < 1e-12);
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(grad.get(1, 0), 0.0);
    }

    #[test]
    fn probs_from_logits_range() {
        let logits = Matrix::from_vec(3, 1, vec![-2.0, 0.0, 2.0]).unwrap();
        let p = probs_from_logits(&logits);
        assert!(p[0] < 0.5 && (p[1] - 0.5).abs() < 1e-12 && p[2] > 0.5);
    }
}
