//! Element-wise activation layers.

use vfl_tabular::Matrix;

/// Supported non-linearities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Sigmoid,
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed through the *output* value (all three supported
    /// activations allow this, avoiding an input cache).
    #[inline]
    fn grad_from_output(&self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Element-wise activation layer. It keeps no state: the backward pass
/// takes the forward output back from the caller.
#[derive(Debug, Clone, Copy)]
pub struct ActLayer {
    act: Activation,
}

impl ActLayer {
    /// New activation layer.
    pub fn new(act: Activation) -> Self {
        ActLayer { act }
    }

    /// The wrapped activation kind.
    pub fn kind(&self) -> Activation {
        self.act
    }

    /// Forward pass in place: `x <- act(x)`.
    pub fn apply_inplace(&self, x: &mut Matrix) {
        x.map_inplace(|v| self.act.apply(v));
    }

    /// Backward pass in place, from the forward output `y`:
    /// `d <- d * act'(x)`, turning `dL/dy` into `dL/dx`.
    pub fn backward_inplace(&self, y: &Matrix, d: &mut Matrix) {
        assert_eq!(y.shape(), d.shape(), "activation grad shape");
        for (d, &o) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *d *= self.act.grad_from_output(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward then backward with `dL/dy = 1`: returns `(y, dL/dx)`.
    fn run(act: Activation, x: &Matrix) -> (Matrix, Matrix) {
        let layer = ActLayer::new(act);
        let mut y = x.clone();
        layer.apply_inplace(&mut y);
        let mut d = Matrix::filled(x.rows(), x.cols(), 1.0);
        layer.backward_inplace(&y, &mut d);
        (y, d)
    }

    #[test]
    fn relu_clips_negatives() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let (y, dx) = run(Activation::Relu, &x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let x = Matrix::from_vec(1, 3, vec![-50.0, 0.0, 50.0]).unwrap();
        let (y, dx) = run(Activation::Sigmoid, &x);
        assert!(y.get(0, 0) < 1e-12);
        assert!((y.get(0, 1) - 0.5).abs() < 1e-12);
        assert!(y.get(0, 2) > 1.0 - 1e-12);
        // Max slope 0.25 at x = 0.
        assert!((dx.get(0, 1) - 0.25).abs() < 1e-12);
        assert!(dx.get(0, 0) < 1e-12);
    }

    #[test]
    fn tanh_numerical_gradient() {
        let x = Matrix::from_vec(1, 1, vec![0.7]).unwrap();
        let (_, dx) = run(Activation::Tanh, &x);
        let eps = 1e-6;
        let num = ((0.7f64 + eps).tanh() - (0.7f64 - eps).tanh()) / (2.0 * eps);
        assert!((dx.get(0, 0) - num).abs() < 1e-9);
    }

    #[test]
    fn inference_matches_forward() {
        // In-place application equals the element-wise map.
        let x = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -0.2]).unwrap();
        let (y, _) = run(Activation::Tanh, &x);
        let want: Vec<f64> = x.as_slice().iter().map(|v| v.tanh()).collect();
        assert_eq!(y.as_slice(), &want[..]);
    }
}
