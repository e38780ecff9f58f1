//! Learnable layer normalization.

use crate::optim::{ParamId, ParamStore};
use crate::tape::{Mode, Tape, Var};
use crate::tensor::Matrix;

/// Row-wise LayerNorm with learnable gain and bias.
#[derive(Clone)]
pub struct LayerNorm {
    /// Learnable gain `(1, dim)`, initialized to ones.
    pub gamma: ParamId,
    /// Learnable bias `(1, dim)`, initialized to zeros.
    pub beta: ParamId,
    /// Variance stabilizer.
    pub eps: f32,
}

impl LayerNorm {
    /// Create a LayerNorm over rows of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Matrix::full(1, dim, 1.0));
        let beta = store.register(format!("{name}.beta"), Matrix::zeros(1, dim));
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Normalize each row and apply gain/bias.
    pub fn forward(&self, tape: &mut Tape<impl Mode>, store: &ParamStore, x: Var) -> Var {
        let gamma = tape.param(store, self.gamma);
        let beta = tape.param(store, self.beta);
        tape.layer_norm(x, gamma, beta, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn output_rows_are_standardized_at_init() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(3, 8, |r, c| {
            (r * 8 + c) as f32 * 0.37 - 2.0
        }));
        let y = ln.forward(&mut tape, &store, x);
        let ym = tape.value(y);
        for r in 0..3 {
            let mean: f32 = ym.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = ym
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }
}
