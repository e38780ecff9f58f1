//! Position-wise feed-forward block (Linear → GELU → Linear).

use super::linear::Linear;
use crate::optim::ParamStore;
use crate::tape::{Mode, Tape, Var};
use rand::Rng;

/// Position-wise feed-forward block: `fc2(dropout(gelu(fc1(x))))`.
#[derive(Clone)]
pub struct FeedForward {
    /// Expansion projection (`d_model → d_ff`).
    pub fc1: Linear,
    /// Contraction projection (`d_ff → d_model`).
    pub fc2: Linear,
    /// Dropout probability applied after the activation.
    pub dropout: f32,
}

impl FeedForward {
    /// Create the block with Xavier-initialized projections.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        FeedForward {
            fc1: Linear::new(store, &format!("{name}.fc1"), d_model, d_ff, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), d_ff, d_model, rng),
            dropout,
        }
    }

    /// Apply the block to `(rows, d_model)` input.
    pub fn forward(
        &self,
        tape: &mut Tape<impl Mode>,
        store: &ParamStore,
        x: Var,
        rng: &mut impl Rng,
    ) -> Var {
        let h = self.fc1.forward(tape, store, x);
        let h = tape.gelu(h);
        let h = tape.dropout(h, self.dropout, rng);
        self.fc2.forward(tape, store, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_model_dim() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, "f", 8, 32, 0.0, &mut rng);
        let mut tape = Tape::inference();
        let x = tape.constant(Matrix::zeros(6, 8));
        let y = ffn.forward(&mut tape, &store, x, &mut rng);
        assert_eq!(tape.value(y).shape(), (6, 8));
    }
}
