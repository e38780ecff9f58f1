//! LSTM and BiLSTM. Used by the P-tuning continuous prompt encoder (per
//! PromptEM §3.1, which follows Liu et al.'s P-tuning) and by the
//! DeepMatcher baseline's attribute aggregator.

use crate::init;
use crate::optim::{ParamId, ParamStore};
use crate::tape::{Mode, Tape, Var};
use crate::tensor::Matrix;
use rand::Rng;

/// A single-direction LSTM processing a `(seq, in_dim)` var row by row.
/// Gate layout in the fused weight matrices: `[i | f | g | o]`.
#[derive(Clone)]
pub struct Lstm {
    /// Input-to-gates weights `(in_dim, 4*hidden)`.
    pub w_ih: ParamId,
    /// Hidden-to-gates weights `(hidden, 4*hidden)`.
    pub w_hh: ParamId,
    /// Fused gate bias `(1, 4*hidden)`; forget gate initialized to 1.
    pub bias: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden-state width.
    pub hidden: usize,
}

impl Lstm {
    /// Create a cell with Xavier-initialized weights.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w_ih = store.register(
            format!("{name}.w_ih"),
            init::xavier_uniform(in_dim, 4 * hidden, rng),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            init::xavier_uniform(hidden, 4 * hidden, rng),
        );
        // Forget-gate bias starts at 1.0 (standard trick for gradient flow).
        let mut b = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            b.set(0, c, 1.0);
        }
        let bias = store.register(format!("{name}.bias"), b);
        Lstm {
            w_ih,
            w_hh,
            bias,
            in_dim,
            hidden,
        }
    }

    /// Returns the sequence of hidden states `(seq, hidden)`.
    pub fn forward(&self, tape: &mut Tape<impl Mode>, store: &ParamStore, x: Var) -> Var {
        let seq = tape.value(x).rows();
        let w_ih = tape.param(store, self.w_ih);
        let w_hh = tape.param(store, self.w_hh);
        let bias = tape.param(store, self.bias);
        let mut h = tape.constant(Matrix::zeros(1, self.hidden));
        let mut c = tape.constant(Matrix::zeros(1, self.hidden));
        let mut outputs = Vec::with_capacity(seq);
        for t in 0..seq {
            let xt = tape.slice_rows(x, t, 1);
            let gx = tape.matmul(xt, w_ih);
            let gh = tape.matmul(h, w_hh);
            let gates = tape.add(gx, gh);
            let gates = tape.add_row_broadcast(gates, bias);
            let i = tape.slice_cols(gates, 0, self.hidden);
            let f = tape.slice_cols(gates, self.hidden, self.hidden);
            let g = tape.slice_cols(gates, 2 * self.hidden, self.hidden);
            let o = tape.slice_cols(gates, 3 * self.hidden, self.hidden);
            let i = tape.sigmoid(i);
            let f = tape.sigmoid(f);
            let g = tape.tanh(g);
            let o = tape.sigmoid(o);
            let fc = tape.mul(f, c);
            let ig = tape.mul(i, g);
            c = tape.add(fc, ig);
            let tc = tape.tanh(c);
            h = tape.mul(o, tc);
            outputs.push(h);
        }
        tape.concat_rows(&outputs)
    }
}

/// Bidirectional LSTM: forward and backward passes concatenated per
/// position, producing `(seq, 2*hidden)`.
#[derive(Clone)]
pub struct BiLstm {
    /// Forward-direction cell.
    pub fwd: Lstm,
    /// Backward-direction cell.
    pub bwd: Lstm,
}

impl BiLstm {
    /// Create both directional cells.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        BiLstm {
            fwd: Lstm::new(store, &format!("{name}.fwd"), in_dim, hidden, rng),
            bwd: Lstm::new(store, &format!("{name}.bwd"), in_dim, hidden, rng),
        }
    }

    /// Run both directions and concatenate per position → `(seq, 2*hidden)`.
    pub fn forward(&self, tape: &mut Tape<impl Mode>, store: &ParamStore, x: Var) -> Var {
        let seq = tape.value(x).rows();
        let hf = self.fwd.forward(tape, store, x);
        // Reverse the sequence for the backward direction, then un-reverse
        // its outputs so positions line up.
        let rev: Vec<usize> = (0..seq).rev().collect();
        let x_rev = tape.gather_rows(x, &rev);
        let hb_rev = self.bwd.forward(tape, store, x_rev);
        let hb = tape.gather_rows(hb_rev, &rev);
        tape.concat_cols(&[hf, hb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lstm_output_shape() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(7, 3, |r, c| ((r + c) as f32).sin()));
        let y = lstm.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (7, 5));
    }

    #[test]
    fn bilstm_output_shape_and_direction_symmetry() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "b", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f32).cos()));
        let y = bi.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (6, 8));
    }

    #[test]
    fn lstm_learns_last_token_detection() {
        // Classify a sequence by whether its final row is positive — forces
        // the recurrence to carry information.
        let mut rng = StdRng::seed_from_u64(33);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 1, 8, &mut rng);
        let head = crate::layers::Linear::new(&mut store, "head", 8, 2, &mut rng);
        let mut opt = AdamW::new(0.02).with_weight_decay(0.0);
        let seqs: Vec<(Vec<f32>, usize)> = (0..16)
            .map(|i| {
                let last = if i % 2 == 0 { 1.0 } else { -1.0 };
                (vec![0.1, -0.2, 0.05, last], if i % 2 == 0 { 1 } else { 0 })
            })
            .collect();
        for _ in 0..200 {
            store.zero_grads();
            let mut tape = Tape::new();
            let mut losses = Vec::new();
            for (seq, label) in &seqs {
                let x = tape.constant(Matrix::from_vec(seq.len(), 1, seq.clone()));
                let h = lstm.forward(&mut tape, &store, x);
                let hn = tape.slice_rows(h, seq.len() - 1, 1);
                let logits = head.forward(&mut tape, &store, hn);
                losses.push(tape.cross_entropy(logits, &[*label]));
            }
            let mut total = losses[0];
            for &l in &losses[1..] {
                total = tape.add(total, l);
            }
            let loss = tape.scale(total, 1.0 / losses.len() as f32);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        // Verify accuracy.
        let mut correct = 0;
        for (seq, label) in &seqs {
            let mut tape = Tape::inference();
            let x = tape.constant(Matrix::from_vec(seq.len(), 1, seq.clone()));
            let h = lstm.forward(&mut tape, &store, x);
            let hn = tape.slice_rows(h, seq.len() - 1, 1);
            let logits = head.forward(&mut tape, &store, hn);
            let lm = tape.value(logits);
            let pred = if lm.get(0, 1) > lm.get(0, 0) { 1 } else { 0 };
            if pred == *label {
                correct += 1;
            }
        }
        assert!(correct >= 15, "LSTM failed to learn: {correct}/16");
    }
}
