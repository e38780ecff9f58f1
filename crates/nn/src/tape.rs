//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] is built per forward pass (typically one per mini-batch). Ops
//! append values; [`Tape::backward`] walks the recorded ops in reverse and
//! fills per-node gradients; [`Tape::accumulate_param_grads`] folds leaf
//! gradients back into the shared [`ParamStore`](crate::optim::ParamStore).
//!
//! One executor serves both roles of a forward pass. Its [`Mode`] is a type
//! parameter: a [`Record`] tape keeps, beside each value, the op entry and
//! gradient slot that backward needs; a [`NoGrad`] tape keeps the values
//! alone. Each op is written once, checks its operands the same way in both
//! modes, and builds its backward payload only when recording. Model
//! forwards take `&mut Tape<impl Mode>`; `backward`, the loss ops and the
//! graph accessors exist only on `Tape<Record>`.
//!
//! Model parameters enter the tape through [`Tape::param`], which caches the
//! leaf so a parameter used by many samples in one batch is materialized only
//! once.

use crate::optim::{ParamId, ParamStore};
use crate::tensor::Matrix;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::opstats::{OpStatsTable, RelaxedWord};
use std::sync::OnceLock;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The value's index on its tape (stable; values are append-only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a [`Tape`] keeps besides forward values. Implemented by [`Record`]
/// and [`NoGrad`] only.
pub trait Mode: sealed::Sealed {
    /// True when ops record the graph entries [`Tape::backward`] walks.
    const RECORD: bool;
}

/// Recording mode: each op also stores its inputs and backward caches, so
/// the tape can be differentiated. The default mode of [`Tape`].
pub struct Record;

/// Value-only mode: each op pushes its value and nothing else — no op
/// entries, no grad slots, no LayerNorm/dropout caches. Used by every
/// inference path (teacher scoring, MC-dropout uncertainty, grid probes,
/// prediction and serving).
pub struct NoGrad;

impl Mode for Record {
    const RECORD: bool = true;
}

impl Mode for NoGrad {
    const RECORD: bool = false;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Record {}
    impl Sealed for super::NoGrad {}
}

/// Runtime switch for the NaN/Inf sanitizer (see [`sanitize_enabled`]).
static SANITIZE_FORCE: AtomicBool = AtomicBool::new(false);

fn sanitize_env() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV
        .get_or_init(|| std::env::var("PROMPTEM_SANITIZE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// True when the backward-pass NaN/Inf sanitizer is on: either
/// `PROMPTEM_SANITIZE=1` was set in the environment or [`set_sanitize`]
/// was called (the CLI `--sanitize` flag does the latter). The `em-check`
/// auditor hooks also audit every batch instead of just the first one
/// while this is on.
pub fn sanitize_enabled() -> bool {
    // ordering: Relaxed — a lone boolean flag; readers only need to see
    // the flip eventually, and no other data is published through it.
    SANITIZE_FORCE.load(Ordering::Relaxed) || sanitize_env()
}

/// Programmatically enable the sanitizer (cannot un-set the environment
/// variable; `set_sanitize(false)` only clears a previous programmatic
/// enable).
pub fn set_sanitize(on: bool) {
    // ordering: Relaxed — see sanitize_enabled; the flag guards no data.
    SANITIZE_FORCE.store(on, Ordering::Relaxed);
}

/// Runtime switch for the op profiler (see [`op_profile_enabled`]).
static OP_PROFILE_FORCE: AtomicBool = AtomicBool::new(false);

fn op_profile_env() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("PROMPTEM_OP_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// True when the op-level profiler is on: either `PROMPTEM_OP_PROFILE=1`
/// was set in the environment or [`set_op_profile`] was called (the CLI
/// `--op-profile` flag does the latter). While on, every op recording and
/// every backward visit adds into a process-global table of relaxed
/// atomics; [`flush_op_stats`] drains that table into `op_stats` events.
/// The disabled path is a single relaxed load per op — no clock reads, no
/// extra tape nodes, no RNG perturbation, so profiled and unprofiled runs
/// take identical optimizer steps.
pub fn op_profile_enabled() -> bool {
    // ordering: Relaxed — a lone boolean flag; a racing reader at worst
    // attributes one op to the wrong side of the flip, and the table's
    // counters are themselves single atomic RMWs.
    OP_PROFILE_FORCE.load(Ordering::Relaxed) || op_profile_env()
}

/// Programmatically enable the op profiler (cannot un-set the environment
/// variable; `set_op_profile(false)` only clears a previous programmatic
/// enable).
pub fn set_op_profile(on: bool) {
    // ordering: Relaxed — see op_profile_enabled; the flag guards no data.
    OP_PROFILE_FORCE.store(on, Ordering::Relaxed);
}

/// The profiler's accumulation table, one slot per op in
/// [`em_obs::names::ALL_OP_NAMES`] order (see [`slot`]). The swap-drain
/// algorithm lives in [`crate::opstats`] behind the `StatWord` shim so
/// the `em-sched` interleaving checker can model-check the identical
/// code path (`crates/nn/tests/sched_opstats.rs`).
static OP_TABLE: OpStatsTable<RelaxedWord, { em_obs::names::ALL_OP_NAMES.len() }> =
    OpStatsTable::new_relaxed();

/// Forward-timing handle opened at op entry when the profiler is on;
/// [`Tape::push`] closes it once the result exists.
struct OpTimer {
    sw: em_obs::Stopwatch,
    bytes0: usize,
}

impl OpTimer {
    #[inline]
    fn start() -> Option<OpTimer> {
        if !op_profile_enabled() {
            return None;
        }
        Some(OpTimer {
            sw: em_obs::Stopwatch::new(),
            bytes0: em_obs::alloc::current_bytes(),
        })
    }

    fn finish(self, slot: usize, elems: usize) {
        let grown = em_obs::alloc::current_bytes().saturating_sub(self.bytes0);
        OP_TABLE.record_fwd(
            slot,
            (self.sw.secs() * 1e9) as u64,
            elems as u64,
            grown as u64,
        );
    }
}

/// Drain the op-profiler table: emit one `op_stats` event per op with
/// nonzero activity since the previous flush, then reset the counters.
/// Call at a stage boundary while the owning span is still open so the
/// totals nest under that phase in the trace. No-op when the profiler is
/// off.
pub fn flush_op_stats() {
    if !op_profile_enabled() {
        return;
    }
    for (i, name) in em_obs::names::ALL_OP_NAMES.iter().enumerate() {
        let row = OP_TABLE.drain(i);
        if row.is_empty() {
            continue;
        }
        em_obs::op_stats(
            name,
            row.fwd_calls,
            row.fwd_ns / 1000,
            row.bwd_calls,
            row.bwd_ns / 1000,
            row.elems,
            row.bytes,
        );
    }
}

/// Each op's profiler slot: its position in [`em_obs::names::ALL_OP_NAMES`],
/// looked up by name at compile time, so a name missing from the registry
/// fails the build. Both modes pass the slot to [`Tape::push`]; a recorded
/// node keeps it, which also names the node ([`Tape::op_name`]).
mod slot {
    use em_obs::names::ALL_OP_NAMES;

    const fn of(name: &str) -> usize {
        let want = name.as_bytes();
        let mut i = 0;
        while i < ALL_OP_NAMES.len() {
            let have = ALL_OP_NAMES[i].as_bytes();
            let mut j = 0;
            while j < have.len() && j < want.len() && have[j] == want[j] {
                j += 1;
            }
            if j == have.len() && j == want.len() {
                return i;
            }
            i += 1;
        }
        panic!("op name missing from em_obs::names::ALL_OP_NAMES")
    }

    pub const LEAF: usize = of("leaf");
    pub const MATMUL: usize = of("matmul");
    pub const ADD: usize = of("add");
    pub const ADD_ROW_BROADCAST: usize = of("add_row_broadcast");
    pub const SUB: usize = of("sub");
    pub const MUL: usize = of("mul");
    pub const SCALE: usize = of("scale");
    pub const ADD_CONST: usize = of("add_const");
    pub const GRAD_REVERSE: usize = of("grad_reverse");
    pub const TRANSPOSE: usize = of("transpose");
    pub const TANH: usize = of("tanh");
    pub const SIGMOID: usize = of("sigmoid");
    pub const GELU: usize = of("gelu");
    pub const RELU: usize = of("relu");
    pub const SOFTMAX_ROWS: usize = of("softmax_rows");
    pub const LAYER_NORM: usize = of("layer_norm");
    pub const GATHER_ROWS: usize = of("gather_rows");
    pub const DROPOUT: usize = of("dropout");
    pub const CONCAT_ROWS: usize = of("concat_rows");
    pub const CONCAT_COLS: usize = of("concat_cols");
    pub const SLICE_ROWS: usize = of("slice_rows");
    pub const SLICE_COLS: usize = of("slice_cols");
    pub const MEAN_ROWS: usize = of("mean_rows");
    pub const MEAN_ALL: usize = of("mean_all");
    pub const CROSS_ENTROPY: usize = of("cross_entropy");
    pub const MSE_LOSS: usize = of("mse_loss");
    pub const NLL_PROBS: usize = of("nll_probs");
}

// Shape refusals. Every check reports through one of these, so the panic
// always names the op, and `#[track_caller]` on the ops points it at the
// caller's line.

#[cold]
#[track_caller]
fn shape_mismatch(op: &str, lhs: (usize, usize), rhs: (usize, usize)) -> ! {
    panic!(
        "tape op `{op}`: incompatible shapes {}x{} vs {}x{}",
        lhs.0, lhs.1, rhs.0, rhs.1
    )
}

#[cold]
#[track_caller]
fn bad_shape(op: &str, got: (usize, usize), want: &str) -> ! {
    panic!(
        "tape op `{op}`: operand is {}x{}, need {want}",
        got.0, got.1
    )
}

#[cold]
#[track_caller]
fn index_out_of_range(op: &str, index: usize, len: usize) -> ! {
    panic!("tape op `{op}`: index {index} out of range 0..{len}")
}

#[cold]
#[track_caller]
fn target_out_of_range(op: &str, target: usize, classes: usize) -> ! {
    panic!("tape op `{op}`: target {target} out of {classes} classes")
}

/// A recorded op: its inputs and whatever its backward needs.
enum Op {
    /// Constant or parameter leaf; parameter leaves are listed in the
    /// tape's `param_cache` and receive gradient at the end.
    Leaf,
    Matmul(Var, Var),
    Add(Var, Var),
    /// `a (R,C) + broadcast of b (1,C)` over rows.
    AddRowBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    /// Adds a constant matrix (no gradient through the constant); used for
    /// additive attention masks.
    AddConst(Var),
    /// Identity forward; backward multiplies the gradient by `-lambda`
    /// (the gradient-reversal layer of DANN-style domain adaptation).
    GradReverse(Var, f32),
    Transpose(Var),
    Tanh(Var),
    Sigmoid(Var),
    Gelu(Var),
    Relu(Var),
    /// Row-wise softmax; backward reads the output value.
    SoftmaxRows(Var),
    /// Layer normalization over each row with learnable gain/bias (1,C).
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        normed: Matrix,
        inv_std: Vec<f32>,
    },
    /// Select rows of `src` by index; backward scatter-adds.
    GatherRows {
        src: Var,
        idx: Vec<usize>,
    },
    /// Inverted dropout; `mask` holds 0.0 or `1/(1-p)` per element.
    Dropout {
        x: Var,
        mask: Matrix,
    },
    ConcatRows(Vec<Var>),
    ConcatCols(Vec<Var>),
    SliceRows {
        x: Var,
        start: usize,
    },
    SliceCols {
        x: Var,
        start: usize,
    },
    /// Mean over rows, producing (1,C).
    MeanRows(Var),
    /// Mean of every element, producing a scalar.
    MeanAll(Var),
    /// Fused softmax + negative log likelihood, mean over rows. Caches probs.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// Mean squared error against a constant target.
    MseLoss {
        pred: Var,
        target: Matrix,
    },
    /// Mean negative log likelihood over rows of an already-normalized
    /// probability matrix (used by verbalizer losses, where class
    /// probabilities are averages of word probabilities — Eq. 1 of the
    /// PromptEM paper).
    NllProbs {
        probs: Var,
        targets: Vec<usize>,
    },
}

impl Op {
    /// The vars this op reads (its graph predecessors).
    fn inputs(&self) -> Vec<Var> {
        match self {
            Op::Leaf => Vec::new(),
            Op::Matmul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::AddConst(a)
            | Op::GradReverse(a, _)
            | Op::Transpose(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Gelu(a)
            | Op::Relu(a)
            | Op::SoftmaxRows(a)
            | Op::MeanRows(a)
            | Op::MeanAll(a) => vec![*a],
            Op::LayerNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::GatherRows { src, .. } => vec![*src],
            Op::Dropout { x, .. } => vec![*x],
            Op::ConcatRows(parts) | Op::ConcatCols(parts) => parts.clone(),
            Op::SliceRows { x, .. } | Op::SliceCols { x, .. } => vec![*x],
            Op::CrossEntropy { logits, .. } => vec![*logits],
            Op::MseLoss { pred, .. } => vec![*pred],
            Op::NllProbs { probs, .. } => vec![*probs],
        }
    }
}

/// The graph entry a [`Record`] tape keeps beside each value.
struct Node {
    grad: Option<Matrix>,
    /// True once `grad` is known to hold no `-0.0`. Adding into such a
    /// slot keeps it true: under round-to-nearest a sum is `-0.0` only
    /// when both addends are. See [`add_gathered_grad`].
    grad_no_neg_zero: bool,
    /// The op's profiler slot, which also names it.
    slot: usize,
    op: Op,
}

/// A single-use computation graph over an arena of forward values.
///
/// Only a recording tape can be differentiated; a value-only tape has no
/// `backward`:
///
/// ```
/// use em_nn::{Matrix, Tape};
/// let mut tape = Tape::new();
/// let x = tape.constant(Matrix::scalar(2.0));
/// let y = tape.scale(x, 3.0);
/// tape.backward(y);
/// assert_eq!(tape.grad(x).item(), 3.0);
/// ```
///
/// ```compile_fail,E0599
/// use em_nn::{Matrix, Tape};
/// let mut tape = Tape::no_grad();
/// let x = tape.constant(Matrix::scalar(2.0));
/// let y = tape.scale(x, 3.0);
/// tape.backward(y);
/// ```
pub struct Tape<M: Mode = Record> {
    values: Vec<Matrix>,
    /// One entry per value on a [`Record`] tape; always empty on a
    /// [`NoGrad`] one.
    nodes: Vec<Node>,
    param_cache: HashMap<ParamId, Var>,
    /// When false, `dropout` is the identity (inference mode).
    pub train: bool,
    mode: PhantomData<M>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// A fresh training-mode tape (dropout active).
    pub fn new() -> Self {
        Self::with_train(true)
    }

    /// A recording tape whose dropout layers are disabled (deterministic
    /// inference).
    pub fn inference() -> Self {
        Self::with_train(false)
    }
}

impl Tape<NoGrad> {
    /// A value-only tape with dropout active (MC-dropout scoring: the RNG
    /// is consumed exactly as on a training-mode recording tape).
    pub fn no_grad() -> Self {
        Self::with_train(true)
    }

    /// A value-only tape whose dropout layers are disabled (deterministic
    /// prediction).
    pub fn no_grad_inference() -> Self {
        Self::with_train(false)
    }
}

impl<M: Mode> Tape<M> {
    fn with_train(train: bool) -> Self {
        Tape {
            values: Vec::with_capacity(256),
            nodes: Vec::with_capacity(if M::RECORD { 256 } else { 0 }),
            param_cache: HashMap::new(),
            train,
            mode: PhantomData,
        }
    }

    /// Store an op's result. `timer` was started at the op's entry (before
    /// the forward compute), `None` when the profiler is off. `op` builds
    /// the backward payload and runs only on a recording tape, before the
    /// timer closes, so the profile charges the payload to its op.
    #[inline]
    fn push(
        &mut self,
        timer: Option<OpTimer>,
        slot: usize,
        value: Matrix,
        op: impl FnOnce() -> Op,
    ) -> Var {
        let op = M::RECORD.then(op);
        if let Some(t) = timer {
            t.finish(slot, value.len());
        }
        if let Some(op) = op {
            NODES_PUSHED.with(|c| c.set(c.get() + 1));
            self.nodes.push(Node {
                grad: None,
                grad_no_neg_zero: false,
                slot,
                op,
            });
        }
        self.values.push(value);
        Var(self.values.len() - 1)
    }

    /// Number of values held so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no value has been computed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.values[v.0]
    }

    /// Insert a constant leaf (no gradient flows out of the tape).
    pub fn constant(&mut self, value: Matrix) -> Var {
        let prof = OpTimer::start();
        self.push(prof, slot::LEAF, value, || Op::Leaf)
    }

    /// Insert (or reuse) a leaf mirroring parameter `id` from `store`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let prof = OpTimer::start();
        let value = store.value(id).clone();
        let v = self.push(prof, slot::LEAF, value, || Op::Leaf);
        self.param_cache.insert(id, v);
        v
    }

    #[track_caller]
    fn same_shape(&self, op: &str, a: Var, b: Var) {
        let (la, lb) = (self.values[a.0].shape(), self.values[b.0].shape());
        if la != lb {
            shape_mismatch(op, la, lb);
        }
    }

    /// Matrix product `a @ b`.
    #[track_caller]
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (la, lb) = (self.values[a.0].shape(), self.values[b.0].shape());
        if la.1 != lb.0 {
            shape_mismatch("matmul", la, lb);
        }
        let value = self.values[a.0].matmul(&self.values[b.0]);
        self.push(prof, slot::MATMUL, value, || Op::Matmul(a, b))
    }

    /// Elementwise sum (same shapes).
    #[track_caller]
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        self.same_shape("add", a, b);
        let value = self.values[a.0].add(&self.values[b.0]);
        self.push(prof, slot::ADD, value, || Op::Add(a, b))
    }

    /// `a + b` where `b` is a (1,C) row broadcast over the rows of `a`.
    #[track_caller]
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (&self.values[a.0], &self.values[b.0]);
        if bm.rows() != 1 {
            bad_shape("add_row_broadcast", bm.shape(), "a (1,C) row vector");
        }
        if am.cols() != bm.cols() {
            shape_mismatch("add_row_broadcast", am.shape(), bm.shape());
        }
        let mut value = am.clone();
        for r in 0..value.rows() {
            for (v, &x) in value.row_mut(r).iter_mut().zip(bm.row(0)) {
                *v += x;
            }
        }
        self.push(prof, slot::ADD_ROW_BROADCAST, value, || {
            Op::AddRowBroadcast(a, b)
        })
    }

    /// Elementwise difference.
    #[track_caller]
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        self.same_shape("sub", a, b);
        let value = self.values[a.0].sub(&self.values[b.0]);
        self.push(prof, slot::SUB, value, || Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    #[track_caller]
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        self.same_shape("mul", a, b);
        let value = self.values[a.0].hadamard(&self.values[b.0]);
        self.push(prof, slot::MUL, value, || Op::Mul(a, b))
    }

    /// Multiply every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].scale(c);
        self.push(prof, slot::SCALE, value, || Op::Scale(a, c))
    }

    /// Add a constant matrix elementwise (no gradient to the constant).
    #[track_caller]
    pub fn add_const(&mut self, a: Var, k: &Matrix) -> Var {
        let prof = OpTimer::start();
        let la = self.values[a.0].shape();
        if la != k.shape() {
            shape_mismatch("add_const", la, k.shape());
        }
        let value = self.values[a.0].add(k);
        self.push(prof, slot::ADD_CONST, value, || Op::AddConst(a))
    }

    /// Gradient-reversal layer: forward identity, backward `-lambda * g`.
    pub fn grad_reverse(&mut self, a: Var, lambda: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].clone();
        self.push(prof, slot::GRAD_REVERSE, value, || {
            Op::GradReverse(a, lambda)
        })
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].transpose();
        self.push(prof, slot::TRANSPOSE, value, || Op::Transpose(a))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].map(f32::tanh);
        self.push(prof, slot::TANH, value, || Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(prof, slot::SIGMOID, value, || Op::Sigmoid(a))
    }

    /// Elementwise GELU (tanh approximation, as in BERT).
    pub fn gelu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].map(gelu);
        self.push(prof, slot::GELU, value, || Op::Gelu(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].map(|x| x.max(0.0));
        self.push(prof, slot::RELU, value, || Op::Relu(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[a.0].softmax_rows();
        self.push(prof, slot::SOFTMAX_ROWS, value, || Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization, `(x - mean) * inv_std * gamma + beta`
    /// per row. `gamma` and `beta` must be (1,C). A recording tape keeps
    /// each row's normalized values and `inv_std` for backward.
    #[track_caller]
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let prof = OpTimer::start();
        let (rows, cols) = self.values[x.0].shape();
        for v in [gamma, beta] {
            let shape = self.values[v.0].shape();
            if shape != (1, cols) {
                shape_mismatch("layer_norm", (rows, cols), shape);
            }
        }
        let (xm, gm, bm) = (
            &self.values[x.0],
            self.values[gamma.0].row(0),
            self.values[beta.0].row(0),
        );
        let mut normed = Vec::with_capacity(if M::RECORD { rows * cols } else { 0 });
        let mut inv_std = Vec::with_capacity(if M::RECORD { rows } else { 0 });
        let mut value = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = xm.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let istd = 1.0 / (var + eps).sqrt();
            let out = value.row_mut(r);
            for (o, &xv) in out.iter_mut().zip(row) {
                *o = (xv - mean) * istd;
            }
            if M::RECORD {
                normed.extend_from_slice(out);
                inv_std.push(istd);
            }
            for ((o, &g), &b) in out.iter_mut().zip(gm).zip(bm) {
                *o = *o * g + b;
            }
        }
        self.push(prof, slot::LAYER_NORM, value, || Op::LayerNorm {
            x,
            gamma,
            beta,
            normed: Matrix::from_vec(rows, cols, normed),
            inv_std,
        })
    }

    /// Select rows of `src` by `idx` (duplicates allowed).
    #[track_caller]
    pub fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let prof = OpTimer::start();
        let rows = self.values[src.0].rows();
        if let Some(&bad) = idx.iter().find(|&&i| i >= rows) {
            index_out_of_range("gather_rows", bad, rows);
        }
        let value = self.values[src.0].gather_rows(idx);
        self.push(prof, slot::GATHER_ROWS, value, || Op::GatherRows {
            src,
            idx: idx.to_vec(),
        })
    }

    /// Inverted dropout with keep-probability `1-p`: one `gen::<f32>()`
    /// draw per element in row-major order, mask value `1/(1-p)` or `0.0`,
    /// output `x * mask`. Identity, drawing nothing, when the tape is in
    /// inference mode or `p == 0`. A recording tape keeps the mask.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        if !self.train || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let prof = OpTimer::start();
        let xm = &self.values[x.0];
        let (rows, cols) = xm.shape();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        // Filled through an iterator, not `push`: a push per draw in this
        // loop made the recording forward nearly twice as slow.
        let mut mask = vec![0.0f32; if M::RECORD { xm.len() } else { 0 }];
        let mut slots = mask.iter_mut();
        let data = xm
            .data()
            .iter()
            .map(|&v| {
                let m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                if M::RECORD {
                    if let Some(s) = slots.next() {
                        *s = m;
                    }
                }
                v * m
            })
            .collect();
        let value = Matrix::from_vec(rows, cols, data);
        self.push(prof, slot::DROPOUT, value, || Op::Dropout {
            x,
            mask: Matrix::from_vec(rows, cols, mask),
        })
    }

    /// Stack vars vertically (equal column counts).
    #[track_caller]
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        if let [first, rest @ ..] = parts {
            let want = self.values[first.0].shape();
            for p in rest {
                let shape = self.values[p.0].shape();
                if shape.1 != want.1 {
                    shape_mismatch("concat_rows", want, shape);
                }
            }
        }
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.values[v.0]).collect();
        let value = Matrix::vstack(&mats);
        self.push(prof, slot::CONCAT_ROWS, value, || {
            Op::ConcatRows(parts.to_vec())
        })
    }

    /// Stack vars horizontally (equal row counts).
    #[track_caller]
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        if let [first, rest @ ..] = parts {
            let want = self.values[first.0].shape();
            for p in rest {
                let shape = self.values[p.0].shape();
                if shape.0 != want.0 {
                    shape_mismatch("concat_cols", want, shape);
                }
            }
        }
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.values[v.0]).collect();
        let value = Matrix::hstack(&mats);
        self.push(prof, slot::CONCAT_COLS, value, || {
            Op::ConcatCols(parts.to_vec())
        })
    }

    /// Copy of rows `[start, start+len)`.
    #[track_caller]
    pub fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let rows = self.values[x.0].rows();
        if start + len > rows {
            index_out_of_range("slice_rows", start + len, rows);
        }
        let value = self.values[x.0].slice_rows(start, len);
        self.push(prof, slot::SLICE_ROWS, value, || Op::SliceRows { x, start })
    }

    /// Copy of columns `[start, start+len)`.
    #[track_caller]
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let cols = self.values[x.0].cols();
        if start + len > cols {
            index_out_of_range("slice_cols", start + len, cols);
        }
        let value = self.values[x.0].slice_cols(start, len);
        self.push(prof, slot::SLICE_COLS, value, || Op::SliceCols { x, start })
    }

    /// Mean over rows, producing a `(1, C)` row.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.values[x.0].mean_rows();
        self.push(prof, slot::MEAN_ROWS, value, || Op::MeanRows(x))
    }

    /// Mean of every element, producing a scalar var.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let m = &self.values[x.0];
        let value = Matrix::scalar(m.sum() / m.len() as f32);
        self.push(prof, slot::MEAN_ALL, value, || Op::MeanAll(x))
    }
}

impl Tape<Record> {
    /// The gradient of `v` after [`Tape::backward`]; zeros if unused.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.values[v.0].shape();
                Matrix::zeros(r, c)
            }
        }
    }

    // ---- graph topology (read-only; consumed by the em-check auditor) ----

    /// Static name of the op that produced `v`.
    pub fn op_name(&self, v: Var) -> &'static str {
        em_obs::names::ALL_OP_NAMES[self.nodes[v.0].slot]
    }

    /// The vars `v` was computed from (empty for leaves).
    pub fn inputs(&self, v: Var) -> Vec<Var> {
        self.nodes[v.0].op.inputs()
    }

    /// Forward shape of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.values[v.0].shape()
    }

    /// All recorded vars, in record order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len()).map(Var)
    }

    /// True when `v` is a leaf (constant or parameter mirror).
    pub fn is_leaf(&self, v: Var) -> bool {
        matches!(self.nodes[v.0].op, Op::Leaf)
    }

    /// Every parameter leaf on the tape, sorted by [`ParamId`] so walks are
    /// deterministic.
    pub fn param_leaves(&self) -> Vec<(ParamId, Var)> {
        let mut out: Vec<(ParamId, Var)> = self.param_cache.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    // ---- losses ----

    /// Refuse a (matrix, class-target list) pairing a loss op cannot use.
    #[track_caller]
    fn check_targets(&self, op: &str, m: Var, targets: &[usize]) {
        let shape = self.values[m.0].shape();
        if shape.0 != targets.len() {
            bad_shape(op, shape, "one row per target");
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= shape.1) {
            target_out_of_range(op, bad, shape.1);
        }
    }

    /// Mean cross-entropy of row-wise softmax(logits) against integer
    /// `targets`. Returns a scalar var.
    #[track_caller]
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let prof = OpTimer::start();
        self.check_targets("cross_entropy", logits, targets);
        let probs = self.values[logits.0].softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(prof, slot::CROSS_ENTROPY, Matrix::scalar(loss), || {
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            }
        })
    }

    /// Mean negative log likelihood of already-normalized probabilities:
    /// `-(1/n) Σ log probs[r][targets[r]]`. Scalar var.
    #[track_caller]
    pub fn nll_probs(&mut self, probs: Var, targets: &[usize]) -> Var {
        let prof = OpTimer::start();
        self.check_targets("nll_probs", probs, targets);
        let pm = &self.values[probs.0];
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= pm.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(prof, slot::NLL_PROBS, Matrix::scalar(loss), || {
            Op::NllProbs {
                probs,
                targets: targets.to_vec(),
            }
        })
    }

    /// Mean squared error against a constant target matrix. Scalar var.
    #[track_caller]
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Var {
        let prof = OpTimer::start();
        let pm = &self.values[pred.0];
        if pm.shape() != target.shape() {
            shape_mismatch("mse_loss", pm.shape(), target.shape());
        }
        let diff = pm.sub(target);
        let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / pm.len() as f32;
        self.push(prof, slot::MSE_LOSS, Matrix::scalar(loss), || Op::MseLoss {
            pred,
            target: target.clone(),
        })
    }

    // ---- differentiation ----

    fn add_grad(&mut self, v: Var, g: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Run reverse-mode differentiation from scalar `loss`.
    #[track_caller]
    pub fn backward(&mut self, loss: Var) {
        // Timing is telemetry-gated so the hot path stays free of clock
        // reads when no sink is active.
        let timed = em_obs::Stopwatch::if_enabled();
        let shape = self.values[loss.0].shape();
        if shape != (1, 1) {
            bad_shape("backward", shape, "a scalar (1x1) loss");
        }
        let sanitize = sanitize_enabled();
        let profiling = op_profile_enabled();
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));
        for i in (0..=loss.0).rev() {
            let g = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            if sanitize {
                self.sanitize_node(i, Some(&g));
            }
            if profiling {
                let sw = em_obs::Stopwatch::new();
                self.backprop_node(i, &g);
                OP_TABLE.record_bwd(self.nodes[i].slot, (sw.secs() * 1e9) as u64);
            } else {
                self.backprop_node(i, &g);
            }
            self.nodes[i].grad = Some(g);
        }
        if let Some(sw) = timed {
            static BACKWARD_SECS: OnceLock<em_obs::metrics::Histogram> = OnceLock::new();
            BACKWARD_SECS
                .get_or_init(|| em_obs::metrics::histogram("nn_tape_backward_secs", &[]))
                .record(sw.secs());
        }
        // Graph-size counters (reports divide these by optimizer steps to
        // explain per-step cost). Kept outside the telemetry gate: two
        // relaxed atomic adds, and counters must agree with step counts.
        static TAPE_NODES: OnceLock<em_obs::metrics::Counter> = OnceLock::new();
        static TAPE_PARAM_LEAVES: OnceLock<em_obs::metrics::Counter> = OnceLock::new();
        TAPE_NODES
            .get_or_init(|| em_obs::metrics::counter("nn_tape_nodes", &[]))
            .add(self.nodes.len() as u64);
        TAPE_PARAM_LEAVES
            .get_or_init(|| em_obs::metrics::counter("nn_tape_param_leaves", &[]))
            .add(self.param_cache.len() as u64);
    }

    /// Check one node's value (and, if present, gradient) buffers for
    /// NaN/Inf and emit a `non_finite` event per bad buffer. Returns true
    /// when everything is finite.
    fn sanitize_node(&self, i: usize, grad: Option<&Matrix>) -> bool {
        fn count_bad(m: &Matrix) -> u64 {
            m.data().iter().filter(|x| !x.is_finite()).count() as u64
        }
        let name = self.op_name(Var(i));
        let value = &self.values[i];
        let mut clean = true;
        let bad = count_bad(value);
        if bad > 0 {
            clean = false;
            em_obs::non_finite(name, i as u64, "value", bad, value.len() as u64);
        }
        if let Some(g) = grad {
            let bad = count_bad(g);
            if bad > 0 {
                clean = false;
                em_obs::non_finite(name, i as u64, "grad", bad, g.len() as u64);
            }
        }
        clean
    }

    /// Sanitizer sweep over every recorded value buffer (no gradients
    /// required) — the forward-pass half of `PROMPTEM_SANITIZE=1`. Returns
    /// the number of nodes with at least one non-finite element.
    pub fn sanitize_values(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| !self.sanitize_node(i, None))
            .count()
    }

    fn backprop_node(&mut self, i: usize, g: &Matrix) {
        // Split borrows: take the op out while its inputs' grads are
        // mutated via add_grad, then put it back.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        match &op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.matmul_nt(&self.values[b.0]);
                let db = self.values[a.0].matmul_tn(g);
                self.add_grad(a, da);
                self.add_grad(b, db);
            }
            Op::Add(a, b) => {
                self.add_grad(*a, g.clone());
                self.add_grad(*b, g.clone());
            }
            Op::AddRowBroadcast(a, b) => {
                self.add_grad(*a, g.clone());
                // Sum over rows into a (1,C) gradient.
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                self.add_grad(*b, db);
            }
            Op::Sub(a, b) => {
                self.add_grad(*a, g.clone());
                self.add_grad(*b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.hadamard(&self.values[b.0]);
                let db = g.hadamard(&self.values[a.0]);
                self.add_grad(a, da);
                self.add_grad(b, db);
            }
            Op::Scale(a, c) => self.add_grad(*a, g.scale(*c)),
            Op::GradReverse(a, lambda) => self.add_grad(*a, g.scale(-*lambda)),
            Op::Transpose(a) => self.add_grad(*a, g.transpose()),
            Op::AddConst(a) => self.add_grad(*a, g.clone()),
            Op::Tanh(a) => {
                let y = &self.values[i];
                let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                    let t = y.get(r, c);
                    g.get(r, c) * (1.0 - t * t)
                });
                self.add_grad(*a, da);
            }
            Op::Sigmoid(a) => {
                let y = &self.values[i];
                let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                    let s = y.get(r, c);
                    g.get(r, c) * s * (1.0 - s)
                });
                self.add_grad(*a, da);
            }
            Op::Gelu(a) => {
                let x = &self.values[a.0];
                let da = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                    g.get(r, c) * gelu_dx(x.get(r, c))
                });
                self.add_grad(*a, da);
            }
            Op::Relu(a) => {
                let x = &self.values[a.0];
                let da = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                    if x.get(r, c) > 0.0 {
                        g.get(r, c)
                    } else {
                        0.0
                    }
                });
                self.add_grad(*a, da);
            }
            Op::SoftmaxRows(a) => {
                let y = &self.values[i];
                let mut da = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = y.row(r).iter().zip(g.row(r)).map(|(a, b)| a * b).sum();
                    for c in 0..y.cols() {
                        da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                self.add_grad(*a, da);
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                normed,
                inv_std,
            } => {
                let gm = self.values[gamma.0].row(0);
                let (rows, cols) = normed.shape();
                let mut dx = Matrix::zeros(rows, cols);
                let mut dgamma = Matrix::zeros(1, cols);
                let mut dbeta = Matrix::zeros(1, cols);
                let mut dyh = vec![0.0f32; cols];
                for (r, &istd) in inv_std.iter().enumerate() {
                    // dy-hat = g * gamma; standard layernorm backward per row.
                    let (grow, nrow) = (g.row(r), normed.row(r));
                    let (dgrow, dbrow) = (dgamma.row_mut(0), dbeta.row_mut(0));
                    for c in 0..cols {
                        let gv = grow[c];
                        dyh[c] = gv * gm[c];
                        dgrow[c] += gv * nrow[c];
                        dbrow[c] += gv;
                    }
                    let mean_dyh = dyh.iter().sum::<f32>() / cols as f32;
                    let mean_dyh_n =
                        dyh.iter().zip(nrow).map(|(&d, &n)| d * n).sum::<f32>() / cols as f32;
                    for ((o, &d), &n) in dx.row_mut(r).iter_mut().zip(&dyh).zip(nrow) {
                        *o = istd * (d - mean_dyh - n * mean_dyh_n);
                    }
                }
                self.add_grad(*x, dx);
                self.add_grad(*gamma, dgamma);
                self.add_grad(*beta, dbeta);
            }
            Op::GatherRows { src, idx } => {
                let shape = self.values[src.0].shape();
                add_gathered_grad(&mut self.nodes[src.0], shape, idx, g)
            }
            Op::Dropout { x, mask } => self.add_grad(*x, g.hadamard(mask)),
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for &p in parts {
                    let rows = self.values[p.0].rows();
                    self.add_grad(p, g.slice_rows(start, rows));
                    start += rows;
                }
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for &p in parts {
                    let cols = self.values[p.0].cols();
                    self.add_grad(p, g.slice_cols(start, cols));
                    start += cols;
                }
            }
            Op::SliceRows { x, start } => {
                let (rows, cols) = self.values[x.0].shape();
                let mut da = Matrix::zeros(rows, cols);
                for r in 0..g.rows() {
                    da.row_mut(start + r).copy_from_slice(g.row(r));
                }
                self.add_grad(*x, da);
            }
            Op::SliceCols { x, start } => {
                let (rows, cols) = self.values[x.0].shape();
                let mut da = Matrix::zeros(rows, cols);
                for r in 0..g.rows() {
                    da.row_mut(r)[*start..start + g.cols()].copy_from_slice(g.row(r));
                }
                self.add_grad(*x, da);
            }
            Op::MeanRows(x) => {
                let rows = self.values[x.0].rows();
                let inv = 1.0 / rows as f32;
                let da = Matrix::from_fn(rows, g.cols(), |_, c| g.get(0, c) * inv);
                self.add_grad(*x, da);
            }
            Op::MeanAll(x) => {
                let (rows, cols) = self.values[x.0].shape();
                let v = g.item() / (rows * cols) as f32;
                self.add_grad(*x, Matrix::full(rows, cols, v));
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                let gs = g.item() / targets.len() as f32;
                let mut da = probs.scale(gs);
                for (r, &t) in targets.iter().enumerate() {
                    let cur = da.get(r, t);
                    da.set(r, t, cur - gs);
                }
                self.add_grad(*logits, da);
            }
            Op::NllProbs { probs, targets } => {
                let pm = &self.values[probs.0];
                let gs = g.item() / targets.len() as f32;
                let mut da = Matrix::zeros(pm.rows(), pm.cols());
                for (r, &t) in targets.iter().enumerate() {
                    da.set(r, t, -gs / pm.get(r, t).max(1e-12));
                }
                self.add_grad(*probs, da);
            }
            Op::MseLoss { pred, target } => {
                let pm = &self.values[pred.0];
                let c = 2.0 * g.item() / pm.len() as f32;
                let da = pm.sub(target).scale(c);
                self.add_grad(*pred, da);
            }
        }
        self.nodes[i].op = op;
    }

    /// Fold parameter-leaf gradients back into the store's grad buffers.
    /// Call after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (&id, &var) in &self.param_cache {
            if let Some(g) = &self.nodes[var.0].grad {
                store.grad_mut(id).add_assign(g);
            }
        }
    }
}

thread_local! {
    /// Nodes this thread has ever pushed onto any [`Record`] tape.
    /// Diagnostics only: the tape-free tests pin this counter flat across a
    /// [`NoGrad`] forward — the "zero tape nodes" claim is asserted, not
    /// stated (same proof pattern as the heartbeat module's `clock_reads`).
    static NODES_PUSHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total tape nodes recorded by the current thread since it started. A
/// [`NoGrad`] forward must leave this unchanged.
pub fn nodes_recorded_on_thread() -> u64 {
    NODES_PUSHED.with(|c| c.get())
}

/// Advance `rng` past `n` dropout draws without using them. Single-row
/// forwards (`MultiHeadSelfAttention::forward_row` and the encoder row
/// path built on it) skip whole rows of each dropout mask but must leave
/// the RNG in exactly the state the full forward would: the draws for the
/// skipped rows are burned at their stream positions, so analytic draw
/// counts (`Encoder::dropout_draws`) hold for both paths. One `next_u64`
/// per element mirrors dropout's `gen::<f32>()`, which makes exactly one.
pub fn burn_draws(rng: &mut impl rand::Rng, n: usize) {
    for _ in 0..n {
        rng.next_u64();
    }
}

/// `GatherRows` backward: add the gradient `g` of `gather_rows(src, idx)`
/// into `src`'s grad slot (`node`, whose value has `shape`), touching only
/// the rows `idx` names. Each one adds, once, its incoming rows summed in
/// `idx` order from +0.0: the same `existing + ((0 + g₁) + g₂ …)` as
/// adding a dense scatter matrix. The dense add also sent untouched
/// elements through `+ 0.0`, which only rewrites `-0.0`, so a slot not
/// known to be free of `-0.0` gets that pass first (exact, as the sums are
/// never `-0.0`; DESIGN §15).
fn add_gathered_grad(node: &mut Node, shape: (usize, usize), idx: &[usize], g: &Matrix) {
    let (rows, cols) = shape;
    if !node.grad_no_neg_zero {
        if let Some(existing) = &mut node.grad {
            for v in existing.data_mut() {
                *v += 0.0;
            }
        }
        node.grad_no_neg_zero = true;
    }
    let slot = node.grad.get_or_insert_with(|| Matrix::zeros(rows, cols));
    let mut order: Vec<usize> = (0..idx.len()).collect();
    order.sort_by_key(|&o| idx[o]);
    let mut sum = vec![0.0f32; cols];
    for group in order.chunk_by(|&a, &b| idx[a] == idx[b]) {
        sum.fill(0.0);
        for &o in group {
            for (s, &x) in sum.iter_mut().zip(g.row(o)) {
                *s += x;
            }
        }
        for (d, &s) in slot.row_mut(idx[group[0]]).iter_mut().zip(&sum) {
            *d += s;
        }
    }
}

/// Exact GELU via erf approximation (tanh form, as used by BERT/RoBERTa).
#[inline]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-form GELU.
#[inline]
pub fn gelu_dx(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::ParamStore;

    /// Central-difference check of `d loss / d x[r][c]` for a scalar-valued
    /// computation `f(tape, x_var)`.
    fn grad_check(x0: Matrix, f: impl Fn(&mut Tape, Var) -> Var) {
        let mut tape = Tape::new();
        let x = tape.constant(x0.clone());
        let loss = f(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x);

        let eps = 1e-3f32;
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let mut xp = x0.clone();
                xp.set(r, c, x0.get(r, c) + eps);
                let mut tp = Tape::new();
                let vp = tp.constant(xp);
                let lp = f(&mut tp, vp);
                let fp = tp.value(lp).item();

                let mut xm = x0.clone();
                xm.set(r, c, x0.get(r, c) - eps);
                let mut tm = Tape::new();
                let vm = tm.constant(xm);
                let lm = f(&mut tm, vm);
                let fm = tm.value(lm).item();

                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn test_input() -> Matrix {
        Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 0.9, -0.4, 1.7])
    }

    #[test]
    fn backward_moves_graph_size_counters() {
        let nodes = em_obs::metrics::counter("nn_tape_nodes", &[]);
        let leaves = em_obs::metrics::counter("nn_tape_param_leaves", &[]);
        let (n0, l0) = (nodes.get(), leaves.get());
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![0.5, -0.25]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.mean_all(wv);
        tape.backward(loss);
        // Deltas, not absolutes: the registry is process-global and other
        // tests run backward passes in parallel.
        assert!(
            nodes.get() >= n0 + tape.len() as u64,
            "nn_tape_nodes did not move"
        );
        assert!(leaves.get() > l0, "nn_tape_param_leaves did not move");
    }

    #[test]
    fn grad_matmul() {
        let w = Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.2]);
        grad_check(test_input(), move |t, x| {
            let wv = t.constant(w.clone());
            let y = t.matmul(x, wv);
            t.mean_all(y)
        });
    }

    #[test]
    fn grad_matmul_rhs() {
        // Gradient w.r.t. the right operand of a matmul.
        let a = Matrix::from_vec(2, 2, vec![0.3, -0.8, 1.1, 0.2]);
        grad_check(
            Matrix::from_vec(2, 3, vec![0.5, -0.1, 0.2, 0.8, 0.4, -0.6]),
            move |t, x| {
                let av = t.constant(a.clone());
                let y = t.matmul(av, x);
                t.mean_all(y)
            },
        );
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(test_input(), |t, x| {
            let a = t.tanh(x);
            let b = t.sigmoid(a);
            let c = t.mul(b, x);
            t.mean_all(c)
        });
    }

    #[test]
    fn grad_gelu_relu() {
        grad_check(test_input(), |t, x| {
            let a = t.gelu(x);
            let b = t.relu(a);
            t.mean_all(b)
        });
    }

    #[test]
    fn grad_softmax_rows() {
        // Weighted sum of softmax outputs so the gradient is non-trivial.
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0]);
        grad_check(test_input(), move |t, x| {
            let s = t.softmax_rows(x);
            let wv = t.constant(w.clone());
            let m = t.mul(s, wv);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_layer_norm() {
        let gamma = Matrix::from_vec(1, 3, vec![1.2, 0.8, 1.0]);
        let beta = Matrix::from_vec(1, 3, vec![0.1, -0.1, 0.0]);
        let w = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.3, 1.0, -1.0]);
        grad_check(test_input(), move |t, x| {
            let g = t.constant(gamma.clone());
            let b = t.constant(beta.clone());
            let y = t.layer_norm(x, g, b, 1e-5);
            let wv = t.constant(w.clone());
            let m = t.mul(y, wv);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_layer_norm_gamma_beta() {
        let x0 = test_input();
        let probe = Matrix::from_vec(2, 3, vec![1.0, -1.0, 2.0, 0.5, 0.2, -0.7]);
        // Check gamma gradient by treating gamma as the checked input.
        grad_check(Matrix::from_vec(1, 3, vec![1.0, 0.9, 1.1]), {
            let x0 = x0.clone();
            let probe = probe.clone();
            move |t, gamma| {
                let x = t.constant(x0.clone());
                let beta = t.constant(Matrix::zeros(1, 3));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let p = t.constant(probe.clone());
                let m = t.mul(y, p);
                t.mean_all(m)
            }
        });
        // And the beta gradient.
        grad_check(
            Matrix::from_vec(1, 3, vec![0.0, 0.1, -0.2]),
            move |t, beta| {
                let x = t.constant(x0.clone());
                let gamma = t.constant(Matrix::full(1, 3, 1.0));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let p = t.constant(probe.clone());
                let m = t.mul(y, p);
                t.mean_all(m)
            },
        );
    }

    #[test]
    fn grad_gather_and_slice() {
        grad_check(test_input(), |t, x| {
            let g = t.gather_rows(x, &[1, 0, 1]);
            let s = t.slice_rows(g, 1, 2);
            let c = t.slice_cols(s, 0, 2);
            t.mean_all(c)
        });
    }

    #[test]
    fn grad_concat() {
        grad_check(test_input(), |t, x| {
            let a = t.tanh(x);
            let rows = t.concat_rows(&[x, a]);
            let cols = t.concat_cols(&[rows, rows]);
            t.mean_all(cols)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(test_input(), |t, x| t.cross_entropy(x, &[2, 0]));
    }

    #[test]
    fn grad_reverse_flips_and_scales() {
        let mut tape = Tape::new();
        let x = tape.constant(test_input());
        let y = tape.grad_reverse(x, 0.5);
        assert_eq!(tape.value(y), tape.value(x));
        let loss = tape.mean_all(y);
        tape.backward(loss);
        let g = tape.grad(x);
        let expected = -0.5 / 6.0;
        for &v in g.data() {
            assert!((v - expected).abs() < 1e-6, "{v} vs {expected}");
        }
    }

    #[test]
    fn grad_nll_probs() {
        // Compose softmax + constant projection + NLL, the verbalizer path.
        let m = Matrix::from_vec(3, 2, vec![0.5, 0.0, 0.5, 0.0, 0.0, 1.0]);
        grad_check(test_input(), move |t, x| {
            let probs = t.softmax_rows(x);
            let mv = t.constant(m.clone());
            let class_probs = t.matmul(probs, mv);
            t.nll_probs(class_probs, &[0, 1])
        });
    }

    #[test]
    fn grad_mse() {
        let target = Matrix::from_vec(2, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        grad_check(test_input(), move |t, x| t.mse_loss(x, &target));
    }

    #[test]
    fn grad_mean_rows_broadcast() {
        let b = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.7]);
        grad_check(test_input(), move |t, x| {
            let bv = t.constant(b.clone());
            let y = t.add_row_broadcast(x, bv);
            let m = t.mean_rows(y);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_scale_sub_addconst() {
        let k = Matrix::from_vec(2, 3, vec![0.1; 6]);
        grad_check(test_input(), move |t, x| {
            let a = t.scale(x, 2.5);
            let b = t.sub(a, x);
            let c = t.add_const(b, &k);
            t.mean_all(c)
        });
    }

    #[test]
    fn param_grads_accumulate_into_store() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        // Parameter fetched twice must reuse the same leaf.
        let wv2 = tape.param(&store, w);
        assert_eq!(wv, wv2);
        let y = tape.mul(wv, wv2); // y = w^2 elementwise
        let loss = tape.mean_all(y);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // d mean(w^2) / dw = 2w / 4
        let g = store.grad(w);
        for (i, expected) in [0.5f32, 1.0, 1.5, 2.0].iter().enumerate() {
            assert!((g.data()[i] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut tape = Tape::inference();
        let x = tape.constant(test_input());
        let y = tape.dropout(x, 0.5, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn op_indices_match_the_obs_registry() {
        // One call of each op; every recorded node must carry the slot of
        // the op that made it, and the slots must cover the registry.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(2, 2, 0.5));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1 << 40);
        let mut t = Tape::new();
        let x = t.constant(Matrix::full(2, 2, 0.25));
        let row = t.constant(Matrix::full(1, 2, 0.5));
        let mut made = vec![(x, "leaf"), (t.param(&store, w), "leaf")];
        let ops = [
            (t.matmul(x, x), "matmul"),
            (t.add(x, x), "add"),
            (t.add_row_broadcast(x, row), "add_row_broadcast"),
            (t.sub(x, x), "sub"),
            (t.mul(x, x), "mul"),
            (t.scale(x, 2.0), "scale"),
            (t.add_const(x, &Matrix::full(2, 2, 1.0)), "add_const"),
            (t.grad_reverse(x, 1.0), "grad_reverse"),
            (t.transpose(x), "transpose"),
            (t.tanh(x), "tanh"),
            (t.sigmoid(x), "sigmoid"),
            (t.gelu(x), "gelu"),
            (t.relu(x), "relu"),
            (t.softmax_rows(x), "softmax_rows"),
            (t.layer_norm(x, row, row, 1e-5), "layer_norm"),
            (t.gather_rows(x, &[1, 0]), "gather_rows"),
            (t.dropout(x, 0.5, &mut rng), "dropout"),
            (t.concat_rows(&[x, x]), "concat_rows"),
            (t.concat_cols(&[x, x]), "concat_cols"),
            (t.slice_rows(x, 0, 1), "slice_rows"),
            (t.slice_cols(x, 0, 1), "slice_cols"),
            (t.mean_rows(x), "mean_rows"),
            (t.mean_all(x), "mean_all"),
            (t.cross_entropy(x, &[0, 1]), "cross_entropy"),
            (t.mse_loss(x, &Matrix::zeros(2, 2)), "mse_loss"),
            (t.nll_probs(x, &[0, 1]), "nll_probs"),
        ];
        made.extend(ops);
        let mut seen = vec![false; em_obs::names::ALL_OP_NAMES.len()];
        for (v, name) in made {
            assert_eq!(t.op_name(v), name, "var {} names the wrong op", v.index());
            seen[t.nodes[v.0].slot] = true;
        }
        assert!(seen.iter().all(|&s| s), "an op slot is never used");
    }

    #[test]
    fn op_profiler_off_is_silent_and_on_flushes_named_totals() {
        // Counter-based on purpose (wall-clock assertions are flaky): the
        // off phase asserts zero op_stats events and that flushing emits
        // nothing; the on phase asserts per-op call counts, and both
        // phases must record the identical graph.
        fn build_and_backward() -> usize {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 0.9, -0.4, 1.7]));
            let w = tape.constant(Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.2]));
            let y = tape.matmul(x, w);
            let a = tape.tanh(y);
            let loss = tape.mean_all(a);
            tape.backward(loss);
            tape.len()
        }
        let is_op_stats = |e: &em_obs::Event| matches!(e.kind, em_obs::EventKind::OpStats { .. });

        // Off (the default — the env override is never set under test).
        let (nodes_off, events_off) = em_obs::capture(build_and_backward);
        let ((), flush_off) = em_obs::capture(flush_op_stats);
        assert!(
            !events_off.iter().any(is_op_stats),
            "disabled profiler emitted op_stats"
        );
        assert!(
            !flush_off.iter().any(is_op_stats),
            "disabled flush emitted op_stats"
        );

        // On. Parallel tests in this process may add their own ops to the
        // global table while the switch is up, so assert lower bounds on
        // the ops this graph certainly recorded, never exact totals.
        set_op_profile(true);
        let (nodes_on, _) = em_obs::capture(build_and_backward);
        let ((), flushed) = em_obs::capture(flush_op_stats);
        set_op_profile(false);

        assert_eq!(nodes_off, nodes_on, "profiling changed the recorded graph");
        let stats = |name: &str| {
            flushed.iter().find_map(|e| match &e.kind {
                em_obs::EventKind::OpStats {
                    op,
                    fwd_calls,
                    bwd_calls,
                    elems,
                    ..
                } if op == name => Some((*fwd_calls, *bwd_calls, *elems)),
                _ => None,
            })
        };
        for (name, min_elems) in [("leaf", 12), ("matmul", 4), ("tanh", 4), ("mean_all", 1)] {
            let (fwd, bwd, elems) = stats(name).unwrap_or_else(|| panic!("{name} not flushed"));
            assert!(fwd >= 1, "{name}: no forward calls");
            assert!(elems >= min_elems, "{name}: {elems} elems");
            if name != "leaf" {
                assert!(bwd >= 1, "{name}: no backward visits");
            }
        }
        for e in &flushed {
            if let em_obs::EventKind::OpStats { op, .. } = &e.kind {
                assert!(
                    em_obs::names::ALL_OP_NAMES.contains(&op.as_str()),
                    "op name {op} not in the registry"
                );
            }
        }
    }

    #[test]
    fn dropout_scales_kept_elements() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(10, 10, 1.0));
        let y = tape.dropout(x, 0.5, &mut rng);
        for &v in tape.value(y).data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    // ---- tape-free inference ----

    /// One forward through every op both modes share, generic over the
    /// mode, so the exact same call sequence can run taped and tape-free.
    fn exercise_all_ops<M: Mode>(
        exec: &mut Tape<M>,
        store: &ParamStore,
        w: ParamId,
        rng: &mut rand::rngs::StdRng,
    ) -> Matrix {
        let x = exec.constant(Matrix::from_vec(
            3,
            4,
            vec![
                0.5, -1.2, 0.3, 0.9, -0.4, 1.7, 0.05, -0.6, 1.1, -0.2, 0.8, -1.5,
            ],
        ));
        let wv = exec.param(store, w);
        let h = exec.matmul(x, wv);
        let bias = exec.constant(Matrix::from_vec(1, 4, vec![0.1, -0.1, 0.2, -0.2]));
        let h = exec.add_row_broadcast(h, bias);
        let g = exec.gelu(h);
        let gamma = exec.constant(Matrix::full(1, 4, 1.0));
        let beta = exec.constant(Matrix::full(1, 4, 0.0));
        let n = exec.layer_norm(g, gamma, beta, 1e-5);
        let d = exec.dropout(n, 0.3, rng);
        let s = exec.softmax_rows(d);
        let t = exec.transpose(s);
        let t = exec.transpose(t);
        let a = exec.tanh(t);
        let b = exec.sigmoid(t);
        let m = exec.mul(a, b);
        let m = exec.relu(m);
        let m2 = exec.scale(m, 1.5);
        let sum = exec.add(m, m2);
        let diff = exec.sub(sum, m);
        let k = Matrix::full(3, 4, 0.25);
        let shifted = exec.add_const(diff, &k);
        let picked = exec.gather_rows(shifted, &[2, 0, 1, 2]);
        let top = exec.slice_rows(picked, 0, 2);
        let left = exec.slice_cols(top, 0, 2);
        let right = exec.slice_cols(top, 2, 2);
        let wide = exec.concat_cols(&[left, right]);
        let tall = exec.concat_rows(&[wide, top]);
        let pooled = exec.mean_rows(tall);
        let out = exec.concat_rows(&[tall, pooled]);
        exec.value(out).clone()
    }

    #[test]
    fn tape_free_forward_is_bit_exact_and_records_zero_nodes() {
        use rand::SeedableRng;
        let mut store = ParamStore::new();
        let w = store.register(
            "w",
            Matrix::from_vec(
                4,
                4,
                vec![
                    0.2, -0.4, 0.6, 0.1, -0.3, 0.5, -0.2, 0.7, 0.4, -0.6, 0.3, -0.1, 0.8, 0.2,
                    -0.5, 0.4,
                ],
            ),
        );

        let mut taped = Tape::new();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
        let y_taped = exercise_all_ops(&mut taped, &store, w, &mut rng_a);

        let pushed_before = nodes_recorded_on_thread();
        let mut free = Tape::no_grad();
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
        let y_free = exercise_all_ops(&mut free, &store, w, &mut rng_b);
        assert_eq!(
            nodes_recorded_on_thread(),
            pushed_before,
            "a NoGrad forward must record zero tape nodes"
        );
        assert!(!free.is_empty());

        // Bit-exact, not approximately equal: compare f32 bit patterns so
        // even a ±0.0 divergence in the fused dropout would be caught.
        assert_eq!(y_taped.shape(), y_free.shape());
        for (i, (a, b)) in y_taped.data().iter().zip(y_free.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "logit {i} diverged: taped {a} vs tape-free {b}"
            );
        }
        // Both executors must consume the RNG identically (same number of
        // draws in the same order), or downstream passes would diverge.
        assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
    }

    #[test]
    fn nograd_inference_dropout_is_identity_and_draws_nothing() {
        let mut exec = Tape::no_grad_inference();
        let x = exec.constant(Matrix::full(2, 2, 1.0));
        // A step RNG that would visibly perturb the mask if consumed.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let y = exec.dropout(x, 0.5, &mut rng);
        assert_eq!(x, y, "inference-mode dropout must be the identity");
        assert_eq!(exec.len(), 1, "identity dropout must not push a value");
    }

    /// The `GatherRows` backward this crate shipped before
    /// [`add_gathered_grad`]: scatter into a dense zero matrix, then add
    /// it to the slot or become the slot. The bit-exactness oracle.
    fn gather_backward_oracle(
        slot: Option<Matrix>,
        shape: (usize, usize),
        idx: &[usize],
        g: &Matrix,
    ) -> Matrix {
        let mut da = Matrix::zeros(shape.0, shape.1);
        for (out_r, &src_r) in idx.iter().enumerate() {
            for (o, &x) in da.row_mut(src_r).iter_mut().zip(g.row(out_r)) {
                *o += x;
            }
        }
        match slot {
            Some(mut existing) => {
                existing.add_assign(&da);
                existing
            }
            None => da,
        }
    }

    fn leaf_node(grad: Option<Matrix>) -> Node {
        Node {
            grad,
            grad_no_neg_zero: false,
            slot: slot::LEAF,
            op: Op::Leaf,
        }
    }

    #[test]
    fn gather_backward_matches_the_dense_scatter_bit_for_bit() {
        use crate::tensor::bits::{assert_same_bits, seeded};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let (rows, cols) = (30, 7);
        for case in 0..40 {
            // Unsorted, duplicated indices over a few rows, so most rows
            // stay untouched.
            let idx: Vec<usize> = (0..rng.gen_range(1..12))
                .map(|_| rng.gen_range(0..rows / 3) * 3)
                .collect();
            let special = case % 2 == 1;
            let g1 = seeded(idx.len(), cols, special, &mut rng);
            let g2 = seeded(idx.len(), cols, special, &mut rng);
            // An existing slot holding -0.0 everywhere it is not random,
            // the one value a dense `+ 0.0` rewrites; or no slot at all.
            let existing = (case % 4 < 2).then(|| {
                let mut e = seeded(rows, cols, special, &mut rng);
                for v in e.data_mut().iter_mut().step_by(2) {
                    *v = -0.0;
                }
                e
            });
            let mut node = leaf_node(existing.clone());
            add_gathered_grad(&mut node, (rows, cols), &idx, &g1);
            let want = gather_backward_oracle(existing, (rows, cols), &idx, &g1);
            let got = node.grad.clone().unwrap_or_else(|| Matrix::zeros(1, 1));
            assert_same_bits(&got, &want, &format!("case {case}, first gather"));
            // A second gather into the same slot takes the no-pass path.
            add_gathered_grad(&mut node, (rows, cols), &idx, &g2);
            let want = gather_backward_oracle(Some(want), (rows, cols), &idx, &g2);
            let got = node.grad.clone().unwrap_or_else(|| Matrix::zeros(1, 1));
            assert_same_bits(&got, &want, &format!("case {case}, second gather"));
        }
    }

    #[test]
    fn gather_backward_on_the_tape_keeps_untouched_signed_zeros_exact() {
        // `mul` is recorded after the gather, so backward fills `src`'s
        // slot from it first: `mean' * (-0.0)` puts -0.0 into rows the
        // gather never touches. Its dense scatter turned those into +0.0.
        use crate::tensor::bits::assert_same_bits;
        let src = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32 * 0.25 - 1.0);
        let k = Matrix::from_fn(6, 3, |r, c| if (r + c) % 2 == 0 { -0.0 } else { 1.5 });
        let idx = [4, 1, 4, 0];
        let mut tape = Tape::new();
        let s = tape.constant(src);
        let picked = tape.gather_rows(s, &idx);
        let kv = tape.constant(k.clone());
        let scaled = tape.mul(s, kv);
        let both = tape.concat_rows(&[picked, scaled]);
        let loss = tape.mean_all(both);
        tape.backward(loss);
        let per_elem = 1.0 / (10 * 3) as f32;
        let existing = Matrix::full(6, 3, per_elem).hadamard(&k);
        let want =
            gather_backward_oracle(Some(existing), (6, 3), &idx, &Matrix::full(4, 3, per_elem));
        assert_same_bits(&tape.grad(s), &want, "tape gather backward");
        assert!(want
            .data()
            .iter()
            .all(|v| v.to_bits() != (-0.0f32).to_bits()));
    }

    /// Counts `next_u64` calls; dropout's `gen::<f32>()` makes exactly one.
    struct CountingRng<'a> {
        inner: &'a mut rand::rngs::StdRng,
        draws: u64,
    }

    impl rand::RngCore for CountingRng<'_> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn layer_norm_and_dropout_agree_bitwise_across_executors() {
        use crate::tensor::bits::{assert_same_bits, seeded};
        use rand::SeedableRng;
        let mut data_rng = rand::rngs::StdRng::seed_from_u64(5);
        for (rows, cols) in [(1, 1), (3, 16), (40, 64), (7, 33)] {
            for special in [false, true] {
                let what = format!("{rows}x{cols} special={special}");
                let x = seeded(rows, cols, special, &mut data_rng);
                let gamma = seeded(1, cols, false, &mut data_rng);
                let beta = seeded(1, cols, false, &mut data_rng);
                let run = |exec: &mut dyn FnMut(&mut CountingRng) -> (Matrix, Matrix)| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
                    let mut counter = CountingRng {
                        inner: &mut rng,
                        draws: 0,
                    };
                    let (ln, drop) = exec(&mut counter);
                    let draws = counter.draws;
                    (ln, drop, draws, rng.state())
                };
                let taped = run(&mut |rng| {
                    let mut t = Tape::new();
                    let (xv, g, b) = (
                        t.constant(x.clone()),
                        t.constant(gamma.clone()),
                        t.constant(beta.clone()),
                    );
                    let ln = t.layer_norm(xv, g, b, 1e-5);
                    let d = t.dropout(xv, 0.3, rng);
                    (t.value(ln).clone(), t.value(d).clone())
                });
                let free = run(&mut |rng| {
                    let mut t = Tape::no_grad();
                    let (xv, g, b) = (
                        t.constant(x.clone()),
                        t.constant(gamma.clone()),
                        t.constant(beta.clone()),
                    );
                    let ln = t.layer_norm(xv, g, b, 1e-5);
                    let d = t.dropout(xv, 0.3, rng);
                    (t.value(ln).clone(), t.value(d).clone())
                });
                assert_same_bits(&taped.0, &free.0, &format!("layer_norm {what}"));
                assert_same_bits(&taped.1, &free.1, &format!("dropout {what}"));
                assert_eq!(
                    taped.2,
                    (rows * cols) as u64,
                    "{what}: one draw per element"
                );
                assert_eq!(taped.2, free.2, "{what}: draw counts differ");
                assert_eq!(taped.3, free.3, "{what}: RNG end states differ");
            }
        }
    }

    #[test]
    fn nograd_param_cache_reuses_leaves() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(2, 2, 0.5));
        let mut exec = Tape::no_grad_inference();
        let a = exec.param(&store, w);
        let b = exec.param(&store, w);
        assert_eq!(a, b);
        assert_eq!(exec.len(), 1);
    }

    /// The panic text `f` aborts with.
    fn refusal(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the op must refuse its operands");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    fn bad_matmul<M: Mode>(mut t: Tape<M>) {
        let a = t.constant(Matrix::zeros(2, 3));
        t.matmul(a, a);
    }

    fn bad_gather<M: Mode>(mut t: Tape<M>) {
        let src = t.constant(Matrix::zeros(2, 3));
        t.gather_rows(src, &[1, 5, 0]);
    }

    #[test]
    fn both_modes_refuse_bad_operands_with_the_same_text() {
        let record = refusal(|| bad_matmul(Tape::new()));
        assert_eq!(record, "tape op `matmul`: incompatible shapes 2x3 vs 2x3");
        assert_eq!(refusal(|| bad_matmul(Tape::no_grad_inference())), record);
        let record = refusal(|| bad_gather(Tape::new()));
        assert_eq!(record, "tape op `gather_rows`: index 5 out of range 0..2");
        assert_eq!(refusal(|| bad_gather(Tape::no_grad())), record);
    }
}
