//! The autodiff tape: matrix-valued nodes, forward operators, and the reverse
//! sweep.
//!
//! A [`Tape`] owns a flat arena of nodes; a [`Var`] is an index into it.
//! Operators append a node recording their inputs; [`Tape::backward`] walks
//! the arena in reverse, accumulating gradients. The tape is rebuilt for every
//! training example (define-by-run), which matches the per-request subgraph
//! structure of Zoomer: every request has its own ROI, so the compute graph
//! genuinely differs between examples.
//!
//! Operators are matrix-shaped so that one node can stand for a whole level
//! of the ROI: [`Tape::gather_rows`] broadcasts and reorders rows,
//! [`Tape::segment_softmax`] and [`Tape::segment_sum`] run a softmax and a
//! weighted sum inside each contiguous segment of rows (one segment per
//! parent, or per parent and neighbor type), [`Tape::concat_rows`] stacks
//! blocks, and [`Tape::cosine`] works row by row.

use zoomer_tensor::numerics::{leaky_relu, leaky_relu_grad, sigmoid};
use zoomer_tensor::{l2_norm, Matrix};

/// Panics unless `offsets` runs monotonically from 0 to `n`.
fn check_offsets(offsets: &[usize], n: usize) {
    assert!(
        offsets.first() == Some(&0)
            && offsets.last() == Some(&n)
            && offsets.windows(2).all(|s| s[0] <= s[1]),
        "segment offsets must run monotonically from 0 to {n}"
    );
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw arena index (used by gradient bookkeeping).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operator record for the backward pass.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    /// `(n×d) + broadcast of (1×d)` row vector.
    AddRowBroadcast(Var, Var),
    /// Fused dense layer `x·W + b` (bias broadcast down the rows): one
    /// kernel pass and one tape node instead of a matmul node followed by
    /// a broadcast-add node.
    Linear {
        x: Var,
        w: Var,
        b: Var,
    },
    /// Multiply by a compile-time constant.
    Scale(Var, f32),
    /// `[a | b]` column-wise concatenation.
    ConcatCols(Var, Var),
    /// Stack `n_i×d` blocks into a `(Σ n_i)×d` matrix.
    ConcatRows(Vec<Var>),
    /// `out[r] = src[idx[r]]`.
    GatherRows {
        src: Var,
        idx: Vec<usize>,
    },
    /// Softmax of an `n×1` column within each segment
    /// `offsets[s]..offsets[s + 1]`.
    SegmentSoftmax {
        col: Var,
        offsets: Vec<usize>,
    },
    /// `out[s] = Σ_{r ∈ segment s} w[r] · h[r]` for `h: n×d`, `w: n×1`.
    SegmentSum {
        h: Var,
        w: Var,
        offsets: Vec<usize>,
    },
    /// Mean over rows: `n×d → 1×d`.
    MeanRows(Var),
    /// Sum over rows: `n×d → 1×d`.
    SumRows(Var),
    Transpose(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    LeakyRelu(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    /// Scale row `i` of `h` (`n×d`) by `w[i]` (`1×n`).
    RowScale {
        h: Var,
        w: Var,
    },
    /// Row-wise cosine similarity of two `n×d` matrices → `n×1`.
    Cosine(Var, Var),
    /// Multiply every element of `m` by the scalar var `s` (`1×1`).
    ScaleByScalarVar {
        m: Var,
        s: Var,
    },
    /// Sum of all elements → `1×1`.
    SumAll(Var),
    /// Mean of all elements → `1×1`.
    MeanAll(Var),
    /// Focal binary cross entropy on a logit (`1×1`), label & gamma baked in.
    FocalBceWithLogits {
        logit: Var,
        label: f32,
        gamma: f32,
    },
    /// Squared Frobenius norm → `1×1` (for explicit L2 regularization terms).
    SquaredFrobenius(Var),
    /// Elementwise mask-and-scale (inverted dropout); mask baked at forward.
    Dropout {
        input: Var,
        mask: Matrix,
    },
    /// Per-row layer normalization (no affine), epsilon baked in.
    LayerNorm {
        input: Var,
        eps: f32,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. `v`, if `v` influenced the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Gradient of the loss w.r.t. `v`, or a zero matrix of the given shape.
    pub fn get_or_zeros(&self, v: Var, rows: usize, cols: usize) -> Matrix {
        self.get(v).cloned().unwrap_or_else(|| Matrix::zeros(rows, cols))
    }
}

/// Define-by-run autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(256) }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a var.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Scalar value of a `1×1` var.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-1x1 var");
        m.get(0, 0)
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        debug_assert!(!value.has_non_finite(), "non-finite forward value from {op:?}");
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Record an input (leaf) node. Leaves receive gradients but have no
    /// parents.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Convenience: a `1×1` scalar leaf.
    pub fn scalar_leaf(&mut self, value: f32) -> Var {
        self.leaf(Matrix::from_vec(1, 1, vec![value]))
    }

    // ---- operators -------------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a) + self.value(b);
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a) - self.value(b);
        self.push(v, Op::Sub(a, b))
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Hadamard(a, b))
    }

    /// `(n×d) + (1×d)` with the row vector broadcast down the rows.
    pub fn add_row_broadcast(&mut self, m: Var, row: Var) -> Var {
        let (n, d) = self.value(m).shape();
        let rv = self.value(row);
        assert_eq!(rv.shape(), (1, d), "add_row_broadcast: bias must be 1x{d}");
        let mut out = self.value(m).clone();
        for r in 0..n {
            let dst = out.row_mut(r);
            for (o, &b) in dst.iter_mut().zip(rv.row(0)) {
                *o += b;
            }
        }
        self.push(out, Op::AddRowBroadcast(m, row))
    }

    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push(v, Op::Scale(a, c))
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hcat(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Stack `n_i×d` blocks (`1×d` rows included) into one `(Σ n_i)×d`
    /// matrix.
    pub fn concat_rows(&mut self, blocks: &[Var]) -> Var {
        assert!(!blocks.is_empty(), "concat_rows: empty input");
        let d = self.value(blocks[0]).cols();
        let mut data = Vec::with_capacity(blocks.iter().map(|&b| self.value(b).len()).sum());
        for &b in blocks {
            let v = self.value(b);
            assert_eq!(v.cols(), d, "concat_rows: all inputs must have {d} columns");
            data.extend_from_slice(v.as_slice());
        }
        let rows = blocks.iter().map(|&b| self.value(b).rows()).sum();
        self.push(Matrix::from_vec(rows, d, data), Op::ConcatRows(blocks.to_vec()))
    }

    /// `out[r] = src[idx[r]]`: reorders, repeats or drops rows of `src`.
    /// The backward pass scatter-adds each output row's gradient back to
    /// its source row.
    pub fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let sv = self.value(src);
        let d = sv.cols();
        let mut data = Vec::with_capacity(idx.len() * d);
        for &i in idx {
            data.extend_from_slice(sv.row(i));
        }
        self.push(Matrix::from_vec(idx.len(), d, data), Op::GatherRows { src, idx: idx.to_vec() })
    }

    /// Softmax of an `n×1` column within each segment
    /// `offsets[s]..offsets[s + 1]` (`offsets` runs from 0 to `n`).
    pub fn segment_softmax(&mut self, col: Var, offsets: &[usize]) -> Var {
        let mut v = self.value(col).clone();
        assert_eq!(v.cols(), 1, "segment_softmax: input must be a column");
        check_offsets(offsets, v.rows());
        for s in offsets.windows(2) {
            zoomer_tensor::softmax_inplace(&mut v.as_mut_slice()[s[0]..s[1]]);
        }
        self.push(v, Op::SegmentSoftmax { col, offsets: offsets.to_vec() })
    }

    /// Weighted sum of the rows of `h` (`n×d`) within each segment
    /// `offsets[s]..offsets[s + 1]`: `out[s] = Σ w[r] · h[r]` with `w: n×1`.
    /// An empty segment sums to a zero row.
    pub fn segment_sum(&mut self, h: Var, w: Var, offsets: &[usize]) -> Var {
        let hv = self.value(h);
        let wv = self.value(w);
        let (n, d) = hv.shape();
        assert_eq!(wv.shape(), (n, 1), "segment_sum: weights must be {n}x1");
        check_offsets(offsets, n);
        let mut out = Matrix::zeros(offsets.len() - 1, d);
        for (s, seg) in offsets.windows(2).enumerate() {
            let dst = out.row_mut(s);
            for r in seg[0]..seg[1] {
                let wr = wv.as_slice()[r];
                for (o, &x) in dst.iter_mut().zip(hv.row(r)) {
                    *o += wr * x;
                }
            }
        }
        self.push(out, Op::SegmentSum { h, w, offsets: offsets.to_vec() })
    }

    pub fn mean_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    pub fn sum_rows(&mut self, a: Var) -> Var {
        let src = self.value(a);
        let mut out = Matrix::zeros(1, src.cols());
        for r in 0..src.rows() {
            for (o, &x) in out.as_mut_slice().iter_mut().zip(src.row(r)) {
                *o += x;
            }
        }
        self.push(out, Op::SumRows(a))
    }

    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Row-wise stable softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        for r in 0..v.rows() {
            zoomer_tensor::softmax_inplace(v.row_mut(r));
        }
        self.push(v, Op::SoftmaxRows(a))
    }

    pub fn leaky_relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(leaky_relu);
        self.push(v, Op::LeakyRelu(a))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Scale row `i` of `h` (`n×d`) by weight `w[i]` (`1×n`) — the paper's
    /// eq. (7) feature-projection multiply.
    pub fn row_scale(&mut self, h: Var, w: Var) -> Var {
        let hv = self.value(h);
        let wv = self.value(w);
        let (n, d) = hv.shape();
        assert_eq!(wv.shape(), (1, n), "row_scale: weights must be 1x{n}");
        let mut out = Matrix::zeros(n, d);
        for r in 0..n {
            let s = wv.get(0, r);
            for (o, &x) in out.row_mut(r).iter_mut().zip(hv.row(r)) {
                *o = s * x;
            }
        }
        self.push(out, Op::RowScale { h, w })
    }

    /// Row-wise cosine similarity of two `n×d` matrices → `n×1` (paper
    /// eq. (10)).
    ///
    /// A row is defined as 0 with zero gradient if either of its vectors is
    /// (numerically) all-zero.
    pub fn cosine(&mut self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape(), bv.shape(), "cosine: shape mismatch");
        let c = (0..av.rows())
            .map(|r| zoomer_tensor::cosine_similarity(av.row(r), bv.row(r)))
            .collect();
        self.push(Matrix::from_vec(av.rows(), 1, c), Op::Cosine(a, b))
    }

    /// Multiply matrix `m` elementwise by a scalar-valued var `s` (`1×1`).
    pub fn scale_by_scalar_var(&mut self, m: Var, s: Var) -> Var {
        assert_eq!(self.value(s).shape(), (1, 1), "scale_by_scalar_var: s must be 1x1");
        let sv = self.value(s).get(0, 0);
        let out = self.value(m).scale(sv);
        self.push(out, Op::ScaleByScalarVar { m, s })
    }

    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.value(a).sum();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SumAll(a))
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        let s = self.value(a).mean();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::MeanAll(a))
    }

    /// Focal binary cross-entropy on a raw logit. `gamma = 0` reduces to
    /// ordinary BCE-with-logits. Label must be 0.0 or 1.0.
    pub fn focal_bce_with_logits(&mut self, logit: Var, label: f32, gamma: f32) -> Var {
        assert_eq!(self.value(logit).shape(), (1, 1), "focal_bce: logit must be 1x1");
        assert!(label == 0.0 || label == 1.0, "focal_bce: label must be 0/1");
        let z = self.value(logit).get(0, 0);
        let p = sigmoid(z);
        let loss = zoomer_tensor::numerics::focal_cross_entropy(p, label, gamma);
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::FocalBceWithLogits { logit, label, gamma },
        )
    }

    /// Squared Frobenius norm → `1×1`, for explicit regularization terms.
    pub fn squared_frobenius(&mut self, a: Var) -> Var {
        let s: f32 = self.value(a).as_slice().iter().map(|&x| x * x).sum();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::SquaredFrobenius(a))
    }

    /// Inverted dropout: zero each element with probability `p` and scale
    /// survivors by `1/(1−p)`, so the expected activation is unchanged.
    /// The mask is drawn here and baked into the op, making the backward
    /// pass exact for this forward. `p == 0` is the identity.
    pub fn dropout(&mut self, a: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        if p == 0.0 {
            return a;
        }
        let (rows, cols) = self.value(a).shape();
        let keep = 1.0 - p;
        let mask_data: Vec<f32> =
            (0..rows * cols).map(|_| if rng.gen::<f32>() < p { 0.0 } else { 1.0 / keep }).collect();
        let mask = Matrix::from_vec(rows, cols, mask_data);
        let out = self.value(a).hadamard(&mask);
        self.push(out, Op::Dropout { input: a, mask })
    }

    /// Per-row layer normalization (zero mean, unit variance per row; no
    /// learned affine — compose with `row_scale`/`add_row_broadcast` for
    /// gain and bias).
    pub fn layer_norm(&mut self, a: Var) -> Var {
        let eps = 1e-5f32;
        let src = self.value(a);
        let (rows, cols) = src.shape();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = src.row(r);
            let mean = row.iter().sum::<f32>() / cols.max(1) as f32;
            let var =
                row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / cols.max(1) as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (o, &x) in out.row_mut(r).iter_mut().zip(row) {
                *o = (x - mean) * inv;
            }
        }
        self.push(out, Op::LayerNorm { input: a, eps })
    }

    // ---- composites ------------------------------------------------------

    /// Dot product of two `1×d` row vectors → `1×1`.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let bt = self.transpose(b);
        self.matmul(a, bt)
    }

    /// Dense layer: `x·W + b` with `x: n×in`, `W: in×out`, `b: 1×out`,
    /// running as one fused `matmul_bias` kernel call (the bias is added as
    /// each output tile is stored — no second pass over the output, and no
    /// intermediate `x·W` node on the tape).
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let bv = self.value(b);
        assert_eq!(bv.rows(), 1, "linear: bias must be a 1×d row vector");
        let v = self.value(x).matmul_bias(self.value(w), bv.row(0));
        self.push(v, Op::Linear { x, w, b })
    }

    /// Mean of several `1×d` vectors (mean pooling aggregation).
    pub fn mean_pool(&mut self, rows: &[Var]) -> Var {
        let stacked = self.concat_rows(rows);
        self.mean_rows(stacked)
    }

    // ---- backward --------------------------------------------------------

    /// Reverse sweep from `loss` (which must be `1×1`). Returns the gradient
    /// of the loss with respect to every node.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward: loss must be a 1x1 scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.accumulate_parents(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }

    fn accum(grads: &mut [Option<Matrix>], v: Var, delta: Matrix) {
        match &mut grads[v.0] {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn accumulate_parents(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                // dA = g · Bᵀ ; dB = Aᵀ · g
                let da = g.matmul(&self.value(*b).transpose());
                let db = self.value(*a).transpose().matmul(g);
                Self::accum(grads, *a, da);
                Self::accum(grads, *b, db);
            }
            Op::Add(a, b) => {
                Self::accum(grads, *a, g.clone());
                Self::accum(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                Self::accum(grads, *a, g.clone());
                Self::accum(grads, *b, g.scale(-1.0));
            }
            Op::Hadamard(a, b) => {
                Self::accum(grads, *a, g.hadamard(self.value(*b)));
                Self::accum(grads, *b, g.hadamard(self.value(*a)));
            }
            Op::AddRowBroadcast(m, row) => {
                Self::accum(grads, *m, g.clone());
                // Row gradient is the column-sum of g.
                let mut rg = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in rg.as_mut_slice().iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                Self::accum(grads, *row, rg);
            }
            Op::Linear { x, w, b } => {
                // Same gradients as MatMul + AddRowBroadcast, one node:
                // dX = g·Wᵀ ; dW = Xᵀ·g ; db = column-sum of g.
                let dx = g.matmul(&self.value(*w).transpose());
                let dw = self.value(*x).transpose().matmul(g);
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &gx) in db.as_mut_slice().iter_mut().zip(g.row(r)) {
                        *o += gx;
                    }
                }
                Self::accum(grads, *x, dx);
                Self::accum(grads, *w, dw);
                Self::accum(grads, *b, db);
            }
            Op::Scale(a, c) => {
                Self::accum(grads, *a, g.scale(*c));
            }
            Op::ConcatCols(a, b) => {
                let ca = self.value(*a).cols();
                let cb = self.value(*b).cols();
                let rows = g.rows();
                let mut ga = Matrix::zeros(rows, ca);
                let mut gb = Matrix::zeros(rows, cb);
                for r in 0..rows {
                    ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                    gb.row_mut(r).copy_from_slice(&g.row(r)[ca..ca + cb]);
                }
                Self::accum(grads, *a, ga);
                Self::accum(grads, *b, gb);
            }
            Op::ConcatRows(blocks) => {
                let d = g.cols();
                let mut start = 0;
                for &v in blocks {
                    let n = self.value(v).rows();
                    let slice = &g.as_slice()[start * d..(start + n) * d];
                    Self::accum(grads, v, Matrix::from_vec(n, d, slice.to_vec()));
                    start += n;
                }
            }
            Op::GatherRows { src, idx } => {
                let mut gs = Matrix::zeros(self.value(*src).rows(), g.cols());
                for (r, &i) in idx.iter().enumerate() {
                    for (o, &x) in gs.row_mut(i).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                Self::accum(grads, *src, gs);
            }
            Op::SegmentSoftmax { col, offsets } => {
                // Per segment: dx = (g − Σ g·y) ⊙ y.
                let y = self.nodes[i].value.as_slice();
                let gv = g.as_slice();
                let mut gx = vec![0.0f32; y.len()];
                for s in offsets.windows(2) {
                    let seg = s[0]..s[1];
                    let gy: f32 =
                        gv[seg.clone()].iter().zip(&y[seg.clone()]).map(|(&a, &b)| a * b).sum();
                    for r in seg {
                        gx[r] = (gv[r] - gy) * y[r];
                    }
                }
                Self::accum(grads, *col, Matrix::from_vec(y.len(), 1, gx));
            }
            Op::SegmentSum { h, w, offsets } => {
                let hv = self.value(*h);
                let wv = self.value(*w);
                let (n, d) = hv.shape();
                let mut gh = Matrix::zeros(n, d);
                let mut gw = Matrix::zeros(n, 1);
                for (s, seg) in offsets.windows(2).enumerate() {
                    let gs = g.row(s);
                    for r in seg[0]..seg[1] {
                        let wr = wv.as_slice()[r];
                        let mut acc = 0.0f32;
                        for ((o, &gg), &hh) in gh.row_mut(r).iter_mut().zip(gs).zip(hv.row(r)) {
                            *o = wr * gg;
                            acc += gg * hh;
                        }
                        gw.as_mut_slice()[r] = acc;
                    }
                }
                Self::accum(grads, *h, gh);
                Self::accum(grads, *w, gw);
            }
            Op::MeanRows(a) => {
                let n = self.value(*a).rows().max(1);
                let inv = 1.0 / n as f32;
                let mut ga = Matrix::zeros(self.value(*a).rows(), g.cols());
                for r in 0..ga.rows() {
                    for (o, &x) in ga.row_mut(r).iter_mut().zip(g.row(0)) {
                        *o = x * inv;
                    }
                }
                Self::accum(grads, *a, ga);
            }
            Op::SumRows(a) => {
                let mut ga = Matrix::zeros(self.value(*a).rows(), g.cols());
                for r in 0..ga.rows() {
                    ga.row_mut(r).copy_from_slice(g.row(0));
                }
                Self::accum(grads, *a, ga);
            }
            Op::Transpose(a) => {
                Self::accum(grads, *a, g.transpose());
            }
            Op::SoftmaxRows(a) => {
                // dX_row = (g_row − (g_row·y_row)) ⊙ y_row  (per row).
                let y = &self.nodes[i].value;
                let mut ga = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let gy: f32 = g.row(r).iter().zip(y.row(r)).map(|(&gg, &yy)| gg * yy).sum();
                    for ((o, &gg), &yy) in ga.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r)) {
                        *o = (gg - gy) * yy;
                    }
                }
                Self::accum(grads, *a, ga);
            }
            Op::LeakyRelu(a) => {
                let x = self.value(*a);
                let mut ga = g.clone();
                for (gg, &xx) in ga.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *gg *= leaky_relu_grad(xx);
                }
                Self::accum(grads, *a, ga);
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                let mut ga = g.clone();
                for (gg, &xx) in ga.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    if xx < 0.0 {
                        *gg = 0.0;
                    }
                }
                Self::accum(grads, *a, ga);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let mut ga = g.clone();
                for (gg, &yy) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *gg *= yy * (1.0 - yy);
                }
                Self::accum(grads, *a, ga);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let mut ga = g.clone();
                for (gg, &yy) in ga.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *gg *= 1.0 - yy * yy;
                }
                Self::accum(grads, *a, ga);
            }
            Op::RowScale { h, w } => {
                let hv = self.value(*h);
                let wv = self.value(*w);
                let (n, d) = hv.shape();
                let mut gh = Matrix::zeros(n, d);
                let mut gw = Matrix::zeros(1, n);
                for r in 0..n {
                    let s = wv.get(0, r);
                    let mut acc = 0.0f32;
                    for ((o, &gg), &hh) in gh.row_mut(r).iter_mut().zip(g.row(r)).zip(hv.row(r)) {
                        *o = gg * s;
                        acc += gg * hh;
                    }
                    gw.set(0, r, acc);
                }
                Self::accum(grads, *h, gh);
                Self::accum(grads, *w, gw);
            }
            Op::Cosine(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                let (n, d) = av.shape();
                let mut ga = Matrix::zeros(n, d);
                let mut gb = Matrix::zeros(n, d);
                for r in 0..n {
                    let na = l2_norm(av.row(r));
                    let nb = l2_norm(bv.row(r));
                    if na <= f32::EPSILON || nb <= f32::EPSILON {
                        // Defined as constant 0 there: zero gradient.
                        continue;
                    }
                    let gs = g.get(r, 0);
                    let c = self.nodes[i].value.get(r, 0);
                    for k in 0..d {
                        let x = av.get(r, k);
                        let y = bv.get(r, k);
                        ga.set(r, k, gs * (y / (na * nb) - c * x / (na * na)));
                        gb.set(r, k, gs * (x / (na * nb) - c * y / (nb * nb)));
                    }
                }
                Self::accum(grads, *a, ga);
                Self::accum(grads, *b, gb);
            }
            Op::ScaleByScalarVar { m, s } => {
                let sv = self.value(*s).get(0, 0);
                Self::accum(grads, *m, g.scale(sv));
                let ds: f32 = g
                    .as_slice()
                    .iter()
                    .zip(self.value(*m).as_slice())
                    .map(|(&gg, &mm)| gg * mm)
                    .sum();
                Self::accum(grads, *s, Matrix::from_vec(1, 1, vec![ds]));
            }
            Op::SumAll(a) => {
                let (r, c) = self.value(*a).shape();
                Self::accum(grads, *a, Matrix::full(r, c, g.get(0, 0)));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.value(*a).shape();
                let n = (r * c).max(1) as f32;
                Self::accum(grads, *a, Matrix::full(r, c, g.get(0, 0) / n));
            }
            Op::FocalBceWithLogits { logit, label, gamma } => {
                let z = self.value(*logit).get(0, 0);
                let p = sigmoid(z).clamp(1e-7, 1.0 - 1e-7);
                let (pt, dpt_dz) =
                    if *label > 0.5 { (p, p * (1.0 - p)) } else { (1.0 - p, -(p * (1.0 - p))) };
                // L = −(1−pt)^γ ln(pt)
                // dL/dpt = γ(1−pt)^{γ−1} ln(pt) − (1−pt)^γ / pt
                let one_m = (1.0 - pt).max(0.0);
                let dl_dpt = if *gamma == 0.0 {
                    -1.0 / pt
                } else {
                    *gamma * one_m.powf(*gamma - 1.0) * pt.ln() - one_m.powf(*gamma) / pt
                };
                let dz = g.get(0, 0) * dl_dpt * dpt_dz;
                Self::accum(grads, *logit, Matrix::from_vec(1, 1, vec![dz]));
            }
            Op::SquaredFrobenius(a) => {
                let gs = g.get(0, 0);
                Self::accum(grads, *a, self.value(*a).scale(2.0 * gs));
            }
            Op::Dropout { input, mask } => {
                Self::accum(grads, *input, g.hadamard(mask));
            }
            Op::LayerNorm { input, eps } => {
                // For y = (x − μ)/σ with σ = √(var + ε):
                // dx = (g − mean(g) − y·mean(g ⊙ y)) / σ   (per row)
                let x = self.value(*input);
                let y = &self.nodes[i].value;
                let (rows, cols) = x.shape();
                let n = cols.max(1) as f32;
                let mut gx = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    let row = x.row(r);
                    let mean = row.iter().sum::<f32>() / n;
                    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
                    let sigma = (var + eps).sqrt();
                    let g_row = g.row(r);
                    let y_row = y.row(r);
                    let g_mean = g_row.iter().sum::<f32>() / n;
                    let gy_mean =
                        g_row.iter().zip(y_row).map(|(&gg, &yy)| gg * yy).sum::<f32>() / n;
                    for ((o, &gg), &yy) in gx.row_mut(r).iter_mut().zip(g_row).zip(y_row) {
                        *o = (gg - g_mean - yy * gy_mean) / sigma;
                    }
                }
                Self::accum(grads, *input, gx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn fused_linear_matches_unfused_forward_and_backward() {
        let xs = [0.3f32, -1.2, 2.0, 0.7, -0.4, 1.1];
        let ws = [0.5f32, -0.25, 1.5, 0.75, -1.0, 2.0];
        let bs = [0.1f32, -0.2];
        // Fused Op::Linear.
        let mut tf = Tape::new();
        let (x, w, b) = (tf.leaf(m(2, 3, &xs)), tf.leaf(m(3, 2, &ws)), tf.leaf(m(1, 2, &bs)));
        let y = tf.linear(x, w, b);
        let loss = tf.sum_all(y);
        let gf = tf.backward(loss);
        // Unfused matmul + broadcast add.
        let mut tu = Tape::new();
        let (xu, wu, bu) = (tu.leaf(m(2, 3, &xs)), tu.leaf(m(3, 2, &ws)), tu.leaf(m(1, 2, &bs)));
        let xw = tu.matmul(xu, wu);
        let yu = tu.add_row_broadcast(xw, bu);
        let lossu = tu.sum_all(yu);
        let gu = tu.backward(lossu);
        assert_eq!(tf.value(y), tu.value(yu), "fused forward diverges");
        for ((a, b2), name) in
            [(x, xu), (w, wu), (b, bu)].iter().zip(["x", "w", "b"].iter().cycle())
        {
            assert_eq!(gf.get(*a), gu.get(*b2), "fused gradient for {name} diverges");
        }
    }

    #[test]
    fn forward_values_basic_chain() {
        let mut t = Tape::new();
        let x = t.leaf(m(1, 2, &[1.0, 2.0]));
        let w = t.leaf(m(2, 2, &[1.0, 0.0, 0.0, 1.0]));
        let y = t.matmul(x, w);
        assert_eq!(t.value(y).as_slice(), &[1.0, 2.0]);
        let s = t.sum_all(y);
        assert_eq!(t.scalar(s), 3.0);
    }

    #[test]
    fn backward_matmul_known_gradient() {
        // loss = sum(x·W): dx = row sums of Wᵀ rows, dW = xᵀ·1
        let mut t = Tape::new();
        let x = t.leaf(m(1, 2, &[2.0, 3.0]));
        let w = t.leaf(m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let y = t.matmul(x, w);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.get(x).unwrap().as_slice(), &[3.0, 7.0]);
        assert_eq!(g.get(w).unwrap().as_slice(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_fanout() {
        // y = x + x → dy/dx = 2.
        let mut t = Tape::new();
        let x = t.leaf(m(1, 1, &[5.0]));
        let y = t.add(x, x);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.get(x).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn gradients_absent_for_unused_nodes() {
        let mut t = Tape::new();
        let x = t.leaf(m(1, 1, &[1.0]));
        let unused = t.leaf(m(1, 1, &[9.0]));
        let loss = t.sum_all(x);
        let g = t.backward(loss);
        assert!(g.get(x).is_some());
        assert!(g.get(unused).is_none());
        assert_eq!(g.get_or_zeros(unused, 1, 1).get(0, 0), 0.0);
    }

    #[test]
    fn softmax_rows_forward_is_distribution() {
        let mut t = Tape::new();
        let x = t.leaf(m(2, 3, &[1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let y = t.softmax_rows(x);
        for r in 0..2 {
            let s: f32 = t.value(y).row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn row_scale_forward() {
        let mut t = Tape::new();
        let h = t.leaf(m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let w = t.leaf(m(1, 2, &[10.0, 0.5]));
        let z = t.row_scale(h, w);
        assert_eq!(t.value(z).as_slice(), &[10.0, 20.0, 1.5, 2.0]);
    }

    #[test]
    fn cosine_forward_matches_tensor() {
        let mut t = Tape::new();
        let a = t.leaf(m(1, 3, &[1.0, 0.0, 0.0]));
        let b = t.leaf(m(1, 3, &[1.0, 1.0, 0.0]));
        let c = t.cosine(a, b);
        assert!((t.scalar(c) - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_zero_grad() {
        let mut t = Tape::new();
        let a = t.leaf(m(1, 2, &[0.0, 0.0]));
        let b = t.leaf(m(1, 2, &[1.0, 2.0]));
        let c = t.cosine(a, b);
        assert_eq!(t.scalar(c), 0.0);
        let g = t.backward(c);
        assert_eq!(g.get(b).unwrap().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn focal_bce_matches_plain_bce_at_gamma_zero() {
        let mut t = Tape::new();
        let z = t.scalar_leaf(0.7);
        let l = t.focal_bce_with_logits(z, 1.0, 0.0);
        let p = sigmoid(0.7);
        assert!((t.scalar(l) + p.ln()).abs() < 1e-6);
        // d/dz BCE-with-logits = p − label
        let g = t.backward(l);
        assert!((g.get(z).unwrap().get(0, 0) - (p - 1.0)).abs() < 1e-5);
    }

    #[test]
    fn mean_pool_gradient_splits_evenly() {
        let mut t = Tape::new();
        let a = t.leaf(m(1, 2, &[1.0, 2.0]));
        let b = t.leaf(m(1, 2, &[3.0, 4.0]));
        let pooled = t.mean_pool(&[a, b]);
        assert_eq!(t.value(pooled).as_slice(), &[2.0, 3.0]);
        let loss = t.sum_all(pooled);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().as_slice(), &[0.5, 0.5]);
        assert_eq!(g.get(b).unwrap().as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn linear_layer_shapes() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(3, 4, 1.0));
        let w = t.leaf(Matrix::full(4, 2, 0.5));
        let b = t.leaf(m(1, 2, &[1.0, -1.0]));
        let y = t.linear(x, w, b);
        assert_eq!(t.value(y).shape(), (3, 2));
        assert_eq!(t.value(y).get(0, 0), 3.0);
        assert_eq!(t.value(y).get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1 scalar")]
    fn backward_requires_scalar_loss() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        let _ = t.backward(x);
    }

    #[test]
    fn concat_cols_backward_splits() {
        let mut t = Tape::new();
        let a = t.leaf(m(1, 2, &[1.0, 2.0]));
        let b = t.leaf(m(1, 1, &[3.0]));
        let c = t.concat_cols(a, b);
        let w = t.leaf(m(3, 1, &[1.0, 10.0, 100.0]));
        let y = t.matmul(c, w);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(g.get(b).unwrap().as_slice(), &[100.0]);
    }

    #[test]
    fn layer_norm_rows_are_standardized() {
        let mut t = Tape::new();
        let x = t.leaf(m(2, 4, &[1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0]));
        let y = t.layer_norm(x);
        for r in 0..2 {
            let row = t.value(y).row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn dropout_zero_p_is_identity_and_masks_scale() {
        let mut rng = zoomer_tensor::seeded_rng(5);
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 1000, 1.0));
        let same = t.dropout(x, 0.0, &mut rng);
        assert_eq!(same, x, "p = 0 must be the identity (no new node)");
        let dropped = t.dropout(x, 0.5, &mut rng);
        let vals: Vec<f32> = t.value(dropped).as_slice().to_vec();
        let zeros = vals.iter().filter(|&&v| v == 0.0).count();
        assert!((350..650).contains(&zeros), "~half dropped, got {zeros}");
        // Survivors scaled by 2 → mean stays ≈ 1.
        let mean: f32 = vals.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        // Backward: gradient only flows through survivors, scaled.
        let s = t.sum_all(dropped);
        let g = t.backward(s);
        let gx = g.get(x).expect("grad");
        for (gv, &v) in gx.as_slice().iter().zip(&vals) {
            assert_eq!(*gv, if v == 0.0 { 0.0 } else { 2.0 });
        }
    }

    #[test]
    fn scale_by_scalar_var_grads() {
        let mut t = Tape::new();
        let mmat = t.leaf(m(1, 2, &[2.0, 3.0]));
        let s = t.scalar_leaf(4.0);
        let y = t.scale_by_scalar_var(mmat, s);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.get(mmat).unwrap().as_slice(), &[4.0, 4.0]);
        assert_eq!(g.get(s).unwrap().get(0, 0), 5.0);
    }
}
