//! Whole-model gradient checks: finite differences through the *entire*
//! forward pass (focal vector → ROI encoding → multi-level attention →
//! twin towers → focal loss) against the tape's analytic gradients.

use std::collections::HashMap;

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_tensor::seeded_rng;

/// Loss of one example under the model's current parameters (deterministic:
/// focal sampler at temperature 0).
fn loss_of(
    model: &mut UnifiedCtrModel,
    data: &TaobaoData,
    ex: &zoomer_data::RetrievalExample,
) -> f64 {
    let mut rng = seeded_rng(7);
    let gamma = model.config().focal_gamma;
    let (mut ctx, logit) = model.forward(&data.graph, ex, &mut rng);
    let loss = ctx.tape.focal_bce_with_logits(logit, ex.label, gamma);
    ctx.tape.scalar(loss) as f64
}

fn check_preset(preset: &str, tol: f64) {
    let data = TaobaoData::generate(TaobaoConfig::tiny(77));
    let ex = data.ctr_examples()[3];
    let dd = data.graph.features().dense_dim();
    let mut config = ModelConfig::preset(preset, 77, dd).expect("preset");
    config.focal_temperature = 0.0; // deterministic ROI across re-evaluations
    let mut model = UnifiedCtrModel::new(config);

    // Analytic gradients.
    let mut rng = seeded_rng(7);
    let gamma = model.config().focal_gamma;
    let (mut ctx, logit) = model.forward(&data.graph, &ex, &mut rng);
    let loss_var = ctx.tape.focal_bce_with_logits(logit, ex.label, gamma);
    let grads = ctx.tape.backward(loss_var);
    let dense: HashMap<String, zoomer_tensor::Matrix> = ctx.dense_gradients(&grads);
    assert!(!dense.is_empty(), "{preset}: no dense gradients flowed");

    // Numeric check on a handful of entries of a few touched parameters.
    let eps = 2e-3f32;
    let mut checked = 0usize;
    let names: Vec<String> = dense.keys().take(4).cloned().collect();
    for name in names {
        let g = &dense[&name];
        for e in (0..g.len()).step_by((g.len() / 3).max(1)) {
            let orig = model.store().get(&name).as_slice()[e];
            model.store_mut().get_mut(&name).as_mut_slice()[e] = orig + eps;
            let plus = loss_of(&mut model, &data, &ex);
            model.store_mut().get_mut(&name).as_mut_slice()[e] = orig - eps;
            let minus = loss_of(&mut model, &data, &ex);
            model.store_mut().get_mut(&name).as_mut_slice()[e] = orig;
            let numeric = (plus - minus) / (2.0 * eps as f64);
            let analytic = g.as_slice()[e] as f64;
            let denom = analytic.abs().max(numeric.abs()).max(1e-2);
            let rel = (analytic - numeric).abs() / denom;
            assert!(
                rel < tol,
                "{preset}: param {name}[{e}] analytic {analytic:.6} vs numeric {numeric:.6} (rel {rel:.4})"
            );
            checked += 1;
        }
    }
    assert!(checked >= 4, "{preset}: too few entries checked");
}

#[test]
fn gradcheck_full_zoomer_model() {
    check_preset("zoomer", 0.08);
}

#[test]
fn gradcheck_han_model() {
    check_preset("han", 0.08);
}

#[test]
fn gradcheck_gat_model() {
    check_preset("gat", 0.08);
}

#[test]
fn gradcheck_mccf_model() {
    check_preset("mccf", 0.08);
}

#[test]
fn gradcheck_fgnn_model() {
    check_preset("fgnn", 0.08);
}

#[test]
fn gradcheck_gcn_model() {
    check_preset("gcn", 0.08);
}

#[test]
fn gradcheck_zoomer_fe_model() {
    check_preset("zoomer-fe", 0.08);
}

#[test]
fn gradcheck_zoomer_fs_model() {
    check_preset("zoomer-fs", 0.08);
}

#[test]
fn gradcheck_zoomer_es_model() {
    check_preset("zoomer-es", 0.08);
}

#[test]
fn gradcheck_pinsage_model() {
    check_preset("pinsage", 0.08);
}

#[test]
fn gradcheck_stamp_model() {
    check_preset("stamp", 0.08);
}
