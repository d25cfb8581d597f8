//! `train_roi`: the paper's efficiency claim. ROI-downsized training of the
//! full Zoomer model through `zoomer_train::train`, single-threaded, batch 1,
//! a fixed number of steps, then AUC on held-out examples. Exercises sampler
//! → model → autograd → tensor kernels — the kernels serving also uses, used
//! differently.

use std::path::Path;
use std::time::Instant;

use rand_chacha::ChaCha8Rng;
use zoomer_data::{split_examples, RetrievalExample, TaobaoData, TrainTestSplit};
use zoomer_graph::{HeteroGraph, NodeId};
use zoomer_model::{CtrModel, FrozenModel, ModelConfig, UnifiedCtrModel};
use zoomer_sampler::{build_roi, FocalBiasedSampler, FocalContext};
use zoomer_tensor::rng::derive_rng;
use zoomer_train::{train, TrainerConfig};

use crate::loadgen::micros;
use crate::metrics::Metrics;
use crate::probe::{rss_mib, tensor_micro};
use crate::scale::{Scale, MODEL_SEED};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::RunOutcome;

pub const NAME: &str = "train_roi";

/// Steps per second of `--seconds`: the step count is fixed by the
/// arguments, not by how fast the machine is, so the AUC repeats exactly
/// for a seed. 10 000 steps at the 16 s of `run_seconds`, which is also
/// about what they take at the seed commit's speed.
const STEPS_PER_SECOND: f64 = 625.0;

/// A run whose AUC is below this did not learn; measured on the seed commit
/// the AUC after 10 000 steps is 0.64–0.69.
const AUC_FLOOR: f64 = 0.60;

/// Set-ups timed per run: split + model init takes 2 ms, so it is repeated
/// often enough for the median to be steady.
const SETUPS: usize = 101;

/// The model under training, with every `train_step` that `train()` makes
/// timed from outside (and recorded as a span when there is a tracer).
struct TimedModel {
    inner: UnifiedCtrModel,
    step_us: Vec<f64>,
    /// Steps whose loss was not finite.
    failed: u64,
    tracer: Option<Tracer>,
}

impl CtrModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn train_step(
        &mut self,
        graph: &HeteroGraph,
        ex: &RetrievalExample,
        rng: &mut ChaCha8Rng,
    ) -> f32 {
        let started = Instant::now();
        let loss = self.inner.train_step(graph, ex, rng);
        let done = Instant::now();
        if let Some(tracer) = &mut self.tracer {
            tracer.record("train.step", started, done, self.step_us.len() as u64);
        }
        self.step_us.push(micros(done - started));
        self.failed += u64::from(!loss.is_finite());
        loss
    }

    fn predict(&mut self, graph: &HeteroGraph, ex: &RetrievalExample, rng: &mut ChaCha8Rng) -> f32 {
        self.inner.predict(graph, ex, rng)
    }

    fn uq_embedding(
        &mut self,
        graph: &HeteroGraph,
        user: NodeId,
        query: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> Vec<f32> {
        self.inner.uq_embedding(graph, user, query, rng)
    }

    fn item_embedding(&mut self, graph: &HeteroGraph, item: NodeId) -> Vec<f32> {
        self.inner.item_embedding(graph, item)
    }

    fn set_fanout(&mut self, k: usize) {
        self.inner.set_fanout(k);
    }

    fn set_hops(&mut self, hops: usize) {
        self.inner.set_hops(hops);
    }

    fn freeze(&mut self, graph: &HeteroGraph) -> FrozenModel {
        self.inner.freeze(graph)
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }
}

struct Trainer {
    data: TaobaoData,
    split: TrainTestSplit,
    model: TimedModel,
    generate_s: f64,
    setup_s: f64,
}

impl Trainer {
    fn new(scale: &Scale, tracer: Option<Tracer>) -> Trainer {
        let t = Instant::now();
        let data = TaobaoData::generate(scale.train_data.clone());
        let generate_s = t.elapsed().as_secs_f64();
        let dense_dim = data.graph.features().dense_dim();
        // Set-up is examples → split → model init; dataset generation is
        // reported per layer and kept out of it.
        let mut setups = Vec::new();
        let (split, inner) = loop {
            let t = Instant::now();
            let split = split_examples(data.ctr_examples(), 0.9, MODEL_SEED);
            let model = UnifiedCtrModel::new(ModelConfig::zoomer(MODEL_SEED, dense_dim));
            setups.push(t.elapsed().as_secs_f64());
            if setups.len() == SETUPS {
                break (split, model);
            }
        };
        let model = TimedModel { inner, step_us: Vec::new(), failed: 0, tracer };
        Trainer { data, split, model, generate_s, setup_s: median(&setups) }
    }

    /// `zoomer_train::train`: one pass over `steps` examples in the order
    /// `seed` shuffles them into, single-threaded, batch 1, then the AUC on
    /// the held-out sample. Returns the steps made and the AUC.
    fn train(&mut self, scale: &Scale, seed: u64, steps: usize) -> (u64, f64) {
        let config = TrainerConfig {
            epochs: 1,
            max_steps_per_epoch: Some(steps),
            eval_sample: scale.eval_examples,
            batch_size: 1,
            seed,
            ..TrainerConfig::default()
        };
        let report = train(&mut self.model, &self.data.graph, &self.split, &config);
        (report.steps as u64, report.final_auc)
    }
}

fn steps_for(seconds: f64) -> usize {
    ((seconds * STEPS_PER_SECOND) as usize).max(48)
}

fn problems(scale: &Scale, auc: f64, failed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} training steps returned a non-finite loss"));
    }
    if scale.quality_floors && auc < AUC_FLOOR {
        problems.push(format!("held-out AUC {auc:.4} below the floor {AUC_FLOOR}"));
    }
    problems
}

/// The end-to-end run: tracing off.
pub fn run(scale: &Scale, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let mut t = Trainer::new(scale, None);
    let (steps, auc) = t.train(scale, seed, steps_for(seconds));
    let rss_mb = rss_mib();
    let TimedModel { step_us, failed, .. } = &t.model;

    let total_s = step_us.iter().sum::<f64>() / 1e6;
    let steps_sorted = sorted(step_us.clone());
    let step_ms = |p: f64| percentile(&steps_sorted, p) / 1e3;

    let mut m = Metrics::default();
    m.set("p50_ms", step_ms(0.5));
    m.set("p90_ms", step_ms(0.9));
    // Examples over the time spent in steps: `train()` also evaluates.
    m.set("throughput_rps", steps as f64 / total_s);
    m.set("ok_share", 1.0 - *failed as f64 / steps.max(1) as f64);
    // Training has no degraded mode: every step is a full-quality step.
    m.set("full_quality_share", 1.0);
    m.set("quality", auc);
    m.set("rss_mb", rss_mb);
    m.set("setup_s", t.setup_s);
    eprintln!(
        "{NAME}: {steps} steps in {total_s:.2} s, step p50 {:.4} p90 {:.4} p99 {:.4} ms, AUC {auc:.4} on {} held-out examples",
        step_ms(0.5),
        step_ms(0.9),
        step_ms(0.99),
        scale.eval_examples.min(t.split.test.len())
    );
    Ok(RunOutcome {
        metrics: m,
        attempted: steps,
        failed: *failed,
        problems: problems(scale, auc, *failed),
    })
}

/// The traced run: `train()` for half the steps with every step recorded as
/// a span, then forward-only and ROI-only timings on alternating examples,
/// so `model.forward_us` = predict − build_roi and
/// `autograd.backward_optim_us` = train_step − predict.
pub fn run_traced(
    scale: &Scale,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<RunOutcome, String> {
    let mut t = Trainer::new(scale, Some(Tracer::new(Instant::now())));
    let replays = steps_for(seconds) / 2;
    let (steps, auc) = t.train(scale, seed, steps_for(seconds) - replays);
    let TimedModel { inner: mut model, step_us, mut failed, tracer } = t.model;
    let Some(mut tracer) = tracer else { return Err("the traced run lost its tracer".into()) };

    let config = model.config().clone();
    // The sampler `UnifiedCtrModel` builds for `SamplerKind::Focal`.
    let sampler = FocalBiasedSampler::stochastic(config.focal_temperature);
    let graph = &t.data.graph;
    let mut rng = derive_rng(seed, "replay-rng");
    let (mut predict_us, mut roi_us, mut roi_nodes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, ex) in t.split.train.iter().cycle().take(replays).enumerate() {
        if i % 2 == 0 {
            let span = tracer.begin("model.predict", None, i as u64);
            let p = model.predict(graph, ex, &mut rng);
            predict_us.push(tracer.end(span));
            failed += u64::from(!p.is_finite());
        } else {
            let span = tracer.begin("sampler.build_roi", None, i as u64);
            let focal = FocalContext::for_request(graph, ex.user, ex.query);
            let mut nodes = 0;
            for ego in [ex.user, ex.query] {
                let roi =
                    build_roi(graph, ego, &focal, &sampler, config.hops, config.fanout, &mut rng);
                nodes += roi.size();
            }
            roi_us.push(tracer.end(span));
            roi_nodes.push(nodes as f64);
        }
    }

    let mut m = Metrics::default();
    let (step, predict, roi) = (median(&step_us), median(&predict_us), median(&roi_us));
    m.set("train.step_us", step);
    m.set("sampler.build_roi_us", roi);
    m.set("sampler.roi_nodes", median(&roi_nodes));
    m.set("model.forward_us", predict - roi);
    m.set("autograd.backward_optim_us", step - predict);
    m.set("train_examples_per_s", step_us.len() as f64 / (step_us.iter().sum::<f64>() / 1e6));
    m.set("train_auc", auc);
    m.set("p99_ms", percentile(&sorted(step_us), 0.99) / 1e3);
    let attempted = steps + replays as u64;
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    m.set("data.generate_s", t.generate_s);
    tensor_micro(&mut m, config.embed_dim, 1);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{NAME}.trace.json"));
    std::fs::write(&path, crate::json::compact(&tracer.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "{NAME}: step {step:.1} us, predict {predict:.1} us, build_roi {roi:.1} us; {} spans in {}",
        tracer.len(),
        path.display()
    );
    Ok(RunOutcome { metrics: m, attempted, failed, problems: problems(scale, auc, failed) })
}
