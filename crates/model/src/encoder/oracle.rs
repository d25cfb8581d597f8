//! The per-occurrence tree encoder, kept as the test oracle for the
//! level-major encoder: it walks an ROI tree node by node, recomputes
//! `z_self` at every occurrence and records 1×d ops, exactly as the model
//! encoded ROIs before the level-major layout.

use std::collections::BTreeMap;

use zoomer_autograd::Var;
use zoomer_graph::{NodeId, NodeType};
use zoomer_sampler::RoiNode;
use zoomer_tensor::Matrix;

use super::Encoder;
use crate::config::Aggregation;
use crate::forward::ForwardCtx;

impl Encoder<'_> {
    /// Node feature latent matrix `H` (eq. 6 input): one row per categorical
    /// field embedding plus one row projecting the dense content vector.
    fn tree_node_feature_matrix(&mut self, ctx: &mut ForwardCtx, node: NodeId) -> Var {
        let ty = self.graph.node_type(node);
        let fields = self.graph.fields(node).to_vec();
        let mut rows: Vec<Var> = Vec::with_capacity(fields.len() + 1);
        for (idx, &value) in fields.iter().enumerate() {
            let table = self.tables.get_or_create(ty, idx);
            rows.push(ctx.embed(table, value as u64));
        }
        // Dense content row: dense · W_feat.{type}.
        let dense = ctx.constant(Matrix::row_vector(self.graph.dense_feature(node)));
        let w = ctx.param(self.store, &format!("feat.{}.w", ty.name()));
        rows.push(ctx.tape.matmul(dense, w));
        ctx.tape.concat_rows(&rows)
    }

    /// The focal vector `C` (§V-A): per focal point, mean its feature rows,
    /// space-map per type, then sum.
    fn tree_focal_vector(&mut self, ctx: &mut ForwardCtx, focal_nodes: &[NodeId]) -> Var {
        assert!(!focal_nodes.is_empty(), "focal vector needs at least one node");
        let mut mapped: Vec<Var> = Vec::with_capacity(focal_nodes.len());
        for &f in focal_nodes {
            let h = self.tree_node_feature_matrix(ctx, f);
            let mean = ctx.tape.mean_rows(h);
            let ty = self.graph.node_type(f);
            let w = ctx.param(self.store, &format!("map.{}.w", ty.name()));
            mapped.push(ctx.tape.matmul(mean, w));
        }
        let mut acc = mapped[0];
        for &m in &mapped[1..] {
            acc = ctx.tape.add(acc, m);
        }
        acc
    }

    /// Self embedding of a node: feature projection (eq. 6–7) when enabled
    /// and a focal vector is present, plain mean of feature rows otherwise.
    fn tree_self_embedding(
        &mut self,
        ctx: &mut ForwardCtx,
        node: NodeId,
        focal: Option<Var>,
    ) -> Var {
        let h = self.tree_node_feature_matrix(ctx, node);
        let use_feature_attention = self.config.feature_attention
            && self.config.aggregation == Aggregation::Zoomer
            && focal.is_some();
        if use_feature_attention {
            let c = focal.expect("checked above");
            // scores = H · Cᵀ / √d → (n×1) → transpose → softmax → 1×n.
            let ct = ctx.tape.transpose(c);
            let scores = ctx.tape.matmul(h, ct);
            let scores = ctx.tape.scale(scores, 1.0 / (self.config.embed_dim as f32).sqrt());
            let scores_row = ctx.tape.transpose(scores);
            let w_c = ctx.tape.softmax_rows(scores_row);
            let z = ctx.tape.row_scale(h, w_c);
            // Sum (not mean): the softmax already normalizes total mass.
            ctx.tape.sum_rows(z)
        } else {
            ctx.tape.mean_rows(h)
        }
    }

    /// Aggregate already-encoded children into one vector, per the configured
    /// flavor. `layer` indexes the parameters (1-based, root = `hops`).
    /// Returns `None` when there are no children.
    #[allow(clippy::too_many_arguments)]
    fn tree_aggregate(
        &mut self,
        ctx: &mut ForwardCtx,
        parent: NodeId,
        parent_z: Var,
        children: &[(NodeId, Var)],
        focal: Option<Var>,
        layer: usize,
    ) -> Option<Var> {
        if children.is_empty() {
            return None;
        }
        match self.config.aggregation {
            Aggregation::Mean => {
                let rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
                Some(ctx.tape.mean_pool(&rows))
            }
            Aggregation::WeightedMean => Some(self.tree_weighted_mean(ctx, parent, children)),
            Aggregation::Gat => {
                Some(self.tree_pairwise_attention(ctx, parent_z, children, None, "att.gat", layer))
            }
            Aggregation::QueryAnchored => Some(self.tree_query_anchored(ctx, children, focal)),
            Aggregation::Gated => Some(self.tree_gated(ctx, parent_z, children, layer)),
            Aggregation::MultiComponent => {
                Some(self.tree_multi_component(ctx, parent_z, children, layer))
            }
            Aggregation::Han => Some(self.tree_han(ctx, parent_z, children, layer)),
            Aggregation::Zoomer => Some(self.tree_zoomer(ctx, parent_z, children, focal, layer)),
        }
    }

    /// PinSage-style importance pooling: weights from total edge weight
    /// between parent and child in the graph (visit-count proxy).
    fn tree_weighted_mean(
        &mut self,
        ctx: &mut ForwardCtx,
        parent: NodeId,
        children: &[(NodeId, Var)],
    ) -> Var {
        let mut weights: Vec<f32> = children
            .iter()
            .map(|&(child, _)| {
                zoomer_sampler::all_neighbors(self.graph, parent)
                    .into_iter()
                    .filter(|&(n, _, _)| n == child)
                    .map(|(_, _, w)| w)
                    .sum::<f32>()
                    .max(0.1) // walk-reached nodes may not be direct neighbors
            })
            .collect();
        let total: f32 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let stacked_rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
        let stacked = ctx.tape.concat_rows(&stacked_rows);
        let w_row = ctx.constant(Matrix::row_vector(&weights));
        ctx.tape.matmul(w_row, stacked)
    }

    /// GAT-style (eq. 3) or focal-augmented pairwise attention over all
    /// children. When `focal` is `Some`, the focal vector is concatenated
    /// into every score input (Zoomer's eq. 8 shape).
    fn tree_pairwise_attention(
        &mut self,
        ctx: &mut ForwardCtx,
        parent_z: Var,
        children: &[(NodeId, Var)],
        focal: Option<Var>,
        att_param: &str,
        layer: usize,
    ) -> Var {
        let a = ctx.param(self.store, &format!("{att_param}.l{layer}"));
        let mut scores: Vec<Var> = Vec::with_capacity(children.len());
        for &(_, zj) in children {
            let pair = ctx.tape.concat_cols(parent_z, zj);
            let input = match focal {
                Some(c) => ctx.tape.concat_cols(pair, c),
                None => pair,
            };
            let s = ctx.tape.matmul(input, a);
            scores.push(ctx.tape.leaky_relu(s));
        }
        let score_col = ctx.tape.concat_rows(&scores);
        let score_row = ctx.tape.transpose(score_col);
        let alpha = ctx.tape.softmax_rows(score_row);
        let stacked_rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
        let stacked = ctx.tape.concat_rows(&stacked_rows);
        ctx.tape.matmul(alpha, stacked)
    }

    /// STAMP / GCE-GNN style: attention anchored purely on the focal (query)
    /// vector; falls back to mean pooling when no focal is available.
    fn tree_query_anchored(
        &mut self,
        ctx: &mut ForwardCtx,
        children: &[(NodeId, Var)],
        focal: Option<Var>,
    ) -> Var {
        let Some(c) = focal else {
            let rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
            return ctx.tape.mean_pool(&rows);
        };
        let stacked_rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
        let stacked = ctx.tape.concat_rows(&stacked_rows);
        let ct = ctx.tape.transpose(c);
        let scores = ctx.tape.matmul(stacked, ct); // n×1
        let scores = ctx.tape.scale(scores, 1.0 / (self.config.embed_dim as f32).sqrt());
        let score_row = ctx.tape.transpose(scores);
        let alpha = ctx.tape.softmax_rows(score_row);
        ctx.tape.matmul(alpha, stacked)
    }

    /// FGNN-style gated aggregation: per-child sigmoid gate on [z_i ‖ z_j].
    fn tree_gated(
        &mut self,
        ctx: &mut ForwardCtx,
        parent_z: Var,
        children: &[(NodeId, Var)],
        layer: usize,
    ) -> Var {
        let w = ctx.param(self.store, &format!("gate.l{layer}"));
        let mut acc: Option<Var> = None;
        for &(_, zj) in children {
            let pair = ctx.tape.concat_cols(parent_z, zj);
            let g = ctx.tape.matmul(pair, w);
            let g = ctx.tape.sigmoid(g); // 1×1
            let gated = ctx.tape.scale_by_scalar_var(zj, g);
            acc = Some(match acc {
                Some(a) => ctx.tape.add(a, gated),
                None => gated,
            });
        }
        let sum = acc.expect("children nonempty");
        ctx.tape.scale(sum, 1.0 / children.len() as f32)
    }

    /// MCCF-style two-component decomposition: each component projects the
    /// ego, scores children by dot product, and pools; components average.
    fn tree_multi_component(
        &mut self,
        ctx: &mut ForwardCtx,
        parent_z: Var,
        children: &[(NodeId, Var)],
        layer: usize,
    ) -> Var {
        let stacked_rows: Vec<Var> = children.iter().map(|&(_, v)| v).collect();
        let stacked = ctx.tape.concat_rows(&stacked_rows);
        let mut components: Vec<Var> = Vec::with_capacity(2);
        for comp in ["c1", "c2"] {
            let w = ctx.param(self.store, &format!("mccf.{comp}.l{layer}"));
            let anchor = ctx.tape.matmul(parent_z, w); // 1×d
            let at = ctx.tape.transpose(anchor);
            let scores = ctx.tape.matmul(stacked, at); // n×1
            let score_row = ctx.tape.transpose(scores);
            let alpha = ctx.tape.softmax_rows(score_row);
            let pooled = ctx.tape.matmul(alpha, stacked);
            components.push(ctx.tape.tanh(pooled));
        }
        ctx.tape.mean_pool(&components)
    }

    /// HAN: GAT within each neighbor type (node-level attention), then a
    /// learned semantic-level attention over the per-type summaries.
    fn tree_han(
        &mut self,
        ctx: &mut ForwardCtx,
        parent_z: Var,
        children: &[(NodeId, Var)],
        layer: usize,
    ) -> Var {
        let groups = self.tree_group_by_type(children);
        let mut type_embs: Vec<Var> = Vec::with_capacity(groups.len());
        for group in groups.values() {
            type_embs
                .push(self.tree_pairwise_attention(ctx, parent_z, group, None, "att.gat", layer));
        }
        if type_embs.len() == 1 {
            return type_embs[0];
        }
        // Semantic attention: s_k = qᵀ tanh(W_sem · E_k).
        let w_sem = ctx.param(self.store, "han.w_sem");
        let q = ctx.param(self.store, "han.q");
        let mut scores: Vec<Var> = Vec::with_capacity(type_embs.len());
        for &e in &type_embs {
            let proj = ctx.tape.matmul(e, w_sem);
            let proj = ctx.tape.tanh(proj);
            scores.push(ctx.tape.matmul(proj, q));
        }
        let score_col = ctx.tape.concat_rows(&scores);
        let score_row = ctx.tape.transpose(score_col);
        let beta = ctx.tape.softmax_rows(score_row);
        let stacked = ctx.tape.concat_rows(&type_embs);
        ctx.tape.matmul(beta, stacked)
    }

    /// Zoomer's edge reweighing (eq. 8–9, within-type, focal-conditioned)
    /// plus semantic combination (eq. 10–11), each degrading to mean pooling
    /// when its config flag is off (the §VII-C ablations).
    fn tree_zoomer(
        &mut self,
        ctx: &mut ForwardCtx,
        parent_z: Var,
        children: &[(NodeId, Var)],
        focal: Option<Var>,
        layer: usize,
    ) -> Var {
        let groups = self.tree_group_by_type(children);
        let mut type_embs: Vec<Var> = Vec::with_capacity(groups.len());
        for group in groups.values() {
            let e_t = if self.config.edge_attention {
                self.tree_pairwise_attention(ctx, parent_z, group, focal, "att.edge", layer)
            } else {
                let rows: Vec<Var> = group.iter().map(|&(_, v)| v).collect();
                ctx.tape.mean_pool(&rows)
            };
            type_embs.push(e_t);
        }
        if type_embs.len() == 1 {
            return type_embs[0];
        }
        if self.config.semantic_attention {
            // eq. 10–11: t_k = cos(z_i, E_k); H = Σ E_k · t_k.
            let mut acc: Option<Var> = None;
            for &e in &type_embs {
                let t_k = ctx.tape.cosine(parent_z, e);
                let weighted = ctx.tape.scale_by_scalar_var(e, t_k);
                acc = Some(match acc {
                    Some(a) => ctx.tape.add(a, weighted),
                    None => weighted,
                });
            }
            acc.expect("type_embs nonempty")
        } else {
            ctx.tape.mean_pool(&type_embs)
        }
    }

    fn tree_group_by_type(
        &self,
        children: &[(NodeId, Var)],
    ) -> BTreeMap<NodeType, Vec<(NodeId, Var)>> {
        let mut groups: BTreeMap<NodeType, Vec<(NodeId, Var)>> = BTreeMap::new();
        for &(id, v) in children {
            groups.entry(self.graph.node_type(id)).or_default().push((id, v));
        }
        groups
    }

    /// Combine self embedding with the neighbor aggregate:
    /// `tanh(W·[z_self ‖ h_agg] + b)`; identity pass-through for leaves.
    fn tree_combine(
        &mut self,
        ctx: &mut ForwardCtx,
        z_self: Var,
        h_agg: Option<Var>,
        layer: usize,
    ) -> Var {
        let Some(agg) = h_agg else { return z_self };
        let w = ctx.param(self.store, &format!("comb.l{layer}.w"));
        let b = ctx.param(self.store, &format!("comb.l{layer}.b"));
        let cat = ctx.tape.concat_cols(z_self, agg);
        let lin = ctx.tape.linear(cat, w, b);
        ctx.tape.tanh(lin)
    }

    /// Encode a full ROI computation tree bottom-up. Returns the root's
    /// embedding (1×d).
    fn tree_encode_roi(&mut self, ctx: &mut ForwardCtx, roi: &RoiNode, focal: Option<Var>) -> Var {
        let depth = roi.depth();
        self.tree_encode_roi_at(ctx, roi, focal, depth)
    }

    fn tree_encode_roi_at(
        &mut self,
        ctx: &mut ForwardCtx,
        roi: &RoiNode,
        focal: Option<Var>,
        depth: usize,
    ) -> Var {
        let z_self = self.tree_self_embedding(ctx, roi.id, focal);
        if roi.children.is_empty() || depth == 0 {
            return z_self;
        }
        let children: Vec<(NodeId, Var)> = roi
            .children
            .iter()
            .map(|c| (c.id, self.tree_encode_roi_at(ctx, c, focal, depth - 1)))
            .collect();
        let agg = self.tree_aggregate(ctx, roi.id, z_self, &children, focal, depth);
        self.tree_combine(ctx, z_self, agg, depth)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use rand::Rng;
    use zoomer_autograd::embedding::SparseAdamConfig;
    use zoomer_autograd::ParamStore;
    use zoomer_graph::{GraphBuilder, HeteroGraph};
    use zoomer_tensor::seeded_rng;

    use super::*;
    use crate::config::ModelConfig;
    use crate::encoder::{register_params, TableSet};

    const AGGREGATIONS: [Aggregation; 8] = [
        Aggregation::Zoomer,
        Aggregation::Mean,
        Aggregation::Gat,
        Aggregation::Han,
        Aggregation::WeightedMean,
        Aggregation::QueryAnchored,
        Aggregation::Gated,
        Aggregation::MultiComponent,
    ];

    /// Three users (0–2), three queries (3–5) and six items (6–11), with
    /// sessions so that WeightedMean sees real edge weights.
    fn graph() -> HeteroGraph {
        let mut b = GraphBuilder::new(3);
        let mut rng = seeded_rng(41);
        let mut dense = || [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 0.5];
        let users: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(NodeType::User, vec![i, i % 2, 7], vec![], &dense()))
            .collect();
        let queries: Vec<NodeId> =
            (0..3).map(|i| b.add_node(NodeType::Query, vec![i, 4], vec![], &dense())).collect();
        let items: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(NodeType::Item, vec![i, i % 3, 2, i % 2, 9], vec![], &dense()))
            .collect();
        b.add_search_session(users[0], queries[0], &items[0..3]);
        b.add_search_session(users[1], queries[0], &items[2..5]);
        b.add_search_session(users[2], queries[1], &items[3..6]);
        b.add_search_session(users[0], queries[2], &[items[0], items[5]]);
        b.add_search_session(users[0], queries[0], &items[1..2]);
        b.finish()
    }

    /// A random ROI tree over 12 nodes: ids repeat, child types mix, and
    /// a subtree stops early a quarter of the time, so depths are uneven.
    fn random_tree(rng: &mut impl Rng, id: NodeId, depth: usize) -> RoiNode {
        if depth == 0 || rng.gen_range(0..4) == 0 {
            return RoiNode { id, children: Vec::new() };
        }
        let k = rng.gen_range(1..5);
        let children = (0..k)
            .map(|_| {
                let child = rng.gen_range(0..12);
                random_tree(rng, child, depth - 1)
            })
            .collect();
        RoiNode { id, children }
    }

    type Grads = (f32, HashMap<String, Matrix>, HashMap<String, HashMap<u64, Vec<f32>>>);

    /// Logit and every gradient of one example through both towers, with
    /// the ROIs encoded level by level (`level`) or by the tree oracle.
    fn run(
        level: bool,
        config: &ModelConfig,
        store: &ParamStore,
        graph: &HeteroGraph,
        rois: [&RoiNode; 2],
        item: NodeId,
    ) -> Grads {
        let mut tables = TableSet::new(config.embed_dim, 5, SparseAdamConfig::default());
        let mut enc = Encoder { config, store, tables: &mut tables, graph };
        let mut ctx = ForwardCtx::new();
        let focal_nodes = match config.aggregation {
            Aggregation::Zoomer => vec![rois[0].id, rois[1].id],
            Aggregation::QueryAnchored => vec![rois[1].id],
            _ => Vec::new(),
        };
        let focal = (!focal_nodes.is_empty()).then(|| {
            if level {
                enc.focal_vector(&mut ctx, &focal_nodes)
            } else {
                enc.tree_focal_vector(&mut ctx, &focal_nodes)
            }
        });
        let (zu, zq, zi) = if level {
            let roots = enc.encode_rois(&mut ctx, &rois, focal);
            (roots[0], roots[1], enc.self_embeddings(&mut ctx, &[item], None))
        } else {
            let zu = enc.tree_encode_roi(&mut ctx, rois[0], focal);
            let zq = enc.tree_encode_roi(&mut ctx, rois[1], focal);
            (zu, zq, enc.tree_self_embedding(&mut ctx, item, None))
        };
        let cat = ctx.tape.concat_cols(zu, zq);
        let (w, b) = (ctx.param(store, "tower.uq.w"), ctx.param(store, "tower.uq.b"));
        let uq = ctx.tape.linear(cat, w, b);
        let (w, b) = (ctx.param(store, "tower.item.w"), ctx.param(store, "tower.item.b"));
        let it = ctx.tape.linear(zi, w, b);
        let logit = ctx.tape.dot(uq, it);
        let loss = ctx.tape.focal_bce_with_logits(logit, 1.0, 2.0);
        let grads = ctx.tape.backward(loss);
        (ctx.tape.scalar(logit), ctx.dense_gradients(&grads), ctx.sparse_gradients(&grads))
    }

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-5)
    }

    /// Every aggregation under every combination of the three attention
    /// flags: the level-major encoder's logit and gradients must match the
    /// tree oracle's, and touch the same parameters and embedding rows.
    fn check_against_oracle(graph: &HeteroGraph, rois: [&RoiNode; 2], item: NodeId) {
        for aggregation in AGGREGATIONS {
            for flags in 0..8u8 {
                let mut config = ModelConfig::zoomer(9, 3);
                config.hops = 3;
                config.aggregation = aggregation;
                config.feature_attention = flags & 1 != 0;
                config.edge_attention = flags & 2 != 0;
                config.semantic_attention = flags & 4 != 0;
                let mut store = ParamStore::new();
                register_params(&config, &mut seeded_rng(9), &mut store);
                let (logit, dense, sparse) = run(true, &config, &store, graph, rois, item);
                let (want, want_dense, want_sparse) =
                    run(false, &config, &store, graph, rois, item);
                let case = format!("{aggregation:?} flags {flags:03b}");
                assert!((logit - want).abs() <= 1e-5, "{case}: logit {logit} vs {want}");
                let mut names: Vec<&String> = dense.keys().collect();
                let mut want_names: Vec<&String> = want_dense.keys().collect();
                names.sort();
                want_names.sort();
                assert_eq!(names, want_names, "{case}: dense parameters touched");
                for (name, g) in &dense {
                    assert!(
                        close(g.as_slice(), want_dense[name].as_slice()),
                        "{case}: dense gradient {name}: {g:?} vs {:?}",
                        want_dense[name]
                    );
                }
                assert_eq!(sparse.len(), want_sparse.len(), "{case}: tables touched");
                for (table, rows) in &sparse {
                    let want_rows = &want_sparse[table];
                    assert_eq!(rows.len(), want_rows.len(), "{case}: rows of {table}");
                    for (id, g) in rows {
                        assert!(
                            close(g, &want_rows[id]),
                            "{case}: sparse gradient {table}[{id}]: {g:?} vs {:?}",
                            want_rows[id]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn depth_zero_ego_and_single_type_parents_match_the_oracle() {
        let g = graph();
        let leaf = |id| RoiNode { id, children: Vec::new() };
        // The user ego has no ROI. On the query's first layer, items 6 and
        // 7 see one child type each and item 8 sees two; the root sees
        // users and items.
        let query = RoiNode {
            id: 3,
            children: vec![
                RoiNode { id: 6, children: vec![leaf(0), leaf(1)] },
                RoiNode { id: 7, children: vec![leaf(3)] },
                RoiNode { id: 8, children: vec![leaf(0), leaf(4), leaf(2)] },
                leaf(0),
                leaf(6),
            ],
        };
        check_against_oracle(&g, [&leaf(0), &query], 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn level_major_encoder_matches_the_tree_oracle(
            seed in 0u64..1_000_000,
            user in 0u32..3,
            query in 3u32..6,
            user_depth in 0usize..4,
            query_depth in 1usize..4,
            item in 6u32..12,
        ) {
            let g = graph();
            let mut rng = seeded_rng(seed);
            let user_roi = random_tree(&mut rng, user, user_depth);
            let query_roi = random_tree(&mut rng, query, query_depth);
            check_against_oracle(&g, [&user_roi, &query_roi], item);
        }
    }
}
