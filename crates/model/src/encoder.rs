//! The unified GNN encoder: node featurization, focal-vector construction,
//! and all aggregation flavors, built on the autodiff tape.
//!
//! This module implements §V-D of the paper:
//! - **Feature projection** (eq. 6–7): focal-conditioned attention over a
//!   node's feature latent vectors, `W_c = softmax(H·C/√d)`, `Z = H ⊙ W_c`.
//! - **Edge reweighing** (eq. 8–9): within-type attention with the focal
//!   vector concatenated into the score, `e_ij ∝ exp σ(aᵀ[(Z_i‖Z_j)‖Z_c])`.
//! - **Semantic combination** (eq. 10–11): per-neighbor-type weights from
//!   cosine similarity with the ego embedding, `H_i = Σ_k E_ik · t_k`.
//!
//! plus the baseline aggregations (GAT eq. 3, HAN's two-level attention,
//! importance-weighted mean, STAMP-style query-anchored attention, FGNN-style
//! gating, MCCF-style multi-component decomposition).
//!
//! ROIs are encoded level by level: each distinct node is one row of a
//! self-embedding block `Z` (`z_self` depends only on the node and the focal
//! vector), and each layer is one pass over the parents of every tree —
//! row gathers, segment softmaxes and sums, one `linear` + `tanh`.

use std::collections::HashMap;

use rand::Rng;
use zoomer_autograd::embedding::SparseAdamConfig;
use zoomer_autograd::{EmbeddingTable, ParamStore, Var};
use zoomer_graph::{HeteroGraph, NodeId, NodeType};
use zoomer_sampler::RoiNode;
use zoomer_tensor::Matrix;

use crate::config::{Aggregation, ModelConfig};
use crate::forward::ForwardCtx;

/// Embedding-table registry: one table per (node type, field index).
pub struct TableSet {
    tables: HashMap<String, EmbeddingTable>,
    dim: usize,
    seed: u64,
    adam: SparseAdamConfig,
}

impl TableSet {
    pub fn new(dim: usize, seed: u64, adam: SparseAdamConfig) -> Self {
        Self { tables: HashMap::new(), dim, seed, adam }
    }

    /// Table name for a (type, field) slot.
    pub fn table_name(ty: NodeType, field_idx: usize) -> String {
        format!("emb.{}.f{}", ty.name(), field_idx)
    }

    pub fn get_or_create(&mut self, ty: NodeType, field_idx: usize) -> &mut EmbeddingTable {
        self.get_or_create_named(&Self::table_name(ty, field_idx))
    }

    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut EmbeddingTable> {
        self.tables.get_mut(name)
    }

    /// Get or lazily create a table by its full name (used by the
    /// parameter-server simulation, which receives gradients keyed by name).
    pub fn get_or_create_named(&mut self, name: &str) -> &mut EmbeddingTable {
        let (dim, adam) = (self.dim, self.adam);
        // Derive a distinct init stream per table.
        let h = name.bytes().fold(self.seed, |h, b| h.wrapping_mul(0x100000001b3) ^ b as u64);
        self.tables
            .entry(name.to_string())
            .or_insert_with(|| EmbeddingTable::new(name, dim, h, adam))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &EmbeddingTable)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total materialized embedding rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(EmbeddingTable::len).sum()
    }
}

/// Register every dense parameter the encoder may need. Called once at model
/// construction; registering the superset keeps ablation configs swappable
/// without re-initialization.
pub fn register_params(config: &ModelConfig, rng: &mut impl Rng, store: &mut ParamStore) {
    let d = config.embed_dim;
    // Dense-content projection per node type.
    for ty in NodeType::ALL {
        store.register_xavier(rng, &format!("feat.{}.w", ty.name()), config.dense_dim, d);
        // Focal space mapping per type (§V-A "space mapping on focal points
        // of different types into the same latent space").
        store.register_xavier(rng, &format!("map.{}.w", ty.name()), d, d);
    }
    for layer in 1..=config.hops {
        // Zoomer edge attention (eq. 8): a ∈ R^{3d}.
        store.register_xavier(rng, &format!("att.edge.l{layer}"), 3 * d, 1);
        // GAT attention (eq. 3): a ∈ R^{2d}.
        store.register_xavier(rng, &format!("att.gat.l{layer}"), 2 * d, 1);
        // FGNN gate.
        store.register_xavier(rng, &format!("gate.l{layer}"), 2 * d, 1);
        // Combine layer.
        store.register_xavier(rng, &format!("comb.l{layer}.w"), 2 * d, d);
        store.register_zeros(&format!("comb.l{layer}.b"), 1, d);
        // MCCF components.
        store.register_xavier(rng, &format!("mccf.c1.l{layer}"), d, d);
        store.register_xavier(rng, &format!("mccf.c2.l{layer}"), d, d);
    }
    // HAN semantic attention.
    store.register_xavier(rng, "han.w_sem", d, d);
    store.register_xavier(rng, "han.q", d, 1);
    // Twin tower.
    store.register_xavier(rng, "tower.uq.w", 2 * d, d);
    store.register_zeros("tower.uq.b", 1, d);
    store.register_xavier(rng, "tower.item.w", d, d);
    store.register_zeros("tower.item.b", 1, d);
}

/// Stateless encoder over borrowed parameters/tables.
pub struct Encoder<'a> {
    pub config: &'a ModelConfig,
    pub store: &'a ParamStore,
    pub tables: &'a mut TableSet,
    pub graph: &'a HeteroGraph,
}

/// The parents of one layer and their edges, ordered by (parent, child
/// type) as a `BTreeMap` over `NodeType` orders them, sampled order kept
/// within a type. `by_*` are segment offsets.
#[derive(Default)]
struct Layer {
    parent_node: Vec<NodeId>,
    /// Per parent: its row of `Z`.
    parent_z: Vec<usize>,
    /// Per edge: the child's row of `[Z ; the layer below's output]`.
    child: Vec<usize>,
    child_node: Vec<NodeId>,
    /// Per edge: its parent's index within the layer.
    parent: Vec<usize>,
    by_parent: Vec<usize>,
    /// Edge offsets per (parent, child type) group.
    by_group: Vec<usize>,
    groups_by_parent: Vec<usize>,
    group_parent: Vec<usize>,
}

/// ROI trees flattened level by level in one walk.
struct FlatRois {
    /// Distinct node ids, sorted: the rows of `Z`.
    nodes: Vec<NodeId>,
    /// `layers[ℓ − 1]` holds the occurrences whose remaining depth is `ℓ`.
    layers: Vec<Layer>,
    /// Per tree: its root's layer and row of `[Z ; that layer's output]`.
    roots: Vec<(usize, usize)>,
}

impl FlatRois {
    fn new(graph: &HeteroGraph, rois: &[&RoiNode]) -> Self {
        let mut nodes: Vec<NodeId> = rois.iter().flat_map(|r| r.node_ids()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let depth = rois.iter().map(|r| r.depth()).max().unwrap_or(0);
        let empty = || Layer {
            by_parent: vec![0],
            by_group: vec![0],
            groups_by_parent: vec![0],
            ..Default::default()
        };
        let layers = (0..depth).map(|_| empty()).collect();
        let mut flat = FlatRois { nodes, layers, roots: Vec::with_capacity(rois.len()) };
        for roi in rois {
            let row = flat.walk(graph, roi, roi.depth());
            flat.roots.push((roi.depth(), row));
        }
        flat
    }

    /// An occurrence with no children (or at remaining depth 0) outputs its
    /// `z_self`; any other is a parent at layer `depth`, so every layer up
    /// to the deepest root has a parent. Returns the occurrence's row of
    /// `[Z ; layer depth's output]`.
    fn walk(&mut self, graph: &HeteroGraph, node: &RoiNode, depth: usize) -> usize {
        let z = self.nodes.binary_search(&node.id).expect("nodes holds every tree id");
        if node.children.is_empty() || depth == 0 {
            return z;
        }
        let mut kids: Vec<(NodeType, NodeId, usize)> = node
            .children
            .iter()
            .map(|c| (graph.node_type(c.id), c.id, self.walk(graph, c, depth - 1)))
            .collect();
        kids.sort_by_key(|k| k.0);
        let l = &mut self.layers[depth - 1];
        let p = l.parent_z.len();
        l.parent_node.push(node.id);
        l.parent_z.push(z);
        for (k, &(ty, id, row)) in kids.iter().enumerate() {
            l.child.push(row);
            l.child_node.push(id);
            l.parent.push(p);
            if kids.get(k + 1).is_none_or(|next| next.0 != ty) {
                l.by_group.push(l.child.len());
                l.group_parent.push(p);
            }
        }
        l.by_parent.push(l.child.len());
        l.groups_by_parent.push(l.group_parent.len());
        self.nodes.len() + p
    }
}

/// `n×1` column of `1/len` per segment: the weights of a per-segment mean.
fn mean_weights(offsets: &[usize]) -> Matrix {
    let mut w = Vec::with_capacity(offsets.last().copied().unwrap_or(0));
    for s in offsets.windows(2) {
        w.extend(std::iter::repeat_n(1.0 / (s[1] - s[0]) as f32, s[1] - s[0]));
    }
    Matrix::from_vec(w.len(), 1, w)
}

/// Mean of `rows` within each segment.
fn mean_pool(ctx: &mut ForwardCtx, rows: Var, offsets: &[usize]) -> Var {
    let w = ctx.constant(mean_weights(offsets));
    ctx.tape.segment_sum(rows, w, offsets)
}

/// Softmax of `scores` within each segment, then the weighted sum of `rows`.
fn attend(ctx: &mut ForwardCtx, rows: Var, scores: Var, offsets: &[usize]) -> Var {
    let alpha = ctx.tape.segment_softmax(scores, offsets);
    ctx.tape.segment_sum(rows, alpha, offsets)
}

impl Encoder<'_> {
    /// Feature latent rows `H` (eq. 6 input) of `ids`: per node, one row
    /// per categorical field embedding, then one row projecting the dense
    /// content vector. Node `i` owns rows `offsets[i]..offsets[i + 1]`.
    /// Each (type, field) table is resolved once, and each node type's
    /// dense rows are one `matmul`.
    fn feature_block(&mut self, ctx: &mut ForwardCtx, ids: &[NodeId]) -> (Var, Vec<usize>) {
        let graph = self.graph;
        let mut offsets = vec![0];
        // Per node type: (first row of H, node).
        let mut by_type: [Vec<(usize, NodeId)>; NodeType::ALL.len()] = Default::default();
        for &n in ids {
            let row = offsets[offsets.len() - 1];
            by_type[graph.node_type(n).as_u8() as usize].push((row, n));
            offsets.push(row + graph.fields(n).len() + 1);
        }
        // `order[r]`: the stacked row that becomes row `r` of H.
        let mut order = vec![0; offsets[offsets.len() - 1]];
        let (mut blocks, mut stacked) = (Vec::new(), 0);
        for (ty, members) in NodeType::ALL.iter().zip(&by_type).filter(|(_, m)| !m.is_empty()) {
            let fields = members.iter().map(|&(_, n)| graph.fields(n).len()).max().unwrap_or(0);
            for f in 0..fields {
                let table = self.tables.get_or_create(*ty, f);
                for &(row, n) in members {
                    if let Some(&value) = graph.fields(n).get(f) {
                        order[row + f] = stacked;
                        stacked += 1;
                        blocks.push(ctx.embed(table, u64::from(value)));
                    }
                }
            }
            let mut content = Matrix::zeros(members.len(), self.config.dense_dim);
            for (k, &(row, n)) in members.iter().enumerate() {
                content.set_row(k, graph.dense_feature(n));
                order[row + graph.fields(n).len()] = stacked + k;
            }
            let content = ctx.constant(content);
            let w = ctx.param(self.store, &format!("feat.{}.w", ty.name()));
            blocks.push(ctx.tape.matmul(content, w));
            stacked += members.len();
        }
        let all = ctx.tape.concat_rows(&blocks);
        (ctx.tape.gather_rows(all, &order), offsets)
    }

    /// Self embeddings of `ids`, one row each: feature projection (eq.
    /// 6–7) when enabled and a focal vector `c` is given, the plain mean of
    /// the node's feature rows otherwise.
    pub fn self_embeddings(&mut self, ctx: &mut ForwardCtx, ids: &[NodeId], c: Option<Var>) -> Var {
        let (h, offsets) = self.feature_block(ctx, ids);
        let attention =
            self.config.feature_attention && self.config.aggregation == Aggregation::Zoomer;
        match c.filter(|_| attention) {
            // scores = H·Cᵀ/√d; the per-node softmax already normalizes
            // mass, so the weighted rows are summed, not averaged.
            Some(c) => {
                let ct = ctx.tape.transpose(c);
                let scores = ctx.tape.matmul(h, ct);
                let scores = ctx.tape.scale(scores, 1.0 / (self.config.embed_dim as f32).sqrt());
                attend(ctx, h, scores, &offsets)
            }
            None => mean_pool(ctx, h, &offsets),
        }
    }

    /// The focal vector `C` (§V-A): per focal point, mean its feature rows,
    /// space-map per type, then sum.
    pub fn focal_vector(&mut self, ctx: &mut ForwardCtx, focal_nodes: &[NodeId]) -> Var {
        assert!(!focal_nodes.is_empty(), "focal vector needs at least one node");
        let means = self.self_embeddings(ctx, focal_nodes, None);
        let mut acc: Option<Var> = None;
        for (i, &f) in focal_nodes.iter().enumerate() {
            let mean = ctx.tape.gather_rows(means, &[i]);
            let w = ctx.param(self.store, &format!("map.{}.w", self.graph.node_type(f).name()));
            let mapped = ctx.tape.matmul(mean, w);
            acc = Some(acc.map_or(mapped, |a| ctx.tape.add(a, mapped)));
        }
        acc.expect("at least one focal node")
    }

    /// Pairwise attention logits, one per row: `leaky_relu([p ‖ x]·a)`, with
    /// the focal vector `c` appended to every row (eq. 8) when it is given.
    pub fn pair_scores(
        &mut self,
        ctx: &mut ForwardCtx,
        p: Var,
        x: Var,
        c: Option<Var>,
        a: &str,
    ) -> Var {
        let a = ctx.param(self.store, a);
        let mut input = ctx.tape.concat_cols(p, x);
        if let Some(c) = c {
            let c = ctx.tape.gather_rows(c, &vec![0; ctx.tape.value(x).rows()]);
            input = ctx.tape.concat_cols(input, c);
        }
        let s = ctx.tape.matmul(input, a);
        ctx.tape.leaky_relu(s)
    }

    /// Encode ROI trees bottom-up under the focal vector `c`, one pass per
    /// layer over the parents of every tree. Returns each root's embedding
    /// (1×d), in `rois` order.
    pub fn encode_rois(
        &mut self,
        ctx: &mut ForwardCtx,
        rois: &[&RoiNode],
        c: Option<Var>,
    ) -> Vec<Var> {
        let flat = FlatRois::new(self.graph, rois);
        let z = self.self_embeddings(ctx, &flat.nodes, c);
        let mut outputs: Vec<Var> = Vec::with_capacity(flat.layers.len());
        for (i, l) in flat.layers.iter().enumerate() {
            let src = outputs.last().map_or(z, |&below| ctx.tape.concat_rows(&[z, below]));
            let x = ctx.tape.gather_rows(src, &l.child);
            let pz = ctx.tape.gather_rows(z, &l.parent_z);
            let agg = self.aggregate(ctx, i + 1, l, pz, x, c);
            // Combine: tanh(W·[z_self ‖ h_agg] + b).
            let w = ctx.param(self.store, &format!("comb.l{}.w", i + 1));
            let b = ctx.param(self.store, &format!("comb.l{}.b", i + 1));
            let cat = ctx.tape.concat_cols(pz, agg);
            let lin = ctx.tape.linear(cat, w, b);
            outputs.push(ctx.tape.tanh(lin));
        }
        let n = flat.nodes.len();
        let root = |&(layer, row): &(usize, usize)| match row.checked_sub(n) {
            Some(p) => (outputs[layer - 1], p),
            None => (z, row),
        };
        flat.roots.iter().map(root).map(|(src, r)| ctx.tape.gather_rows(src, &[r])).collect()
    }

    /// Aggregate the children of every parent of `layer` per the configured
    /// flavor, one row per parent. `pz` holds the parents' self embeddings
    /// and `x` the children's outputs, edge-ordered.
    fn aggregate(
        &mut self,
        ctx: &mut ForwardCtx,
        layer: usize,
        l: &Layer,
        pz: Var,
        x: Var,
        c: Option<Var>,
    ) -> Var {
        let (d, by_parent) = (self.config.embed_dim, &l.by_parent);
        let han = match self.config.aggregation {
            Aggregation::Mean => return mean_pool(ctx, x, by_parent),
            Aggregation::WeightedMean => {
                let w = ctx.constant(self.edge_weights(l));
                return ctx.tape.segment_sum(x, w, by_parent);
            }
            Aggregation::Gat => {
                let pe = ctx.tape.gather_rows(pz, &l.parent);
                let s = self.pair_scores(ctx, pe, x, None, &format!("att.gat.l{layer}"));
                return attend(ctx, x, s, by_parent);
            }
            // STAMP / GCE-GNN: attention anchored purely on the focal
            // (query) vector; mean pooling without one.
            Aggregation::QueryAnchored => {
                let Some(c) = c else { return mean_pool(ctx, x, by_parent) };
                let ct = ctx.tape.transpose(c);
                let s = ctx.tape.matmul(x, ct);
                let s = ctx.tape.scale(s, 1.0 / (d as f32).sqrt());
                return attend(ctx, x, s, by_parent);
            }
            // FGNN: the children's mean, each scaled by sigmoid([z_i ‖ z_j]·w).
            Aggregation::Gated => {
                let pe = ctx.tape.gather_rows(pz, &l.parent);
                let w = ctx.param(self.store, &format!("gate.l{layer}"));
                let cat = ctx.tape.concat_cols(pe, x);
                let g = ctx.tape.matmul(cat, w);
                let g = ctx.tape.sigmoid(g);
                let inv_len = ctx.constant(mean_weights(by_parent));
                let g = ctx.tape.hadamard(g, inv_len);
                return ctx.tape.segment_sum(x, g, by_parent);
            }
            // MCCF: each component projects the ego, scores children by dot
            // product and pools; the components average.
            Aggregation::MultiComponent => {
                let ones = ctx.constant(Matrix::full(d, 1, 1.0));
                let mut acc: Option<Var> = None;
                for comp in ["c1", "c2"] {
                    let w = ctx.param(self.store, &format!("mccf.{comp}.l{layer}"));
                    let anchor = ctx.tape.matmul(pz, w);
                    let anchor = ctx.tape.gather_rows(anchor, &l.parent);
                    let prod = ctx.tape.hadamard(x, anchor);
                    let s = ctx.tape.matmul(prod, ones);
                    let pooled = attend(ctx, x, s, by_parent);
                    let t = ctx.tape.tanh(pooled);
                    acc = Some(acc.map_or(t, |a| ctx.tape.add(a, t)));
                }
                return ctx.tape.scale(acc.expect("two components"), 0.5);
            }
            Aggregation::Han => true,
            Aggregation::Zoomer => false,
        };
        // HAN and Zoomer: one summary E_k per (parent, child type), by GAT
        // (HAN) or edge reweighing (Zoomer, eq. 8–9) within the type, then a
        // combination over the parent's types: HAN's learned semantic
        // attention s_k = qᵀ tanh(W_sem · E_k), or Zoomer's semantic
        // combination H = Σ E_k · cos(z_i, E_k) (eq. 10–11). Zoomer's levels
        // fall back to mean pooling when their flags are off (§VII-C). A
        // parent with one child type passes its summary through unweighted.
        let types = if han || self.config.edge_attention {
            let pe = ctx.tape.gather_rows(pz, &l.parent);
            let (att, c) = if han { ("att.gat", None) } else { ("att.edge", c) };
            let s = self.pair_scores(ctx, pe, x, c, &format!("{att}.l{layer}"));
            attend(ctx, x, s, &l.by_group)
        } else {
            mean_pool(ctx, x, &l.by_group)
        };
        let groups = &l.groups_by_parent;
        let multi: Vec<f32> = l
            .group_parent
            .iter()
            .map(|&p| if groups[p + 1] - groups[p] > 1 { 1.0 } else { 0.0 })
            .collect();
        if multi.iter().all(|&m| m < 0.5) {
            return types;
        }
        if han {
            let w_sem = ctx.param(self.store, "han.w_sem");
            let q = ctx.param(self.store, "han.q");
            let proj = ctx.tape.matmul(types, w_sem);
            let proj = ctx.tape.tanh(proj);
            let s = ctx.tape.matmul(proj, q);
            return attend(ctx, types, s, groups);
        }
        if !self.config.semantic_attention {
            return mean_pool(ctx, types, groups);
        }
        // Weights t·multi + (1 − multi): a single type's weight is exactly 1.
        let rest = Matrix::from_vec(multi.len(), 1, multi.iter().map(|m| 1.0 - m).collect());
        let multi = ctx.constant(Matrix::from_vec(multi.len(), 1, multi));
        let rest = ctx.constant(rest);
        let pg = ctx.tape.gather_rows(pz, &l.group_parent);
        let t = ctx.tape.cosine(pg, types);
        let t = ctx.tape.hadamard(t, multi);
        let t = ctx.tape.add(t, rest);
        ctx.tape.segment_sum(types, t, groups)
    }

    /// PinSage-style importance pooling weights, edge-ordered: total edge
    /// weight between parent and child in the graph (a visit-count proxy),
    /// normalized per parent.
    fn edge_weights(&self, l: &Layer) -> Matrix {
        let mut w = Vec::with_capacity(l.child.len());
        for (&parent, seg) in l.parent_node.iter().zip(l.by_parent.windows(2)) {
            let neighbors = zoomer_sampler::all_neighbors(self.graph, parent);
            let start = w.len();
            for &child in &l.child_node[seg[0]..seg[1]] {
                let weight: f32 = neighbors.iter().filter(|n| n.0 == child).map(|n| n.2).sum();
                // Walk-reached nodes may not be direct neighbors.
                w.push(weight.max(0.1));
            }
            let total: f32 = w[start..].iter().sum();
            w[start..].iter_mut().for_each(|x| *x /= total);
        }
        Matrix::from_vec(w.len(), 1, w)
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_graph::GraphBuilder;
    use zoomer_tensor::seeded_rng;

    fn graph() -> HeteroGraph {
        let mut b = GraphBuilder::new(4);
        let u = b.add_node(NodeType::User, vec![1, 0, 2], vec![], &[1.0, 0.0, 0.0, 0.0]);
        let q = b.add_node(NodeType::Query, vec![3, 9], vec![], &[0.0, 1.0, 0.0, 0.0]);
        let i1 = b.add_node(NodeType::Item, vec![4, 3, 1, 2, 9], vec![], &[0.0, 0.0, 1.0, 0.0]);
        let i2 = b.add_node(NodeType::Item, vec![5, 3, 2, 2, 9], vec![], &[0.0, 0.0, 0.0, 1.0]);
        b.add_search_session(u, q, &[i1, i2]);
        b.finish()
    }

    fn setup(aggregation: Aggregation) -> (ModelConfig, ParamStore, TableSet) {
        let mut config = ModelConfig::zoomer(3, 4);
        config.aggregation = aggregation;
        let mut rng = seeded_rng(3);
        let mut store = ParamStore::new();
        register_params(&config, &mut rng, &mut store);
        let tables = TableSet::new(config.embed_dim, 3, SparseAdamConfig::default());
        (config, store, tables)
    }

    fn roi_two_hop() -> RoiNode {
        RoiNode {
            id: 1, // query
            children: vec![
                RoiNode { id: 2, children: vec![RoiNode { id: 3, children: vec![] }] },
                RoiNode { id: 0, children: vec![] },
            ],
        }
    }

    #[test]
    fn feature_block_has_field_plus_dense_rows_per_node() {
        let g = graph();
        let (config, store, mut tables) = setup(Aggregation::Zoomer);
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        // Item: 5 fields + dense; user: 3 fields + dense.
        let (h, offsets) = enc.feature_block(&mut ctx, &[2, 0]);
        assert_eq!(offsets, vec![0, 6, 10]);
        assert_eq!(ctx.tape.value(h).shape(), (10, config.embed_dim));
        // Row order within a node: fields in order, then the dense row.
        let first = tables.get_or_create(NodeType::Item, 0).lookup(4).to_vec();
        assert_eq!(ctx.tape.value(h).row(0), first.as_slice());
        let user_f2 = tables.get_or_create(NodeType::User, 2).lookup(2).to_vec();
        assert_eq!(ctx.tape.value(h).row(8), user_f2.as_slice());
    }

    #[test]
    fn focal_vector_shape_and_grad_flow() {
        let g = graph();
        let (config, store, mut tables) = setup(Aggregation::Zoomer);
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        let c = enc.focal_vector(&mut ctx, &[0, 1]);
        assert_eq!(ctx.tape.value(c).shape(), (1, config.embed_dim));
        let loss = ctx.tape.sum_all(c);
        let loss = ctx.tape.hadamard(loss, loss);
        let grads = ctx.tape.backward(loss);
        // Focal embeddings and both space maps must receive gradient.
        let dense = ctx.dense_gradients(&grads);
        assert!(dense.contains_key("map.user.w"));
        assert!(dense.contains_key("map.query.w"));
        let sparse = ctx.sparse_gradients(&grads);
        assert!(!sparse.is_empty());
    }

    #[test]
    fn all_aggregations_encode_a_two_hop_roi() {
        let g = graph();
        for agg in [
            Aggregation::Zoomer,
            Aggregation::Mean,
            Aggregation::Gat,
            Aggregation::Han,
            Aggregation::WeightedMean,
            Aggregation::QueryAnchored,
            Aggregation::Gated,
            Aggregation::MultiComponent,
        ] {
            let (config, store, mut tables) = setup(agg);
            let mut enc =
                Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
            let mut ctx = ForwardCtx::new();
            let focal = enc.focal_vector(&mut ctx, &[0, 1]);
            let roi = roi_two_hop();
            let emb = enc.encode_rois(&mut ctx, &[&roi], Some(focal))[0];
            let val = ctx.tape.value(emb);
            assert_eq!(val.shape(), (1, config.embed_dim), "{agg:?}");
            assert!(!val.has_non_finite(), "{agg:?} produced non-finite values");
            // Must be differentiable end to end.
            let s = ctx.tape.sum_all(emb);
            let loss = ctx.tape.hadamard(s, s);
            let grads = ctx.tape.backward(loss);
            assert!(!ctx.dense_gradients(&grads).is_empty(), "{agg:?}");
        }
    }

    #[test]
    fn leaf_roi_is_self_embedding_only() {
        let g = graph();
        let (config, store, mut tables) = setup(Aggregation::Zoomer);
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        let leaf = RoiNode { id: 2, children: vec![] };
        let emb = enc.encode_rois(&mut ctx, &[&leaf], None)[0];
        let z = enc.self_embeddings(&mut ctx, &[2], None);
        assert_eq!(ctx.tape.value(emb), ctx.tape.value(z));
    }

    #[test]
    fn flattening_dedups_nodes_and_layers_by_remaining_depth() {
        // Root 1 (depth 2) → {2 → {3}, 0}; a second tree 2 → {1, 3}.
        let leaf = |id| RoiNode { id, children: vec![] };
        let second = RoiNode { id: 2, children: vec![leaf(1), leaf(3)] };
        let g = graph();
        let flat = FlatRois::new(&g, &[&roi_two_hop(), &second]);
        assert_eq!(flat.nodes, vec![0, 1, 2, 3]);
        // Layer 1: node 2 under the first root, then the second root.
        assert_eq!(flat.layers[0].parent_node, vec![2, 2]);
        assert_eq!(flat.layers[1].parent_node, vec![1]);
        // Roots read rows n + p of their layer's `[Z ; output]`.
        assert_eq!(flat.roots, vec![(2, 4), (1, 5)]);
        // Layer 2's edges by child type: user 0 (row 0 of Z) before item 2
        // (layer 1's parent 0, row 4).
        let top = &flat.layers[1];
        assert_eq!(top.child, vec![0, 4]);
        assert_eq!(top.by_group, vec![0, 1, 2]);
        assert_eq!(top.groups_by_parent, vec![0, 2]);
    }

    #[test]
    fn feature_attention_changes_embedding_with_focal() {
        // With feature attention on, different focal points must induce
        // different self embeddings for the same ego node — the paper's core
        // multi-embedding claim (Fig 2).
        let g = graph();
        let (config, store, mut tables) = setup(Aggregation::Zoomer);
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        let focal_a = enc.focal_vector(&mut ctx, &[0]); // user focal
        let focal_b = enc.focal_vector(&mut ctx, &[1]); // query focal
        let za = enc.self_embeddings(&mut ctx, &[2], Some(focal_a));
        let zb = enc.self_embeddings(&mut ctx, &[2], Some(focal_b));
        let diff = ctx.tape.value(za).max_abs_diff(ctx.tape.value(zb));
        assert!(diff > 1e-6, "embeddings identical across focals");
    }

    #[test]
    fn without_feature_attention_embedding_is_focal_independent() {
        let g = graph();
        let (mut config, store, mut tables) = setup(Aggregation::Zoomer);
        config.feature_attention = false;
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        let focal_a = enc.focal_vector(&mut ctx, &[0]);
        let focal_b = enc.focal_vector(&mut ctx, &[1]);
        let za = enc.self_embeddings(&mut ctx, &[2], Some(focal_a));
        let zb = enc.self_embeddings(&mut ctx, &[2], Some(focal_b));
        assert!(ctx.tape.value(za).max_abs_diff(ctx.tape.value(zb)) < 1e-7);
    }

    #[test]
    fn table_set_namespaces_by_type_and_field() {
        let mut ts = TableSet::new(4, 1, SparseAdamConfig::default());
        let a = ts.get_or_create(NodeType::User, 0).lookup(5).to_vec();
        let b = ts.get_or_create(NodeType::Item, 0).lookup(5).to_vec();
        let c = ts.get_or_create(NodeType::User, 1).lookup(5).to_vec();
        assert_ne!(a, b, "same id in different type tables must differ");
        assert_ne!(a, c, "same id in different field tables must differ");
        assert_eq!(ts.total_rows(), 3);
    }

    #[test]
    fn semantic_off_mean_pools_the_per_type_summaries() {
        // A query parent with two item children and one user child: with
        // edge and semantic attention off, its aggregate is the mean of the
        // item mean and the user row.
        let g = graph();
        let (mut config, store, mut tables) = setup(Aggregation::Zoomer);
        config.edge_attention = false;
        config.semantic_attention = false;
        let mut enc = Encoder { config: &config, store: &store, tables: &mut tables, graph: &g };
        let mut ctx = ForwardCtx::new();
        let focal = enc.focal_vector(&mut ctx, &[0, 1]);
        let leaf = |id| RoiNode { id, children: vec![] };
        let roi = RoiNode { id: 1, children: vec![leaf(2), leaf(3), leaf(0)] };
        let flat = FlatRois::new(&g, &[&roi]);
        let layer = &flat.layers[0];
        let z = enc.self_embeddings(&mut ctx, &flat.nodes, Some(focal));
        let pz = ctx.tape.gather_rows(z, &layer.parent_z);
        let x = ctx.tape.gather_rows(z, &layer.child);
        let agg = enc.aggregate(&mut ctx, 1, layer, pz, x, Some(focal));
        let zv = ctx.tape.value(z);
        let (user, item2, item3) = (zv.row(0), zv.row(2), zv.row(3));
        for (k, &got) in ctx.tape.value(agg).row(0).iter().enumerate() {
            let want = 0.5 * (user[k] + 0.5 * (item2[k] + item3[k]));
            assert!((got - want).abs() < 1e-6, "column {k}: {got} vs {want}");
        }
    }
}
