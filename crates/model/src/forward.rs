//! Per-example forward context: a tape plus the bookkeeping that maps tape
//! leaves back to named dense parameters and embedding-table rows, so the
//! trainer can route gradients after the backward sweep.

use std::collections::HashMap;

use zoomer_autograd::{EmbeddingTable, Gradients, ParamStore, Tape, Var};
use zoomer_tensor::Matrix;

/// Tape + parameter-use bookkeeping for one example.
pub struct ForwardCtx {
    pub tape: Tape,
    /// Dense parameter name → the single leaf var holding it on this tape.
    dense_uses: HashMap<String, Var>,
    /// Table name → row id → leaf var.
    embed_uses: HashMap<String, HashMap<u64, Var>>,
}

impl Default for ForwardCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl ForwardCtx {
    pub fn new() -> Self {
        Self { tape: Tape::new(), dense_uses: HashMap::new(), embed_uses: HashMap::new() }
    }

    /// Leaf a dense parameter onto the tape (deduplicated per name, so a
    /// parameter used many times accumulates all its gradient on one leaf).
    pub fn param(&mut self, store: &ParamStore, name: &str) -> Var {
        if let Some(&v) = self.dense_uses.get(name) {
            return v;
        }
        let v = self.tape.leaf(store.get(name).clone());
        self.dense_uses.insert(name.to_string(), v);
        v
    }

    /// Leaf an embedding row onto the tape (deduplicated per (table, id)).
    /// The table name is copied once per table, not once per lookup.
    pub fn embed(&mut self, table: &mut EmbeddingTable, id: u64) -> Var {
        if !self.embed_uses.contains_key(table.name()) {
            self.embed_uses.insert(table.name().to_string(), HashMap::new());
        }
        let rows = self.embed_uses.get_mut(table.name()).expect("inserted above");
        *rows.entry(id).or_insert_with(|| self.tape.leaf(table.lookup_matrix(id)))
    }

    /// Leaf a constant (no gradient routing).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.tape.leaf(m)
    }

    /// Dense gradients by parameter name (only names that received gradient).
    pub fn dense_gradients(&self, grads: &Gradients) -> HashMap<String, Matrix> {
        self.dense_uses
            .iter()
            .filter_map(|(name, &v)| grads.get(v).map(|g| (name.clone(), g.clone())))
            .collect()
    }

    /// Sparse gradients grouped by table name → (row id → gradient row).
    pub fn sparse_gradients(&self, grads: &Gradients) -> HashMap<String, HashMap<u64, Vec<f32>>> {
        let mut out: HashMap<String, HashMap<u64, Vec<f32>>> = HashMap::new();
        for (table, rows) in &self.embed_uses {
            let touched: HashMap<u64, Vec<f32>> = rows
                .iter()
                .filter_map(|(&id, &v)| grads.get(v).map(|g| (id, g.as_slice().to_vec())))
                .collect();
            if !touched.is_empty() {
                out.insert(table.clone(), touched);
            }
        }
        out
    }

    /// Number of distinct dense parameters touched.
    pub fn num_dense_uses(&self) -> usize {
        self.dense_uses.len()
    }

    /// Number of distinct embedding rows touched.
    pub fn num_embed_uses(&self) -> usize {
        self.embed_uses.values().map(HashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_autograd::embedding::SparseAdamConfig;

    #[test]
    fn param_leaves_are_deduplicated() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::full(1, 2, 1.0));
        let mut ctx = ForwardCtx::new();
        let a = ctx.param(&store, "w");
        let b = ctx.param(&store, "w");
        assert_eq!(a, b);
        assert_eq!(ctx.num_dense_uses(), 1);
    }

    #[test]
    fn embed_leaves_are_deduplicated_per_id() {
        let mut t = EmbeddingTable::new("e", 4, 1, SparseAdamConfig::default());
        let mut ctx = ForwardCtx::new();
        let a = ctx.embed(&mut t, 5);
        let b = ctx.embed(&mut t, 5);
        let c = ctx.embed(&mut t, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ctx.num_embed_uses(), 2);
    }

    #[test]
    fn gradient_routing_by_name_and_id() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::full(1, 2, 2.0));
        let mut t = EmbeddingTable::new("e", 2, 1, SparseAdamConfig::default());
        let mut ctx = ForwardCtx::new();
        let w = ctx.param(&store, "w");
        let e = ctx.embed(&mut t, 9);
        // loss = sum(w ⊙ e): dL/dw = e, dL/de = w.
        let prod = ctx.tape.hadamard(w, e);
        let loss = ctx.tape.sum_all(prod);
        let grads = ctx.tape.backward(loss);
        let dense = ctx.dense_gradients(&grads);
        assert_eq!(dense.len(), 1);
        assert_eq!(dense["w"].as_slice(), t.lookup(9));
        let sparse = ctx.sparse_gradients(&grads);
        assert_eq!(sparse["e"][&9], vec![2.0, 2.0]);
    }

    #[test]
    fn unused_params_receive_no_gradient() {
        let mut store = ParamStore::new();
        store.register("used", Matrix::full(1, 1, 1.0));
        store.register("unused", Matrix::full(1, 1, 1.0));
        let mut ctx = ForwardCtx::new();
        let u = ctx.param(&store, "used");
        let _ = ctx.param(&store, "unused");
        let loss = ctx.tape.sum_all(u);
        let grads = ctx.tape.backward(loss);
        let dense = ctx.dense_gradients(&grads);
        assert!(dense.contains_key("used"));
        assert!(!dense.contains_key("unused"));
    }
}
