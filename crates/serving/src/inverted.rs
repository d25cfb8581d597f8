//! Two-layer inverted index for term-based retrieval.
//!
//! §VII-E: "In the online serving stage, the two-layer inverted indexes are
//! stored in igraph engine." The first layer maps title terms to the queries
//! containing them; the second maps each query to its retrieval posting —
//! the items ranked for that query by the trained model. A request that
//! misses the dense ANN path (e.g. a brand-new user) can still retrieve by
//! posting-list lookup, and warm queries get precomputed slates.

use std::collections::HashMap;
use std::sync::Arc;

use zoomer_graph::{HeteroGraph, NodeId, NodeType};

/// Term → queries, query → ranked items.
pub struct InvertedIndex {
    /// First layer. Depends on the graph alone, so the shards of one serving
    /// tier share a single copy ([`InvertedIndex::sharing_terms`]).
    term_to_queries: Arc<HashMap<u32, Vec<NodeId>>>,
    query_postings: HashMap<NodeId, Vec<NodeId>>,
}

impl InvertedIndex {
    /// Build the first layer from the graph's query term sets; postings are
    /// filled by [`InvertedIndex::set_posting`] (typically from the trained
    /// model's per-query rankings).
    pub fn new(graph: &HeteroGraph) -> Self {
        let mut term_to_queries: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for q in graph.nodes_of_type(NodeType::Query) {
            for &t in graph.features().terms(q) {
                term_to_queries.entry(t).or_default().push(q);
            }
        }
        Self { term_to_queries: Arc::new(term_to_queries), query_postings: HashMap::new() }
    }

    /// An index over the *same* first layer with no postings installed: how
    /// each item-pool shard gets its own posting partition without
    /// re-deriving (or re-storing) the term layer from the graph.
    pub fn sharing_terms(&self) -> Self {
        Self { term_to_queries: Arc::clone(&self.term_to_queries), query_postings: HashMap::new() }
    }

    /// Install the ranked item posting for a query (second layer).
    pub fn set_posting(&mut self, query: NodeId, ranked_items: Vec<NodeId>) {
        self.query_postings.insert(query, ranked_items);
    }

    /// Queries containing a term (first layer).
    pub fn queries_for_term(&self, term: u32) -> &[NodeId] {
        self.term_to_queries.get(&term).map_or(&[], Vec::as_slice)
    }

    /// Posting for a query (second layer), if installed.
    pub fn posting(&self, query: NodeId) -> Option<&[NodeId]> {
        self.query_postings.get(&query).map(Vec::as_slice)
    }

    /// Term-based retrieval: look up the queries matching the request terms,
    /// then merge their postings by round-robin interleaving (preserving
    /// per-posting rank), deduplicated, up to `k` items.
    pub fn retrieve_by_terms(&self, terms: &[u32], k: usize) -> Vec<NodeId> {
        let mut postings: Vec<&[NodeId]> = Vec::new();
        let mut seen_queries = std::collections::HashSet::new();
        for &t in terms {
            for &q in self.queries_for_term(t) {
                if seen_queries.insert(q) {
                    if let Some(p) = self.posting(q) {
                        postings.push(p);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(k);
        let mut seen_items = std::collections::HashSet::new();
        let max_len = postings.iter().map(|p| p.len()).max().unwrap_or(0);
        'outer: for rank in 0..max_len {
            for p in &postings {
                if let Some(&item) = p.get(rank) {
                    if seen_items.insert(item) {
                        out.push(item);
                        if out.len() >= k {
                            break 'outer;
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of indexed terms / postings.
    pub fn num_terms(&self) -> usize {
        self.term_to_queries.len()
    }

    pub fn num_postings(&self) -> usize {
        self.query_postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_graph::GraphBuilder;

    fn graph() -> HeteroGraph {
        let mut b = GraphBuilder::new(1);
        // Two queries sharing term 7; one query with unique term 9.
        b.add_node(NodeType::Query, vec![], vec![7, 8], &[0.0]); // q0
        b.add_node(NodeType::Query, vec![], vec![7], &[0.0]); // q1
        b.add_node(NodeType::Query, vec![], vec![9], &[0.0]); // q2
        for _ in 0..6 {
            b.add_node(NodeType::Item, vec![], vec![], &[0.0]);
        }
        b.finish()
    }

    #[test]
    fn first_layer_maps_terms_to_queries() {
        let idx = InvertedIndex::new(&graph());
        assert_eq!(idx.queries_for_term(7), &[0, 1]);
        assert_eq!(idx.queries_for_term(8), &[0]);
        assert_eq!(idx.queries_for_term(9), &[2]);
        assert!(idx.queries_for_term(99).is_empty());
        assert_eq!(idx.num_terms(), 3);
    }

    #[test]
    fn retrieval_interleaves_postings_by_rank() {
        let mut idx = InvertedIndex::new(&graph());
        idx.set_posting(0, vec![3, 4, 5]);
        idx.set_posting(1, vec![6, 7]);
        // Term 7 matches q0 and q1 → round-robin: 3, 6, 4, 7, 5.
        let got = idx.retrieve_by_terms(&[7], 10);
        assert_eq!(got, vec![3, 6, 4, 7, 5]);
    }

    #[test]
    fn retrieval_dedups_and_caps_k() {
        let mut idx = InvertedIndex::new(&graph());
        idx.set_posting(0, vec![3, 4]);
        idx.set_posting(1, vec![3, 5]); // shares item 3
        let got = idx.retrieve_by_terms(&[7], 3);
        assert_eq!(got.len(), 3);
        let unique: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(unique.len(), 3);
        assert!(got.contains(&3) && got.contains(&4) && got.contains(&5));
    }

    #[test]
    fn unknown_terms_or_missing_postings_yield_empty() {
        let mut idx = InvertedIndex::new(&graph());
        assert!(idx.retrieve_by_terms(&[42], 5).is_empty());
        // q2 matched but has no posting installed.
        assert!(idx.retrieve_by_terms(&[9], 5).is_empty());
        idx.set_posting(2, vec![8]);
        assert_eq!(idx.retrieve_by_terms(&[9], 5), vec![8]);
        assert_eq!(idx.num_postings(), 1);
    }
}
