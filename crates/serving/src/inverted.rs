//! Per-query retrieval postings: the fallback rung's data source.
//!
//! §VII-E stores the offline rankings as inverted indexes in the iGraph
//! engine. Here each rank shard keeps the layer a request can reach: every
//! query's posting — the items of that shard's partition ranked for the
//! query by the trained model at build time. A batch whose budget runs out
//! before its ANN probe answers from these postings alone.

use std::collections::HashMap;

use zoomer_graph::NodeId;

/// Query → ranked items.
#[derive(Default)]
pub struct InvertedIndex {
    query_postings: HashMap<NodeId, Vec<NodeId>>,
}

impl InvertedIndex {
    /// Install the ranked item posting for a query.
    pub fn set_posting(&mut self, query: NodeId, ranked_items: Vec<NodeId>) {
        self.query_postings.insert(query, ranked_items);
    }

    /// Posting for a query, if installed.
    pub fn posting(&self, query: NodeId) -> Option<&[NodeId]> {
        self.query_postings.get(&query).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postings_are_installed_per_query() {
        let mut idx = InvertedIndex::default();
        assert!(idx.posting(2).is_none());
        idx.set_posting(2, vec![8, 3]);
        idx.set_posting(0, vec![4]);
        idx.set_posting(2, vec![5]);
        assert_eq!(idx.posting(2), Some(&[5][..]), "a re-installed posting replaces the old one");
        assert_eq!(idx.posting(0), Some(&[4][..]));
    }
}
