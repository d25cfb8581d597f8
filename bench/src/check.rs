//! The output check applied to every reply, and the tally it feeds.
//!
//! A row counts as failed when its frame hit a wire error or came back as an
//! error frame, when it was shed or rejected, or when its item list is not
//! `top_k` distinct ids from the item pool. Failed rows stay in the
//! denominator: they were attempted.

use zoomer_graph::{NodeId, Query};
use zoomer_serving::{ResponseRow, ResponseStatus, WireError};

/// Row counts of one or more phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Ok rows answered off the degraded ladder.
    pub degraded: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.degraded += other.degraded;
    }

    /// Rows that were never sent still count as attempted and failed.
    pub fn fail_unsent(&mut self, rows: u64) {
        self.attempted += rows;
        self.failed += rows;
    }
}

/// Checks reply rows against the item pool. Distinctness uses one stamp per
/// node id instead of a set per row, so the check costs ~`top_k` writes and
/// no allocation — it runs on the load generator's threads, beside the
/// server, on every row.
pub struct RowChecker {
    stamp: Vec<u32>,
    epoch: u32,
    first_item: NodeId,
    expected_len: usize,
}

impl RowChecker {
    /// `items` is the contiguous id range `[first_item, num_nodes)`;
    /// `expected_len` is `min(top_k, pool size)`.
    pub fn new(first_item: NodeId, num_nodes: usize, expected_len: usize) -> Self {
        Self { stamp: vec![0; num_nodes], epoch: 0, first_item, expected_len }
    }

    fn row_ok(&mut self, row: &ResponseRow) -> bool {
        if row.status != ResponseStatus::Ok || row.retrieval.items.len() != self.expected_len {
            return false;
        }
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        for &item in &row.retrieval.items {
            match self.stamp.get_mut(item as usize) {
                Some(slot) if item >= self.first_item && *slot != self.epoch => *slot = self.epoch,
                _ => return false,
            }
        }
        true
    }

    /// Check one frame's reply and add its rows to `tally`.
    pub fn check(
        &mut self,
        sent: &[Query],
        reply: &Result<Vec<ResponseRow>, WireError>,
        tally: &mut Tally,
    ) {
        tally.attempted += sent.len() as u64;
        match reply {
            Ok(rows) if rows.len() == sent.len() => {
                for row in rows {
                    if self.row_ok(row) {
                        tally.ok += 1;
                        tally.degraded += u64::from(row.retrieval.degraded);
                    } else {
                        tally.failed += 1;
                    }
                }
            }
            // A wire error, an error frame, or a reply of the wrong length
            // fails every row of the frame.
            _ => tally.failed += sent.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_graph::Retrieval;

    fn ok_row(items: Vec<NodeId>) -> ResponseRow {
        ResponseRow { status: ResponseStatus::Ok, retrieval: Retrieval::new(items) }
    }

    fn queries(n: usize) -> Vec<Query> {
        (0..n as u32).map(|i| Query::new(i, i)).collect()
    }

    #[test]
    fn shed_row_and_error_frame_fail_without_leaving_the_denominator() {
        // Pool = ids 10..20, three items per row.
        let mut checker = RowChecker::new(10, 20, 3);
        let mut tally = Tally::default();
        let shed = ResponseRow {
            status: ResponseStatus::Shed,
            retrieval: Retrieval { items: vec![], degraded: true },
        };
        checker.check(&queries(2), &Ok(vec![ok_row(vec![10, 11, 12]), shed]), &mut tally);
        // What the front door answers to an out-of-range node id.
        let remote = Err(WireError::Remote("node 999 out of range".into()));
        checker.check(&queries(4), &remote, &mut tally);
        assert_eq!(tally, Tally { attempted: 6, ok: 1, failed: 5, degraded: 0 });
    }

    #[test]
    fn malformed_rows_fail() {
        let mut checker = RowChecker::new(10, 20, 3);
        let mut tally = Tally::default();
        let rows = vec![
            ok_row(vec![10, 11, 11]), // duplicate
            ok_row(vec![10, 11]),     // short
            ok_row(vec![9, 10, 11]),  // below the pool
            ok_row(vec![10, 11, 20]), // past the graph
            ok_row(vec![12, 11, 10]), // fine; stamps from earlier rows must not leak
        ];
        checker.check(&queries(5), &Ok(rows), &mut tally);
        assert_eq!(tally, Tally { attempted: 5, ok: 1, failed: 4, degraded: 0 });
        // A reply with the wrong row count fails the whole frame.
        checker.check(&queries(2), &Ok(vec![ok_row(vec![10, 11, 12])]), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (7, 6));
    }

    #[test]
    fn degraded_rows_are_ok_but_counted() {
        let mut checker = RowChecker::new(0, 5, 2);
        let mut tally = Tally::default();
        let row = ResponseRow {
            status: ResponseStatus::Ok,
            retrieval: Retrieval { items: vec![1, 2], degraded: true },
        };
        checker.check(&queries(1), &Ok(vec![row]), &mut tally);
        assert_eq!(tally, Tally { attempted: 1, ok: 1, failed: 0, degraded: 1 });
    }
}
