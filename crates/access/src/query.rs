//! Preference queries: the end-to-end fielded-search flow.
//!
//! A [`PreferenceQuery`] lists the user's per-attribute preferences
//! (each an [`OrderSpec`]), plans one partial ranking per attribute, and
//! aggregates them with MEDRANK — reading, in the sorted-access model, as
//! few records per index as the instance allows.

use crate::db::{OrderSpec, Table};
use crate::error::AccessError;
use crate::medrank::{medrank_top_k, MedrankResult};
use crate::model::AccessStats;
use bucketrank_core::{BucketOrder, ElementId};

/// A multi-attribute preference query over a [`Table`].
#[derive(Debug, Clone)]
pub struct PreferenceQuery {
    specs: Vec<OrderSpec>,
    k: usize,
    weights: Option<Vec<f64>>,
}

/// The answer to a [`PreferenceQuery`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The top-k record ids, best first.
    pub top: Vec<ElementId>,
    /// Access accounting per attribute index.
    pub stats: AccessStats,
    /// The per-attribute partial rankings the planner produced (one per
    /// order spec, in spec order).
    pub rankings: Vec<BucketOrder>,
}

impl PreferenceQuery {
    /// Builds a query from per-attribute preferences; defaults to `k = 1`
    /// with equal attribute weights.
    pub fn new(specs: Vec<OrderSpec>) -> Self {
        PreferenceQuery {
            specs,
            k: 1,
            weights: None,
        }
    }

    /// Sets the number of results wanted.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Weights the attributes (one weight per order spec): "price matters
    /// twice as much as airline". Aggregation switches to weighted
    /// MEDRANK.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// The order specs.
    pub fn specs(&self) -> &[OrderSpec] {
        &self.specs
    }

    /// Plans the per-attribute rankings without running the aggregation.
    ///
    /// # Errors
    /// Any ranking-construction error from [`Table::ranking`].
    pub fn plan(&self, table: &Table) -> Result<Vec<BucketOrder>, AccessError> {
        if self.specs.is_empty() {
            return Err(AccessError::NoSources);
        }
        self.specs.iter().map(|s| table.ranking(s)).collect()
    }

    /// Plans and runs the query with MEDRANK (weighted when weights were
    /// supplied).
    ///
    /// # Errors
    /// Planning errors, [`AccessError::NoSources`],
    /// [`AccessError::InvalidK`] if `k` exceeds the table size, or
    /// [`AccessError::InvalidWeights`] for weights that are not one
    /// finite, nonnegative weight per order spec with a positive sum and
    /// a range [`weight_units`](bucketrank_aggregate::median::weight_units)
    /// can scale exactly.
    pub fn run(&self, table: &Table) -> Result<QueryResult, AccessError> {
        let rankings = self.plan(table)?;
        let MedrankResult { top, stats } = match &self.weights {
            Some(w) => crate::medrank::medrank_top_k_weighted(&rankings, w, self.k)?,
            None => medrank_top_k(&rankings, self.k)?,
        };
        Ok(QueryResult {
            top,
            stats,
            rankings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{AttrKind, AttrValue, Binning, Direction, TableBuilder};
    use bucketrank_aggregate::median::WeightFault;

    fn flights() -> Table {
        let mut t = TableBuilder::new();
        t.column("price", AttrKind::Int);
        t.column("stops", AttrKind::Int);
        t.column("airline", AttrKind::Text);
        // id: (price, stops, airline)
        t.row(vec![AttrValue::Int(320), AttrValue::Int(0), AttrValue::text("blue")]);
        t.row(vec![AttrValue::Int(250), AttrValue::Int(1), AttrValue::text("blue")]);
        t.row(vec![AttrValue::Int(250), AttrValue::Int(0), AttrValue::text("red")]);
        t.row(vec![AttrValue::Int(410), AttrValue::Int(2), AttrValue::text("red")]);
        t.row(vec![AttrValue::Int(180), AttrValue::Int(3), AttrValue::text("gray")]);
        t.finish().unwrap()
    }

    #[test]
    fn end_to_end_flight_search() {
        let q = PreferenceQuery::new(vec![
            OrderSpec::numeric("price", Direction::Asc)
                .with_binning(Binning::Thresholds(vec![200.0, 300.0]))
                .unwrap(),
            OrderSpec::numeric("stops", Direction::Asc),
            OrderSpec::text_preference("airline", ["blue"]),
        ])
        .with_k(2);
        let r = q.run(&flights()).unwrap();
        assert_eq!(r.rankings.len(), 3);
        // Flight 0 (nonstop, preferred airline) tops stops and airline and
        // wins in round 1; flight 1 (preferred airline, mid price bucket)
        // reaches a majority in round 2.
        assert_eq!(r.top, vec![0, 1]);
        // MEDRANK stopped after two rounds: 6 accesses, far below a full
        // scan of each index (15).
        assert_eq!(r.stats.total_accesses(), 6);
    }

    #[test]
    fn plan_exposes_rankings() {
        let q = PreferenceQuery::new(vec![OrderSpec::numeric("stops", Direction::Asc)]);
        let plan = q.plan(&flights()).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].display(), "[0 2 | 1 | 3 | 4]");
        assert_eq!(q.specs().len(), 1);
    }

    #[test]
    fn empty_spec_list_rejected() {
        let q = PreferenceQuery::new(vec![]);
        assert!(matches!(q.plan(&flights()), Err(AccessError::NoSources)));
    }

    #[test]
    fn bad_attribute_propagates() {
        let q = PreferenceQuery::new(vec![OrderSpec::numeric("altitude", Direction::Asc)]);
        assert!(matches!(
            q.run(&flights()),
            Err(AccessError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn weighted_query_biases_toward_heavy_attribute() {
        // Weight "stops" overwhelmingly: the nonstop flights dominate.
        let q = PreferenceQuery::new(vec![
            OrderSpec::numeric("price", Direction::Asc),
            OrderSpec::numeric("stops", Direction::Asc),
        ])
        .with_k(2)
        .with_weights(vec![1.0, 10.0]);
        let r = q.run(&flights()).unwrap();
        // Nonstop flights are 0 and 2.
        let mut got = r.top.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
        // Bad weights propagate as errors.
        let bad = PreferenceQuery::new(vec![OrderSpec::numeric("price", Direction::Asc)])
            .with_weights(vec![1.0, 2.0]);
        assert!(matches!(
            bad.run(&flights()),
            Err(AccessError::InvalidWeights(WeightFault::Length {
                expected: 1,
                found: 2
            }))
        ));
    }

    #[test]
    fn k_too_large_rejected() {
        let q = PreferenceQuery::new(vec![OrderSpec::numeric("price", Direction::Asc)]).with_k(99);
        assert!(matches!(q.run(&flights()), Err(AccessError::InvalidK { .. })));
    }
}
