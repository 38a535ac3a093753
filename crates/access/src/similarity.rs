//! Similarity search via rank aggregation — the Fagin–Kumar–Sivakumar
//! SIGMOD 2003 scheme (\[11\]) that Section 6 recalls verbatim: *"the
//! median rank aggregation algorithm was implemented by using two cursors
//! for each attribute to implicitly rank the database objects with
//! respect to the query without having to sort for every query."*
//!
//! Given a query point, each numeric attribute induces a ranking of the
//! records by `|value − query|`. Materializing that ranking would cost a
//! sort per query; instead, two cursors start at the query's position in
//! the attribute's **pre-sorted index** and walk outward (one up, one
//! down), yielding the next-nearest record per access. MEDRANK's majority
//! rule runs on top: the first records seen in more than half the
//! attributes are the answer, and the cursors never advance past what the
//! instance requires.

use crate::db::{AttrValue, Table};
use crate::error::AccessError;
use crate::medrank::{run_rounds, MedrankResult};
use crate::model::AccessStats;
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_metrics::batch::{self, BatchMetric, DistanceMatrix};

/// A pre-sorted numeric attribute prepared for two-cursor access.
#[derive(Debug, Clone)]
struct SortedAttribute {
    name: String,
    /// `(value, row)` ascending.
    entries: Vec<(f64, ElementId)>,
}

/// A similarity-search engine over the numeric attributes of a table.
///
/// Build once (`O(attrs · n log n)`), then answer any number of queries
/// with sub-linear access cost each.
#[derive(Debug)]
pub struct SimilarityIndex {
    n: usize,
    attributes: Vec<SortedAttribute>,
}

/// The result of a similarity query.
#[derive(Debug, Clone)]
pub struct SimilarityResult {
    /// The `k` nearest records by median attribute-distance rank, in the
    /// order they achieved a majority.
    pub top: Vec<ElementId>,
    /// Access accounting: entries popped per attribute.
    pub stats: AccessStats,
}

impl SimilarityIndex {
    /// Builds the index over the named numeric attributes.
    ///
    /// # Errors
    /// [`AccessError::UnknownAttribute`] / [`AccessError::TypeMismatch`] /
    /// [`AccessError::NonFiniteValue`].
    pub fn build(table: &Table, attributes: &[&str]) -> Result<Self, AccessError> {
        if attributes.is_empty() {
            return Err(AccessError::NoSources);
        }
        let n = table.len();
        let mut out = Vec::with_capacity(attributes.len());
        for &name in attributes {
            let mut entries = Vec::with_capacity(n);
            for row in 0..n {
                let v = match table.value(row, name) {
                    Some(&AttrValue::Int(x)) => x as f64,
                    Some(&AttrValue::Float(x)) => {
                        if !x.is_finite() {
                            return Err(AccessError::NonFiniteValue {
                                attribute: name.to_owned(),
                            });
                        }
                        x
                    }
                    Some(AttrValue::Text(_)) => {
                        return Err(AccessError::TypeMismatch {
                            attribute: name.to_owned(),
                            expected: "a numeric attribute",
                        })
                    }
                    None => {
                        return Err(AccessError::UnknownAttribute {
                            name: name.to_owned(),
                        })
                    }
                };
                entries.push((v, row as ElementId));
            }
            entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            out.push(SortedAttribute {
                name: name.to_owned(),
                entries,
            });
        }
        Ok(SimilarityIndex {
            n,
            attributes: out,
        })
    }

    /// The attribute names, in index order (query values must match it).
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Materializes, for each indexed attribute, the full ranking of the
    /// records by distance `|value − query|` — the rankings the
    /// two-cursor walk of [`Self::nearest`] enumerates implicitly.
    /// Records at equal distance tie (one bucket), so the result is a
    /// genuine bucket order per attribute, all over the record domain.
    ///
    /// # Errors
    /// [`AccessError::DomainMismatch`] if `query` does not match the
    /// attribute count; [`AccessError::NonFiniteValue`] for a non-finite
    /// query value.
    pub fn attribute_rankings(&self, query: &[f64]) -> Result<Vec<BucketOrder>, AccessError> {
        self.check_query(query)?;
        let mut keys = vec![0u64; self.n];
        Ok(self
            .attributes
            .iter()
            .zip(query)
            .map(|(a, &q)| {
                for &(v, row) in &a.entries {
                    // |v − q| is finite and non-negative, so its IEEE bit
                    // pattern is monotone in the value: sorting by the
                    // bits sorts by distance, and exact ties stay ties.
                    keys[row as usize] = (v - q).abs().to_bits();
                }
                BucketOrder::from_keys(&keys)
            })
            .collect())
    }

    /// How much the indexed attributes agree about `query`: the pairwise
    /// distance matrix of the attribute distance-rankings under `metric`,
    /// computed with the prepared batch engine (each attribute ranking
    /// prepared once). Small entries mean the attributes rank the records
    /// near-identically around this query — the regime where MEDRANK's
    /// majority rule terminates shallow.
    ///
    /// # Errors
    /// As [`Self::attribute_rankings`].
    pub fn attribute_agreement(
        &self,
        query: &[f64],
        metric: BatchMetric,
    ) -> Result<DistanceMatrix, AccessError> {
        let rankings = self.attribute_rankings(query)?;
        Ok(batch::pairwise_matrix(&rankings, metric)
            .expect("attribute rankings share the record domain"))
    }

    /// A query holds one finite value per indexed attribute.
    fn check_query(&self, query: &[f64]) -> Result<(), AccessError> {
        if query.len() != self.attributes.len() {
            return Err(AccessError::DomainMismatch {
                expected: self.attributes.len(),
                found: query.len(),
            });
        }
        if query.iter().any(|q| !q.is_finite()) {
            return Err(AccessError::NonFiniteValue {
                attribute: "<query>".to_owned(),
            });
        }
        Ok(())
    }

    /// Finds the `k` records nearest to `query` (one value per indexed
    /// attribute) under median rank of per-attribute distance, reading
    /// each attribute index outward from the query point only as far as
    /// the majority rule requires.
    ///
    /// # Errors
    /// [`AccessError::DomainMismatch`] if `query` does not match the
    /// attribute count; [`AccessError::InvalidK`]; or
    /// [`AccessError::NonFiniteValue`] for a non-finite query value.
    pub fn nearest(&self, query: &[f64], k: usize) -> Result<SimilarityResult, AccessError> {
        self.check_query(query)?;
        if k > self.n {
            return Err(AccessError::InvalidK {
                k,
                domain_size: self.n,
            });
        }
        // Two cursors per attribute: `down` (next index below the query
        // insertion point) and `up` (next at/above). Popping yields rows
        // in nondecreasing |value − query| order; ties resolved toward
        // the upper cursor, then row id, for determinism.
        struct Cursor {
            down: isize,
            up: usize,
        }
        let mut cursors: Vec<Cursor> = self
            .attributes
            .iter()
            .zip(query)
            .map(|(a, &q)| {
                let up = a.entries.partition_point(|&(v, _)| v < q);
                Cursor {
                    down: up as isize - 1,
                    up,
                }
            })
            .collect();
        let units = vec![1; self.attributes.len()];
        let MedrankResult { top, stats } = run_rounds(self.n, &units, k, |ai, _, batch| {
            let (cur, entries, q) = (&mut cursors[ai], &self.attributes[ai].entries, query[ai]);
            // Pop the nearer of the two cursor candidates.
            let down_d = (cur.down >= 0).then(|| (q - entries[cur.down as usize].0).abs());
            let up_d = (cur.up < entries.len()).then(|| (entries[cur.up].0 - q).abs());
            let take_down = match (down_d, up_d) {
                (None, None) => return,
                (Some(d), Some(u)) => d < u,
                (down, _) => down.is_some(),
            };
            if take_down {
                batch.push(entries[cur.down as usize].1);
                cur.down -= 1;
            } else {
                batch.push(entries[cur.up].1);
                cur.up += 1;
            }
        });
        Ok(SimilarityResult { top, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{AttrKind, TableBuilder};

    fn points(coords: &[(f64, f64)]) -> Table {
        let mut t = TableBuilder::new();
        t.column("x", AttrKind::Float);
        t.column("y", AttrKind::Float);
        for &(x, y) in coords {
            t.row(vec![AttrValue::Float(x), AttrValue::Float(y)]);
        }
        t.finish().unwrap()
    }

    #[test]
    fn exact_match_is_found_at_depth_one() {
        let t = points(&[(0.0, 0.0), (5.0, 5.0), (9.0, 1.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let r = idx.nearest(&[5.0, 5.0], 1).unwrap();
        assert_eq!(r.top, vec![1]);
        assert_eq!(r.stats.max_depth(), 1);
        assert_eq!(idx.attribute_names(), vec!["x", "y"]);
    }

    #[test]
    fn nearest_by_median_rank() {
        // Record 1 is nearest in both attributes to the query (4, 4).
        let t = points(&[(0.0, 9.0), (4.5, 3.5), (9.0, 0.0), (5.0, 8.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let r = idx.nearest(&[4.0, 4.0], 1).unwrap();
        assert_eq!(r.top, vec![1]);
    }

    #[test]
    fn top_k_drains_whole_table() {
        let t = points(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let r = idx.nearest(&[0.0, 0.0], 3).unwrap();
        assert_eq!(r.top, vec![0, 1, 2]);
    }

    #[test]
    fn matches_offline_median_of_distance_rankings() {
        // Differential check: the winner's refined median distance-rank
        // is minimal among all records.
        let coords: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let a = (i * 37 % 100) as f64 / 3.0;
                let b = (i * 61 % 100) as f64 / 7.0;
                (a, b)
            })
            .collect();
        let t = points(&coords);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let query = [10.0, 5.0];
        let r = idx.nearest(&query, 1).unwrap();
        let w = r.top[0] as usize;
        // Offline: rank by |x − qx| and |y − qy|; winner must be in the
        // top half of both... precisely: its max rank over both lists is
        // within the MEDRANK depth bound.
        let rank_in = |f: &dyn Fn(usize) -> f64| -> Vec<usize> {
            let mut ids: Vec<usize> = (0..coords.len()).collect();
            ids.sort_by(|&a, &b| f(a).partial_cmp(&f(b)).unwrap().then(a.cmp(&b)));
            let mut rank = vec![0; coords.len()];
            for (pos, &id) in ids.iter().enumerate() {
                rank[id] = pos;
            }
            rank
        };
        let rx = rank_in(&|i| (coords[i].0 - query[0]).abs());
        let ry = rank_in(&|i| (coords[i].1 - query[1]).abs());
        // m = 2 ⇒ majority needs both lists; the winner minimizes (up to
        // cursor tie-handling) the max of its two ranks.
        let win_score = rx[w].max(ry[w]);
        let best_possible = (0..coords.len()).map(|i| rx[i].max(ry[i])).min().unwrap();
        assert!(
            win_score <= best_possible + 2,
            "winner {w} has max-rank {win_score}, best possible {best_possible}"
        );
        // Sub-linear access.
        assert!(r.stats.total_accesses() < 2 * coords.len() as u64);
    }

    #[test]
    fn int_attributes_work() {
        let mut t = TableBuilder::new();
        t.column("price", AttrKind::Int);
        for p in [100i64, 250, 260, 900] {
            t.row(vec![AttrValue::Int(p)]);
        }
        let t = t.finish().unwrap();
        let idx = SimilarityIndex::build(&t, &["price"]).unwrap();
        let r = idx.nearest(&[255.0], 2).unwrap();
        assert_eq!(r.top.len(), 2);
        assert!(r.top.contains(&1) && r.top.contains(&2));
    }

    #[test]
    fn attribute_rankings_rank_by_distance_with_ties() {
        // Distances to query x = 5: rows 0, 1, 2, 3 → 5, 1, 1, 4.
        let t = points(&[(0.0, 0.0), (4.0, 0.0), (6.0, 0.0), (9.0, 0.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let rankings = idx.attribute_rankings(&[5.0, 0.0]).unwrap();
        assert_eq!(rankings.len(), 2);
        let rx = &rankings[0];
        assert!(rx.is_tied(1, 2), "equal distances must tie");
        assert!(rx.prefers(1, 3) && rx.prefers(3, 0));
        // Every row is at y = 0, so the y-ranking is one bucket.
        assert_eq!(rankings[1].num_buckets(), 1);
    }

    #[test]
    fn attribute_agreement_is_zero_iff_rankings_coincide() {
        // y = x for every record, so both attributes induce the same
        // distance ranking for any query on the diagonal.
        let t = points(&[(1.0, 1.0), (4.0, 4.0), (9.0, 9.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        let mx = idx.attribute_agreement(&[3.0, 3.0], BatchMetric::KProfX2).unwrap();
        assert_eq!(mx.get(0, 1), 0);
        // An off-diagonal query breaks the agreement.
        let mx = idx.attribute_agreement(&[1.0, 9.0], BatchMetric::KProfX2).unwrap();
        assert!(mx.get(0, 1) > 0);
    }

    #[test]
    fn attribute_rankings_errors() {
        let t = points(&[(0.0, 0.0), (1.0, 1.0)]);
        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        assert!(idx.attribute_rankings(&[1.0]).is_err());
        assert!(idx.attribute_rankings(&[1.0, f64::INFINITY]).is_err());
        assert!(idx.attribute_agreement(&[1.0], BatchMetric::FHaus).is_err());
    }

    #[test]
    fn errors() {
        let t = points(&[(0.0, 0.0)]);
        assert!(SimilarityIndex::build(&t, &[]).is_err());
        assert!(SimilarityIndex::build(&t, &["z"]).is_err());
        let mut t2 = TableBuilder::new();
        t2.column("tag", AttrKind::Text);
        t2.row(vec![AttrValue::text("a")]);
        assert!(SimilarityIndex::build(&t2.finish().unwrap(), &["tag"]).is_err());

        let idx = SimilarityIndex::build(&t, &["x", "y"]).unwrap();
        assert!(idx.nearest(&[1.0], 1).is_err());
        assert!(idx.nearest(&[1.0, f64::NAN], 1).is_err());
        assert!(idx.nearest(&[1.0, 1.0], 5).is_err());
    }
}
