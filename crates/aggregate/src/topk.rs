//! Aggregating top-k lists over their own domains — the metasearch API.
//!
//! Search engines return [`TopKList`]s over *their own* result sets; to
//! aggregate them we embed every list over the union domain (unranked
//! items tied in a bottom bucket, as in Appendix A.3), run the median
//! pipeline, and emit a top-k list of the union's element ids. By
//! Theorem 9 the embedded output is within factor 3 of the best top-k
//! list over the union domain.

use crate::median::{median_positions, MedianPolicy};
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};
use bucketrank_metrics::topk::TopKList;
use std::collections::HashMap;

/// The union domain of many lists, in order of first appearance, plus
/// the reverse index.
fn union_domain(lists: &[TopKList]) -> (Vec<ElementId>, HashMap<ElementId, ElementId>) {
    let mut universe: Vec<ElementId> = Vec::new();
    let mut index: HashMap<ElementId, ElementId> = HashMap::new();
    for l in lists {
        for &e in l.items() {
            index.entry(e).or_insert_with(|| {
                universe.push(e);
                (universe.len() - 1) as ElementId
            });
        }
    }
    (universe, index)
}

/// Embeds each list as a bucket order over the union domain.
fn embed(lists: &[TopKList]) -> Result<(Vec<ElementId>, Vec<BucketOrder>), AggregateError> {
    if lists.is_empty() {
        return Err(AggregateError::NoInputs);
    }
    let (universe, index) = union_domain(lists);
    let n = universe.len();
    let orders = lists
        .iter()
        .map(|l| {
            let top: Vec<ElementId> = l.items().iter().map(|e| index[e]).collect();
            BucketOrder::top_k(n, &top).map_err(Into::into)
        })
        .collect::<Result<Vec<_>, AggregateError>>()?;
    Ok((universe, orders))
}

/// Median aggregation of top-k lists with their own domains: returns the
/// `k` union-domain elements with the smallest median embedded positions,
/// best first (ties by first appearance in the inputs).
///
/// # Errors
/// [`AggregateError::NoInputs`]; [`AggregateError::InvalidK`] if `k`
/// exceeds the union domain.
pub fn aggregate_topk_lists(
    lists: &[TopKList],
    k: usize,
    policy: MedianPolicy,
) -> Result<TopKList, AggregateError> {
    let (universe, orders) = embed(lists)?;
    let n = universe.len();
    if k > n {
        return Err(AggregateError::InvalidK { k, domain_size: n });
    }
    let f = median_positions(&orders, policy)?;
    let mut ids: Vec<ElementId> = (0..n as ElementId).collect();
    ids.sort_by(|&a, &b| f[a as usize].cmp(&f[b as usize]).then(a.cmp(&b)));
    let top: Vec<ElementId> = ids[..k].iter().map(|&i| universe[i as usize]).collect();
    Ok(TopKList::new(top).expect("union-domain elements are distinct"))
}

/// Embeds the lists over their union domain and exposes the bucket
/// orders plus the universe mapping — the hook for running any other
/// aggregator (exact optima, Markov chains, …) in the \[10\] scenario.
///
/// # Errors
/// [`AggregateError::NoInputs`].
pub fn embed_over_union(
    lists: &[TopKList],
) -> Result<(Vec<ElementId>, Vec<BucketOrder>), AggregateError> {
    embed(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{total_cost_x2, AggMetric};
    use crate::exact::footrule_optimal_of_type;
    use bucketrank_core::TypeSeq;

    fn tk(items: &[ElementId]) -> TopKList {
        TopKList::new(items.to_vec()).unwrap()
    }

    #[test]
    fn unanimous_lists_win() {
        let lists = vec![tk(&[7, 3, 9]), tk(&[7, 3, 9]), tk(&[7, 3, 9])];
        let out = aggregate_topk_lists(&lists, 2, MedianPolicy::Lower).unwrap();
        assert_eq!(out.items(), &[7, 3]);
    }

    #[test]
    fn majority_overrules_minority() {
        let lists = vec![tk(&[1, 2]), tk(&[1, 2]), tk(&[9, 8])];
        let out = aggregate_topk_lists(&lists, 2, MedianPolicy::Lower).unwrap();
        assert_eq!(out.items(), &[1, 2]);
    }

    #[test]
    fn union_domain_collected_in_first_appearance_order() {
        let lists = vec![tk(&[5, 1]), tk(&[1, 8])];
        let (universe, orders) = embed_over_union(&lists).unwrap();
        assert_eq!(universe, vec![5, 1, 8]);
        assert_eq!(orders.len(), 2);
        assert!(orders.iter().all(|o| o.len() == 3));
    }

    #[test]
    fn theorem9_bound_holds_in_embedded_space() {
        let lists = vec![
            tk(&[1, 2, 3]),
            tk(&[2, 1, 4]),
            tk(&[1, 5, 2]),
            tk(&[6, 2, 1]),
            tk(&[2, 3, 1]),
        ];
        let (universe, orders) = embed_over_union(&lists).unwrap();
        let n = universe.len();
        let k = 3;
        let out = aggregate_topk_lists(&lists, k, MedianPolicy::Lower).unwrap();
        // Re-embed the output for costing.
        let index: std::collections::HashMap<ElementId, ElementId> = universe
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as ElementId))
            .collect();
        let embedded_top: Vec<ElementId> = out.items().iter().map(|e| index[e]).collect();
        let embedded = BucketOrder::top_k(n, &embedded_top).unwrap();
        let cost = total_cost_x2(AggMetric::FProf, &embedded, &orders).unwrap();
        let alpha = TypeSeq::top_k(n, k).unwrap();
        let (_, opt) = footrule_optimal_of_type(&orders, &alpha).unwrap();
        assert!(cost <= 3 * opt, "{cost} > 3·{opt}");
    }

    #[test]
    fn errors() {
        assert!(aggregate_topk_lists(&[], 1, MedianPolicy::Lower).is_err());
        let lists = vec![tk(&[1, 2])];
        assert!(aggregate_topk_lists(&lists, 5, MedianPolicy::Lower).is_err());
        // k = 0 is legal and yields the empty list.
        let out = aggregate_topk_lists(&lists, 0, MedianPolicy::Lower).unwrap();
        assert_eq!(out.k(), 0);
    }
}
