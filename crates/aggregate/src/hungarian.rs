//! Minimum-cost perfect matching (assignment problem), `O(n³)`.
//!
//! Substrate for the exact footrule-optimal aggregation: the paper's
//! footnote 4 observes that an optimal solution to the Spearman footrule
//! aggregation problem "requires the computation of a minimum-cost
//! perfect matching" between elements and output positions.
//!
//! This is the classical Hungarian algorithm in its potential/dual form
//! (Kuhn–Munkres with Dijkstra-style augmentation), solving square
//! assignment instances with `i64` costs exactly.

/// Solves the assignment problem for a square cost matrix given in
/// row-major order: returns `(assignment, total_cost)` where
/// `assignment[row] = column`.
///
/// # Panics
/// Panics if `cost.len() != n * n`.
pub fn solve_assignment(n: usize, cost: &[i64]) -> (Vec<usize>, i64) {
    assert_eq!(cost.len(), n * n, "cost matrix must be n × n");
    if n == 0 {
        return (vec![], 0);
    }
    const INF: i64 = i64::MAX / 4;
    // 1-indexed internals per the classical formulation.
    let mut u = vec![0i64; n + 1]; // row potentials
    let mut v = vec![0i64; n + 1]; // column potentials
    let mut p = vec![0usize; n + 1]; // p[col] = row matched to col (0 = none)
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r * n + c])
        .sum();
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sizes() {
        assert_eq!(solve_assignment(0, &[]), (vec![], 0));
        assert_eq!(solve_assignment(1, &[42]), (vec![0], 42));
    }

    #[test]
    fn small_known_instance() {
        // Classic 3×3.
        let cost = [4, 1, 3, 2, 0, 5, 3, 2, 2];
        let (asg, total) = solve_assignment(3, &cost);
        assert_eq!(total, 5); // 1 + 2 + 2
        assert_eq!(asg, vec![1, 0, 2]);
    }

    #[test]
    fn handles_negative_costs() {
        let cost = [-5, 0, 0, -5];
        let (_, total) = solve_assignment(2, &cost);
        assert_eq!(total, -10);
    }
}
