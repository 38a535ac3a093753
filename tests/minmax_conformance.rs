//! Differential conformance suite for minmax-objective aggregation
//! (`aggregate::minmax`): the exact branch-and-bound optimum must
//! match brute-force enumeration at small `n` — with and without class
//! constraints — the heuristic pipeline's max-cost must dominate the
//! exact optimum and stay within 2× of it on every generated case,
//! malformed or infeasible constraints must be rejected typed, and the
//! server's `MinMaxAgg` opcode must answer byte-identically to the
//! naive reference model `bucketrank_bench::model::ModelService`,
//! which runs the same pipeline at the wire seed.
//!
//! The exact search's tree itself is pinned too: on a fixed seeded
//! corpus, `(permutation, cost, nodes, pruned)` must equal the values
//! recorded from the original rescanning search, so a faster bound
//! implementation provably visits and prunes the same nodes. The
//! heuristics are pinned the same way (`(permutation fingerprint,
//! cost)` recorded from the O(m)-per-candidate climb), and checked
//! case by case against that climb, kept as `bucketrank_bench::oracle`.
//! The Kemeny lane of the same exact search is pinned on a seeded
//! near-uniform corpus where it branches, each cost checked against
//! the Held–Karp optimum.
//!
//! Independence: brute force scores candidates with
//! `metrics::kendall::kprof_x2` directly (never [`MinMaxObjective`])
//! and checks constraints by counting labels in prefixes (never
//! [`ClassConstraints::satisfied`]), so the oracle shares no code with
//! the subsystem under test.

use bucketrank::aggregate::bb::kemeny_optimal_bb;
use bucketrank::aggregate::exact::kemeny_optimal_full;
use bucketrank::aggregate::minmax::{
    self, ClassConstraints, MinMaxObjective, WindowRule,
};
use bucketrank::aggregate::AggregateError;
use bucketrank::metrics::kendall;
use bucketrank::server::proto::{ErrorCode, Request, Response, WirePolicy, WireRule};
use bucketrank::server::{Client, Server, ServerConfig};
use bucketrank::{BucketOrder, ElementId};
use bucketrank_bench::model::{assert_reply, ModelService};
use bucketrank_bench::oracle;
use bucketrank_testkit::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The class-labeled degenerate-heavy stream shared by every property:
/// small domains so brute force stays enumerable.
fn cases() -> impl Gen<Value = (Vec<BucketOrder>, Vec<u32>)> {
    gen::classed_profile_with_degenerates(1..=5, 5, 3)
}

/// All permutations of `0..n`.
fn permutations(n: usize) -> Vec<Vec<ElementId>> {
    fn go(
        cur: &mut Vec<ElementId>,
        rest: &mut Vec<ElementId>,
        out: &mut Vec<Vec<ElementId>>,
    ) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rest.len() {
            let e = rest.remove(i);
            cur.push(e);
            go(cur, rest, out);
            cur.pop();
            rest.insert(i, e);
        }
    }
    let mut out = Vec::new();
    let mut rest: Vec<ElementId> = (0..n as ElementId).collect();
    go(&mut Vec::new(), &mut rest, &mut out);
    out
}

/// Oracle objective: max over voters of `Kprof ×2` against the
/// candidate, via the metrics crate's pairwise kernel.
fn naive_max_cost_x2(profile: &[BucketOrder], candidate: &BucketOrder) -> u64 {
    profile
        .iter()
        .map(|v| kendall::kprof_x2(candidate, v).expect("shared domain"))
        .max()
        .unwrap_or(0)
}

/// Oracle constraint check: count each rule's class inside its prefix
/// window of `perm` by hand.
fn naive_satisfies(labels: &[u32], rules: &[WindowRule], perm: &[ElementId]) -> bool {
    rules.iter().all(|r| {
        let count = perm[..r.window as usize]
            .iter()
            .filter(|&&e| labels[e as usize] == r.class)
            .count() as u32;
        (r.min..=r.max).contains(&count)
    })
}

/// A feasible but *binding* rule derived from the labels: pin element
/// 0's class to the midpoint of its achievable count range inside a
/// half-domain prefix. A single prefix rule with a target inside
/// `[max(0, T+w-n), min(T, w)]` always admits a permutation, and a
/// pinned `min == max` actually constrains the search.
fn binding_rule(labels: &[u32]) -> WindowRule {
    let n = labels.len() as u32;
    let class = labels[0];
    let total = labels.iter().filter(|&&l| l == class).count() as u32;
    let window = n.div_ceil(2);
    let lo = (total + window).saturating_sub(n);
    let hi = total.min(window);
    let target = (lo + hi) / 2;
    WindowRule {
        window,
        class,
        min: target,
        max: target,
    }
}

/// [`binding_rule`], or no rule on the empty domain.
fn binding_rules(labels: &[u32]) -> Vec<WindowRule> {
    if labels.is_empty() {
        vec![]
    } else {
        vec![binding_rule(labels)]
    }
}

#[test]
fn exact_matches_brute_force_unconstrained() {
    check(
        "exact_matches_brute_force_unconstrained",
        cases(),
        |(profile, _)| {
            let n = profile[0].len();
            let brute = permutations(n)
                .into_iter()
                .map(|p| {
                    let o = BucketOrder::from_permutation(&p).unwrap();
                    naive_max_cost_x2(profile, &o)
                })
                .min()
                .unwrap();
            let (order, cost, _) = minmax::minmax_optimal_bb(profile, None).unwrap();
            assert_eq!(cost, brute, "exact optimum diverged from enumeration");
            // The returned order realizes the reported cost.
            assert_eq!(naive_max_cost_x2(profile, &order), cost);
            // ... and the objective struct agrees with the oracle on it.
            let obj = MinMaxObjective::build(profile).unwrap();
            assert_eq!(obj.max_cost_x2(&order).unwrap(), cost);
        },
    );
}

#[test]
fn exact_matches_brute_force_constrained() {
    check(
        "exact_matches_brute_force_constrained",
        cases(),
        |(profile, labels)| {
            let n = profile[0].len();
            let rules = vec![binding_rule(labels)];
            let cons = ClassConstraints::new(labels.clone(), rules.clone()).unwrap();
            assert!(cons.is_feasible(), "binding rules are feasible by construction");

            let mut brute = None;
            for p in permutations(n) {
                let o = BucketOrder::from_permutation(&p).unwrap();
                // The constraint checker agrees with the by-hand count
                // on every permutation, satisfied or not.
                let ok = naive_satisfies(labels, &rules, &p);
                assert_eq!(cons.satisfied(&o).unwrap(), ok, "satisfied() diverged on {p:?}");
                if ok {
                    let c = naive_max_cost_x2(profile, &o);
                    brute = Some(brute.map_or(c, |b: u64| b.min(c)));
                }
            }
            let brute = brute.expect("feasible rule set admits a permutation");

            let (order, cost, _) = minmax::minmax_optimal_bb(profile, Some(&cons)).unwrap();
            assert_eq!(cost, brute, "constrained optimum diverged from enumeration");
            assert_eq!(naive_max_cost_x2(profile, &order), cost);
            assert!(cons.satisfied(&order).unwrap(), "exact output violates its constraints");
        },
    );
}

/// SplitMix64 step: the pinned corpus's own generator, so the corpus
/// never moves with the test kit's generators.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pinned case `i`: `n ∈ 4..=10` elements, `m ∈ 1..=8` voters drawing
/// keys from `1..=n` levels (all-tied through full rankings), and
/// three-class labels for the constrained run.
fn pinned_case(i: u64) -> (Vec<BucketOrder>, Vec<u32>) {
    let mut s = 0x5EED_0000 ^ i;
    let n = 4 + (splitmix(&mut s) % 7) as usize;
    let m = 1 + (splitmix(&mut s) % 8) as usize;
    let levels = 1 + splitmix(&mut s) % n as u64;
    let profile = (0..m)
        .map(|_| {
            let keys: Vec<u64> = (0..n).map(|_| splitmix(&mut s) % levels).collect();
            BucketOrder::from_keys(&keys)
        })
        .collect();
    let labels = (0..n).map(|_| (splitmix(&mut s) % 3) as u32).collect();
    (profile, labels)
}

/// `(permutation, max_cost_x2, nodes, pruned)` of `minmax_optimal_bb`
/// on one pinned case.
type Pinned = (&'static [ElementId], u64, u64, u64);

/// Entry `i` is `pinned_case(i)`, unconstrained.
const PINNED_UNCONSTRAINED: [Pinned; 24] = [
    (&[3, 0, 1, 2, 4, 5], 13, 24, 65),
    (&[8, 5, 3, 2, 4, 0, 1, 7, 6], 31, 565, 2329),
    (&[2, 0, 3, 1, 4], 8, 4, 12),
    (&[0, 1, 2, 3, 4, 5], 15, 1, 6),
    (&[8, 3, 0, 6, 7, 2, 5, 1, 4], 32, 588, 2394),
    (&[3, 1, 4, 5, 2, 0], 14, 4, 17),
    (&[1, 5, 2, 3, 0, 4, 6], 21, 77, 241),
    (&[0, 3, 6, 4, 5, 2, 1, 7], 27, 105, 439),
    (&[1, 2, 3, 0], 3, 1, 4),
    (&[1, 5, 4, 2, 7, 6, 0, 8, 3], 33, 723, 2900),
    (&[2, 1, 0, 4, 5, 3, 6], 20, 44, 157),
    (&[0, 4, 1, 5, 7, 8, 3, 6, 2], 28, 1250, 4431),
    (&[0, 5, 3, 7, 2, 6, 4, 1], 28, 185, 649),
    (&[2, 5, 1, 4, 0, 3], 10, 4, 17),
    (&[3, 5, 0, 4, 7, 8, 1, 2, 6], 24, 34, 172),
    (&[2, 1, 0, 5, 7, 4, 9, 3, 8, 6], 41, 486, 2340),
    (&[9, 2, 4, 6, 7, 8, 5, 1, 0, 3], 40, 2118, 9901),
    (&[0, 1, 2, 3, 4, 5, 6], 21, 1, 7),
    (&[3, 4, 1, 5, 7, 8, 0, 6, 9, 2], 36, 569, 2804),
    (&[3, 8, 7, 2, 6, 0, 4, 1, 5, 9], 37, 1011, 5051),
    (&[3, 2, 7, 1, 5, 0, 4, 6], 26, 303, 1048),
    (&[0, 1, 2, 3, 4, 5, 6, 7], 13, 1, 8),
    (&[7, 6, 4, 2, 0, 1, 5, 3], 17, 37, 160),
    (&[0, 1, 5, 4, 3, 2, 6, 7], 25, 132, 490),
];

/// As [`PINNED_UNCONSTRAINED`], under `binding_rule(labels)`.
const PINNED_CONSTRAINED: [Pinned; 24] = [
    (&[3, 1, 2, 0, 5, 4], 13, 27, 60),
    (&[8, 5, 4, 3, 7, 6, 2, 1, 0], 31, 434, 1909),
    (&[3, 2, 1, 0, 4], 8, 3, 10),
    (&[0, 1, 2, 3, 4, 5], 15, 1, 6),
    (&[8, 3, 6, 1, 2, 0, 4, 7, 5], 34, 376, 1576),
    (&[3, 1, 5, 4, 2, 0], 14, 4, 17),
    (&[1, 5, 0, 2, 4, 3, 6], 22, 76, 250),
    (&[0, 3, 6, 4, 5, 2, 1, 7], 27, 90, 388),
    (&[1, 2, 3, 0], 3, 1, 4),
    (&[1, 5, 4, 2, 7, 6, 0, 8, 3], 33, 369, 1648),
    (&[2, 1, 0, 4, 5, 3, 6], 20, 43, 155),
    (&[1, 0, 5, 3, 8, 4, 6, 2, 7], 28, 693, 2820),
    (&[0, 5, 3, 7, 2, 6, 4, 1], 28, 156, 567),
    (&[2, 5, 1, 4, 0, 3], 10, 4, 17),
    (&[3, 5, 0, 4, 7, 8, 1, 2, 6], 24, 32, 164),
    (&[2, 1, 7, 4, 5, 0, 3, 9, 6, 8], 41, 338, 1486),
    (&[9, 2, 4, 6, 7, 8, 5, 1, 0, 3], 40, 1738, 8375),
    (&[0, 1, 2, 5, 3, 4, 6], 21, 1, 7),
    (&[3, 5, 8, 1, 6, 7, 4, 0, 9, 2], 36, 429, 2223),
    (&[3, 8, 7, 2, 6, 0, 4, 1, 5, 9], 37, 736, 3828),
    (&[3, 2, 7, 1, 5, 0, 4, 6], 26, 142, 534),
    (&[1, 2, 3, 4, 0, 5, 6, 7], 17, 15, 70),
    (&[7, 6, 4, 2, 0, 1, 5, 3], 17, 37, 160),
    (&[0, 1, 5, 4, 3, 2, 6, 7], 25, 83, 327),
];

#[test]
fn exact_search_tree_is_pinned() {
    let pinned = PINNED_UNCONSTRAINED.iter().zip(&PINNED_CONSTRAINED);
    for (i, (free, bound)) in pinned.enumerate() {
        let (profile, labels) = pinned_case(i as u64);
        let cons = ClassConstraints::new(labels.clone(), vec![binding_rule(&labels)]).unwrap();
        for (want, cons) in [(free, None), (bound, Some(&cons))] {
            let (order, cost, stats) = minmax::minmax_optimal_bb(&profile, cons).unwrap();
            let got = (
                order.as_permutation().unwrap(),
                cost,
                stats.nodes,
                stats.pruned,
            );
            assert_eq!(
                got,
                (want.0.to_vec(), want.1, want.2, want.3),
                "case {i}, constrained = {}",
                cons.is_some()
            );
        }
    }
}

/// Kemeny pinned case `seed`: `n ∈ 11..=13` elements and `m ∈ 4..=5`
/// voters, each voter sorting the elements by `e + noise` with noise
/// uniform in `0..64n` — near-uniform, with a weak pull toward the
/// identity. Odd seeds are typed: every voter cuts its order into
/// buckets of one shared width (2 or 3).
fn kemeny_case(seed: u64) -> Vec<BucketOrder> {
    let mut s = 0x4B45_0000 ^ seed;
    let n = 11 + (splitmix(&mut s) % 3) as usize;
    let m = 4 + (splitmix(&mut s) % 2) as usize;
    let width = 2 + (splitmix(&mut s) % 2) as usize;
    (0..m)
        .map(|_| {
            let noise: Vec<u64> =
                (0..n).map(|e| splitmix(&mut s) % (64 * n as u64) + e as u64).collect();
            let mut perm: Vec<ElementId> = (0..n as ElementId).collect();
            perm.sort_by_key(|&e| (noise[e as usize], e));
            if seed.is_multiple_of(2) {
                return BucketOrder::from_permutation(&perm).unwrap();
            }
            let mut keys = vec![0; n];
            for (pos, &e) in perm.iter().enumerate() {
                keys[e as usize] = pos / width;
            }
            BucketOrder::from_keys(&keys)
        })
        .collect()
}

/// `(seed, permutation, cost_x2, nodes, pruned)` of `kemeny_optimal_bb`
/// on `kemeny_case(seed)`. The seeds are the ones among the first 64
/// (full: even, typed: odd) where the search expands at least 85 nodes
/// (85–529), so the pin covers a search that really branches.
const PINNED_KEMENY: [(u64, &[ElementId], u64, u64, u64); 12] = [
    (0, &[10, 5, 6, 7, 0, 2, 11, 8, 9, 3, 4, 1], 246, 492, 3140),
    (2, &[10, 4, 9, 0, 5, 11, 8, 7, 2, 3, 1, 12, 6], 292, 102, 915),
    (10, &[7, 2, 4, 8, 10, 0, 1, 9, 3, 5, 6], 158, 152, 842),
    (20, &[2, 7, 3, 6, 0, 5, 10, 9, 1, 11, 4, 8], 218, 85, 566),
    (30, &[2, 4, 8, 0, 7, 5, 3, 9, 10, 1, 11, 12, 6], 270, 529, 3936),
    (36, &[5, 1, 11, 8, 2, 10, 7, 4, 12, 9, 3, 0, 6], 220, 130, 766),
    (5, &[1, 2, 6, 11, 9, 0, 4, 10, 8, 7, 5, 3], 216, 307, 1424),
    (15, &[6, 3, 10, 12, 11, 2, 1, 8, 4, 7, 5, 9, 0], 242, 269, 1592),
    (31, &[0, 3, 1, 2, 5, 11, 6, 12, 4, 9, 10, 7, 8], 274, 91, 701),
    (47, &[7, 0, 2, 8, 4, 1, 3, 5, 9, 11, 10, 6], 268, 274, 1417),
    (53, &[1, 6, 0, 8, 4, 9, 3, 11, 2, 5, 10, 7], 262, 275, 1779),
    (55, &[6, 9, 5, 8, 4, 1, 3, 0, 2, 10, 7], 193, 111, 559),
];

/// The Kemeny lane of the shared exact search is pinned like the
/// minmax lanes, and every pinned cost is the Held–Karp optimum.
#[test]
fn kemeny_search_tree_is_pinned() {
    for &(seed, perm, cost, nodes, pruned) in &PINNED_KEMENY {
        let profile = kemeny_case(seed);
        let (order, got_cost, stats) = kemeny_optimal_bb(&profile).unwrap();
        assert_eq!(
            (order.as_permutation().unwrap(), got_cost, stats.nodes, stats.pruned),
            (perm.to_vec(), cost, nodes, pruned),
            "seed {seed}"
        );
        assert_eq!(kemeny_optimal_full(&profile).unwrap().1, cost, "seed {seed}");
    }
}

/// Heuristic pinned case `i`: `n ∈ 0..=64` (cases 0–3 fix the extremes
/// 0, 1, 2 and 64), `m ∈ 1..=64` voters, and keys cycling through
/// all-tied, two-to-four levels, `n` levels and full rankings, plus
/// three-class labels for the constrained run.
fn heuristic_case(i: u64) -> (Vec<BucketOrder>, Vec<u32>) {
    let mut s = 0x4E55_0000 ^ i;
    let n = match i {
        0..=2 => i as usize,
        3 => 64,
        _ => (splitmix(&mut s) % 65) as usize,
    };
    let m = 1 + (splitmix(&mut s) % 64) as usize;
    let levels = match i % 4 {
        0 => 1,
        1 => 2 + splitmix(&mut s) % 3,
        2 => n.max(1) as u64,
        _ => u64::MAX,
    };
    let profile = (0..m)
        .map(|_| {
            let keys: Vec<u64> = (0..n).map(|_| splitmix(&mut s) % levels).collect();
            BucketOrder::from_keys(&keys)
        })
        .collect();
    let labels = (0..n).map(|_| (splitmix(&mut s) % 3) as u32).collect();
    (profile, labels)
}

/// FNV-1a over a permutation's elements: pins a 64-element output in
/// one constant.
fn fingerprint(perm: &[ElementId]) -> u64 {
    perm.iter().fold(0xCBF2_9CE4_8422_2325, |h, &e| {
        (h ^ u64::from(e)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// `(fingerprint, max_cost_x2)` of `minmax_aggregate` at the wire seed,
/// then of `minmax_local_search` from the identity, on one heuristic
/// pinned case.
type PinnedHeuristic = (u64, u64, u64, u64);

/// Entry `i` is `heuristic_case(i)`, unconstrained.
const PINNED_HEURISTIC_UNCONSTRAINED: [PinnedHeuristic; 24] = [
    (0xCBF29CE484222325, 0, 0xCBF29CE484222325, 0),
    (0xAF63BD4C8601B7DF, 0, 0xAF63BD4C8601B7DF, 0),
    (0x082F2207B4E88CC4, 2, 0x082F2207B4E88CC4, 2),
    (0xC76A1C09670C891B, 2074, 0xED579DE4DBE9AF49, 2252),
    (0x3378E3D0C52EDFAF, 10, 0x3378E3D0C52EDFAF, 10),
    (0x067C6BB8DF05B771, 1885, 0x636B6A470CAD0A07, 1975),
    (0x19F2ADC74C50FD3A, 21, 0x19F2ADC74C50FD3A, 21),
    (0x4A1D9D07BB09EAD0, 380, 0x71C647E100A2E23E, 404),
    (0x26EF227C460EC0CF, 1378, 0x26EF227C460EC0CF, 1378),
    (0x2FADE22D1FA945D0, 692, 0x432C11E7EBF3625A, 741),
    (0x40776D8688309E20, 155, 0x2F95932F08DA571A, 177),
    (0xAF63BD4C8601B7DF, 0, 0xAF63BD4C8601B7DF, 0),
    (0x0E707B5C91A84776, 435, 0x0E707B5C91A84776, 435),
    (0xD17EA2FF1BBEF0EF, 1400, 0xF0A181F60252FB49, 1464),
    (0x082F2207B4E88CC4, 2, 0x082F2207B4E88CC4, 2),
    (0x95C44A904F218D75, 10, 0x3BCF197F93FB31C3, 10),
    (0x4013A15050E8031F, 528, 0x4013A15050E8031F, 528),
    (0x08328707B4EB6E3A, 2, 0x08328707B4EB6E3A, 2),
    (0x6B8ADF6FDFB42105, 555, 0xB39DBED3DCD7AAC9, 583),
    (0x5681254D0E50F28C, 58, 0x7FBD6150E7398BCC, 66),
    (0xB0AB0A23CF6EDD68, 1485, 0xB0AB0A23CF6EDD68, 1485),
    (0x29C68EBBD5ED1534, 96, 0xE514F2AB85EDCC56, 96),
    (0xA6D9BD449D5DAC1F, 292, 0x0AD42EA71CA5FB19, 325),
    (0xE559CE401BBBA922, 1276, 0x96EC28D0365F215A, 1348),
];

/// As [`PINNED_HEURISTIC_UNCONSTRAINED`], under `binding_rules(labels)`.
const PINNED_HEURISTIC_CONSTRAINED: [PinnedHeuristic; 24] = [
    (0xCBF29CE484222325, 0, 0xCBF29CE484222325, 0),
    (0xAF63BD4C8601B7DF, 0, 0xAF63BD4C8601B7DF, 0),
    (0x082F2207B4E88CC4, 2, 0x082F2207B4E88CC4, 2),
    (0x5427E916EF27AFDB, 2056, 0x1B0BCFCAEA8B837F, 2228),
    (0x3378E3D0C52EDFAF, 10, 0x3378E3D0C52EDFAF, 10),
    (0x7C728F41F5882E2B, 1885, 0xFC9C90CA11D9426B, 1975),
    (0x19F2ADC74C50FD3A, 21, 0x19F2ADC74C50FD3A, 21),
    (0x58E61FDECFBA3068, 382, 0x872CBC0651242304, 402),
    (0xA8A5C309C5D61C8D, 1378, 0xA8A5C309C5D61C8D, 1378),
    (0x7519685AD7AA6FDA, 698, 0xB1A73DA274D601EC, 778),
    (0xB684B7963DBBCD32, 164, 0x2592AF6CBE6F3B96, 182),
    (0xAF63BD4C8601B7DF, 0, 0xAF63BD4C8601B7DF, 0),
    (0x0E707B5C91A84776, 435, 0x0E707B5C91A84776, 435),
    (0x78203BF4DA713D03, 1400, 0x56DD6B141D79EB57, 1464),
    (0x082F2207B4E88CC4, 2, 0x082F2207B4E88CC4, 2),
    (0x8D109D904A30E54F, 10, 0x3BCF197F93FB31C3, 10),
    (0xF81C15EB83E24265, 528, 0xF81C15EB83E24265, 528),
    (0x082F2207B4E88CC4, 2, 0x082F2207B4E88CC4, 2),
    (0xF6B9B4AA2DC75DD9, 549, 0xFB6CA6C58FBE48C5, 582),
    (0x4DD844E7061671B6, 60, 0x7FBD6150E7398BCC, 66),
    (0x716F7E0AE4ED3D3A, 1485, 0x716F7E0AE4ED3D3A, 1485),
    (0x7BABF9B718EFCA4C, 93, 0x09DB1B73A2CF40F2, 100),
    (0x095F556EAA83A87B, 293, 0x22A53A06C025B265, 321),
    (0xF772E0FC71043A1C, 1278, 0xC26F015881F3E822, 1354),
];

#[test]
fn heuristic_output_is_pinned() {
    let pinned = PINNED_HEURISTIC_UNCONSTRAINED
        .iter()
        .zip(&PINNED_HEURISTIC_CONSTRAINED);
    for (i, (free, bound)) in pinned.enumerate() {
        let (profile, labels) = heuristic_case(i as u64);
        let n = labels.len();
        let cons = ClassConstraints::new(labels.clone(), binding_rules(&labels)).unwrap();
        let identity: Vec<ElementId> = (0..n as ElementId).collect();
        let identity = BucketOrder::from_permutation(&identity).unwrap();
        for (want, cons) in [(free, None), (bound, Some(&cons))] {
            let (agg, agg_cost) =
                minmax::minmax_aggregate(&profile, cons, minmax::DEFAULT_SEED).unwrap();
            let (ls, ls_cost) = minmax::minmax_local_search(&identity, &profile, cons).unwrap();
            let got = (
                fingerprint(&agg.as_permutation().unwrap()),
                agg_cost,
                fingerprint(&ls.as_permutation().unwrap()),
                ls_cost,
            );
            assert_eq!(got, *want, "case {i}, constrained = {}", cons.is_some());
        }
    }
}

/// The oracle lane's stream: the classed generator at 20 elements, with
/// the band's edge shapes forced on half the draws — `n ∈ {0, 1, 2}`
/// with one voter; every voter a single bucket (every swap delta 0);
/// one outlier voter reversing an otherwise unanimous profile (a band
/// of one); and identical voters (all tied at the max, a band of all
/// `m`). Shrinks with the classed generator's moves.
struct OracleCases(gen::ClassedProfileGen);

impl Gen for OracleCases {
    type Value = (Vec<BucketOrder>, Vec<u32>);

    fn generate(&self, rng: &mut Pcg32) -> Self::Value {
        let keyed = |rng: &mut Pcg32, n: usize, levels: u32| {
            let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..levels)).collect();
            BucketOrder::from_keys(&keys)
        };
        let n = rng.gen_range(3..=24usize);
        let m = rng.gen_range(1..=12usize);
        let profile = match rng.gen_range(0..8u32) {
            0 => {
                let n = rng.gen_range(0..=2usize);
                vec![keyed(rng, n, 2)]
            }
            1 => vec![BucketOrder::trivial(n); m],
            2 => {
                let mut perm: Vec<ElementId> = (0..n as ElementId).collect();
                perm.shuffle(rng);
                let base = BucketOrder::from_permutation(&perm).unwrap();
                perm.reverse();
                let mut p = vec![base; m];
                let rev = BucketOrder::from_permutation(&perm).unwrap();
                p.insert(rng.gen_range(0..=m), rev);
                p
            }
            3 => {
                let levels = rng.gen_range(1..=n as u32);
                vec![keyed(rng, n, levels); m]
            }
            _ => return self.0.generate(rng),
        };
        let n = profile[0].len();
        let labels = (0..n).map(|_| rng.gen_range(0..3u32)).collect();
        (profile, labels)
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        self.0.shrink(v)
    }
}

#[test]
fn local_search_matches_naive_oracle() {
    check(
        "local_search_matches_naive_oracle",
        OracleCases(gen::classed_profile_with_degenerates(1..=12, 20, 6)),
        |(profile, labels)| {
            let n = labels.len();
            let cons = ClassConstraints::new(labels.clone(), binding_rules(labels)).unwrap();
            let forward: Vec<ElementId> = (0..n as ElementId).collect();
            let backward: Vec<ElementId> = forward.iter().rev().copied().collect();
            for cons in [None, Some(&cons)] {
                assert_eq!(
                    minmax::minmax_aggregate(profile, cons, minmax::DEFAULT_SEED),
                    oracle::minmax_aggregate(profile, cons, minmax::DEFAULT_SEED),
                    "minmax_aggregate diverged, constrained = {}",
                    cons.is_some()
                );
                for start in [&forward, &backward] {
                    let start = BucketOrder::from_permutation(start).unwrap();
                    assert_eq!(
                        minmax::minmax_local_search(&start, profile, cons),
                        oracle::minmax_local_search(&start, profile, cons),
                        "minmax_local_search from {start:?} diverged, constrained = {}",
                        cons.is_some()
                    );
                }
            }
        },
    );
}

#[test]
fn heuristic_dominates_exact_and_stays_within_2x() {
    check(
        "heuristic_dominates_exact_and_stays_within_2x",
        cases(),
        |(profile, labels)| {
            // Unconstrained.
            let (_, exact, _) = minmax::minmax_optimal_bb(profile, None).unwrap();
            let (order, heur) =
                minmax::minmax_aggregate(profile, None, minmax::DEFAULT_SEED).unwrap();
            assert_eq!(naive_max_cost_x2(profile, &order), heur);
            assert!(heur >= exact, "heuristic {heur} below the optimum {exact}");
            assert!(heur <= 2 * exact, "heuristic {heur} beyond 2× optimum {exact}");

            // Constrained by the same binding rule as the exact lane.
            let cons =
                ClassConstraints::new(labels.clone(), vec![binding_rule(labels)]).unwrap();
            let (_, exact_c, _) = minmax::minmax_optimal_bb(profile, Some(&cons)).unwrap();
            let (order_c, heur_c) =
                minmax::minmax_aggregate(profile, Some(&cons), minmax::DEFAULT_SEED).unwrap();
            assert!(cons.satisfied(&order_c).unwrap(), "heuristic output violates constraints");
            assert_eq!(naive_max_cost_x2(profile, &order_c), heur_c);
            assert!(heur_c >= exact_c);
            assert!(heur_c <= 2 * exact_c, "constrained heuristic {heur_c} beyond 2× {exact_c}");
        },
    );
}

#[test]
fn constraint_violations_are_rejected_typed() {
    let profile = vec![
        BucketOrder::from_keys(&[0, 1, 2, 3]),
        BucketOrder::from_keys(&[1, 1, 2, 2]),
    ];
    let rule = |window, class, min, max| WindowRule { window, class, min, max };

    // Labels not covering the domain: a shape fault, typed as the
    // domain mismatch every aggregator uses.
    let cons = ClassConstraints::new(vec![0, 0, 1], vec![rule(1, 0, 0, 1)]).unwrap();
    for err in [
        minmax::minmax_aggregate(&profile, Some(&cons), 0).unwrap_err(),
        minmax::minmax_optimal_bb(&profile, Some(&cons)).unwrap_err(),
    ] {
        assert_eq!(err, AggregateError::DomainMismatch { expected: 4, found: 3 });
    }

    // ... the empty domain included: the exact solver's n = 0 shortcut
    // must not skip the check.
    let empty = [BucketOrder::trivial(0)];
    for err in [
        minmax::minmax_aggregate(&empty, Some(&cons), 0).unwrap_err(),
        minmax::minmax_optimal_bb(&empty, Some(&cons)).unwrap_err(),
    ] {
        assert_eq!(err, AggregateError::DomainMismatch { expected: 0, found: 3 });
    }

    // Windows outside 1..=n.
    for w in [0, 5] {
        assert_eq!(
            ClassConstraints::new(vec![0; 4], vec![rule(w, 0, 0, 1)]).unwrap_err(),
            AggregateError::InvalidConstraintWindow { index: 0, window: w as usize, domain_size: 4 }
        );
    }

    // min > max, and max beyond the window.
    assert_eq!(
        ClassConstraints::new(vec![0; 4], vec![rule(2, 0, 2, 1)]).unwrap_err(),
        AggregateError::InvalidConstraintBounds { index: 0, min: 2, max: 1, window: 2 }
    );
    assert_eq!(
        ClassConstraints::new(vec![0; 4], vec![rule(2, 0, 0, 3)]).unwrap_err(),
        AggregateError::InvalidConstraintBounds { index: 0, min: 0, max: 3, window: 2 }
    );

    // A rule naming a class no candidate carries.
    assert_eq!(
        ClassConstraints::new(vec![0, 0, 1, 1], vec![rule(2, 0, 0, 1), rule(2, 9, 1, 1)])
            .unwrap_err(),
        AggregateError::UnknownClass { index: 1, class: 9 }
    );

    // Well-formed but unsatisfiable: every candidate is class 0, yet
    // the first position must not be.
    let cons = ClassConstraints::new(vec![0; 4], vec![rule(1, 0, 0, 0)]).unwrap();
    assert!(!cons.is_feasible());
    for err in [
        minmax::minmax_aggregate(&profile, Some(&cons), 0).unwrap_err(),
        minmax::minmax_optimal_bb(&profile, Some(&cons)).unwrap_err(),
        cons.repair(&BucketOrder::from_permutation(&[0, 1, 2, 3]).unwrap())
            .unwrap_err(),
    ] {
        assert_eq!(err, AggregateError::InfeasibleConstraints);
    }
}

#[test]
fn minmax_agg_replies_are_byte_identical_to_the_in_process_mirror() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let case = AtomicUsize::new(0);

    check(
        "minmax_agg_replies_are_byte_identical_to_the_in_process_mirror",
        cases(),
        |(profile, labels)| {
            let seq = case.fetch_add(1, Ordering::Relaxed);
            let n = profile[0].len();
            let session = format!("minmax-{seq}");
            let mut client = Client::connect(addr).expect("connect");
            let mut model = ModelService::new();
            let mut reqs = vec![Request::CreateSession {
                name: session.clone(),
                n: n as u32,
                policy: WirePolicy::Lower,
            }];
            reqs.extend(profile.iter().map(|r| Request::PushVoter {
                session: session.clone(),
                ranking: r.clone(),
            }));
            // Unconstrained: empty labels and rules on the wire.
            reqs.push(Request::MinMaxAgg {
                session: session.clone(),
                labels: vec![],
                rules: vec![],
            });
            // Constrained by the binding rule, feasible by construction.
            let rule = binding_rule(labels);
            reqs.push(Request::MinMaxAgg {
                session: session.clone(),
                labels: labels.clone(),
                rules: vec![WireRule {
                    window: rule.window,
                    class: rule.class,
                    min: rule.min,
                    max: rule.max,
                }],
            });
            // Infeasible rules come back as the typed constraint
            // error, byte-for-byte: every candidate carries one class,
            // yet the first position must not.
            reqs.push(Request::MinMaxAgg {
                session: session.clone(),
                labels: vec![labels[0]; n],
                rules: vec![WireRule {
                    window: 1,
                    class: labels[0],
                    min: 0,
                    max: 0,
                }],
            });
            reqs.push(Request::DropSession { name: session });
            let replies: Vec<Response> = reqs
                .iter()
                .map(|req| {
                    let want = model.handle(req);
                    assert_reply(&mut client, req, &want);
                    want
                })
                .collect();
            assert!(
                matches!(
                    replies[reqs.len() - 2],
                    Response::Error { code: ErrorCode::BadRequest, .. }
                ),
                "excluding the head of a single-class domain is infeasible"
            );
        },
    );

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert!(stats.requests > 0);
}
