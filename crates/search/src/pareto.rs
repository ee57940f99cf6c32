//! Pareto dominance over (latency, energy, area), all minimized.

// lint:allow-file(index, frontier indices come from enumerate() over the same vec)

use smart_units::{Area, Energy, Time};
use std::cmp::Ordering;

/// The three minimized objectives of one design point, all from the
/// analytic model: single-batch latency and per-image energy from the
/// evaluator, chip area exactly from the geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// End-to-end model latency.
    pub latency: Time,
    /// Energy per image (cooling included for cryogenic parts).
    pub energy: Energy,
    /// Chip area (matrix unit + SPM).
    pub area: Area,
}

impl Objectives {
    fn key(&self) -> [f64; 3] {
        [self.latency.as_s(), self.energy.as_j(), self.area.as_mm2()]
    }

    /// All three objectives are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.key().iter().all(|v| v.is_finite())
    }
}

/// Standard Pareto dominance: `a` is no worse than `b` in every objective
/// and strictly better in at least one.
#[must_use]
pub fn dominates(a: &Objectives, b: &Objectives) -> bool {
    let (a, b) = (a.key(), b.key());
    let no_worse = a.iter().zip(&b).all(|(x, y)| x <= y);
    let better = a.iter().zip(&b).any(|(x, y)| x < y);
    no_worse && better
}

/// `a` ε-dominates `b`: better than `b` by at least the relative margin
/// `eps` in *every* objective (and strictly better somewhere, so ties and
/// duplicates never prune each other). This implies [`dominates`] for any
/// `eps >= 0`, so the ε-survivor set always contains the exact Pareto
/// frontier — pruning on it can never discard a frontier point. At
/// `eps = 0` it degenerates to exact dominance.
#[must_use]
pub fn eps_dominates(a: &Objectives, b: &Objectives, eps: f64) -> bool {
    let (a, b) = (a.key(), b.key());
    let margin = a.iter().zip(&b).all(|(x, y)| *x <= y * (1.0 - eps));
    let better = a.iter().zip(&b).any(|(x, y)| x < y);
    margin && better
}

/// Indices of the Pareto-optimal points, in input (enumeration) order.
/// Duplicate objective vectors are all kept — equal points do not dominate
/// each other — so the result is deterministic whatever produced the list.
///
/// One sweep in lexicographic objective order compares each point only
/// with the frontier points found before it, O(n·|F|) dominance tests
/// after the sort for n points and a frontier of |F|. That is exact: a
/// point precedes every point it dominates in that order, and a dominated
/// point is dominated by a frontier point (follow dominators from it:
/// dominance is transitive and irreflexive, so the chain ends, at an
/// undominated point, within the n points).
#[must_use]
pub fn pareto_frontier(objs: &[Objectives]) -> Vec<usize> {
    // `+ 0.0` sorts -0.0 with 0.0, which `<=` holds equal. A point with a
    // NaN objective neither dominates nor is dominated, wherever it sorts.
    let keys: Vec<[f64; 3]> = objs.iter().map(|o| o.key().map(|v| v + 0.0)).collect();
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.sort_by(|&a, &b| {
        let pairs = keys[a].iter().zip(&keys[b]);
        pairs.fold(Ordering::Equal, |o, (x, y)| o.then(x.total_cmp(y)))
    });
    let mut frontier: Vec<usize> = Vec::new();
    for i in order {
        if !frontier.iter().any(|&f| dominates(&objs[f], &objs[i])) {
            frontier.push(i);
        }
    }
    frontier.sort_unstable();
    frontier
}

/// Indices of the points *not* ε-dominated by any other point — the
/// near-frontier band that survives dominance pruning and moves on to the
/// expensive ILP stage. A superset of [`pareto_frontier`] for any
/// `eps >= 0`.
///
/// Each point is tested against the frontier points only, O(n·|F|) tests,
/// which is exact for any `eps`: if `o` ε-dominates `i` and `f` dominates
/// `o`, then `f` ε-dominates `i` (`f ≤ o ≤ (1 − ε)·i` in every objective,
/// and `f ≤ o < i` in one), and every point off the frontier is dominated
/// by a frontier point ([`pareto_frontier`]).
#[must_use]
pub fn epsilon_survivors(objs: &[Objectives], eps: f64) -> Vec<usize> {
    let frontier = pareto_frontier(objs);
    (0..objs.len())
        .filter(|&i| {
            !frontier
                .iter()
                .any(|&f| eps_dominates(&objs[f], &objs[i], eps))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(l: f64, e: f64, a: f64) -> Objectives {
        Objectives {
            latency: Time::from_s(l),
            energy: Energy::from_j(e),
            area: Area::from_mm2(a),
        }
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&o(1.0, 1.0, 1.0), &o(2.0, 1.0, 1.0)));
        assert!(!dominates(&o(1.0, 1.0, 1.0), &o(1.0, 1.0, 1.0)), "equal");
        assert!(!dominates(&o(1.0, 2.0, 1.0), &o(2.0, 1.0, 1.0)), "trade");
    }

    #[test]
    fn frontier_keeps_tradeoffs_and_ties() {
        let objs = [
            o(1.0, 3.0, 1.0),
            o(3.0, 1.0, 1.0),
            o(2.0, 2.0, 1.0),
            o(4.0, 4.0, 1.0), // dominated by everything
            o(1.0, 3.0, 1.0), // exact tie with 0
        ];
        assert_eq!(pareto_frontier(&objs), vec![0, 1, 2, 4]);
    }

    #[test]
    fn survivors_contain_frontier() {
        let objs: Vec<Objectives> = (0..40)
            .map(|i| {
                let x = f64::from(i);
                o(
                    1.0 + (x * 0.37).sin().abs(),
                    1.0 + (x * 0.61).cos().abs(),
                    1.0 + x * 0.01,
                )
            })
            .collect();
        for eps in [0.0, 0.01, 0.05, 0.2] {
            let survivors = epsilon_survivors(&objs, eps);
            for i in pareto_frontier(&objs) {
                assert!(
                    survivors.contains(&i),
                    "eps {eps}: frontier point {i} pruned"
                );
            }
        }
    }

    #[test]
    fn zero_eps_matches_exact_dominance() {
        let objs = [
            o(1.0, 1.0, 1.0),
            o(2.0, 2.0, 2.0), // strictly worse everywhere
            o(1.0, 2.0, 2.0), // dominated (ties on latency)
            o(1.0, 1.0, 1.0), // exact duplicate of 0: survives
            o(0.5, 9.0, 9.0), // trade-off: survives
        ];
        assert_eq!(epsilon_survivors(&objs, 0.0), pareto_frontier(&objs));
        assert_eq!(epsilon_survivors(&objs, 0.0), vec![0, 3, 4]);
    }
}
