//! Bicriteria `(k, (1+ε)t)`-median/means — the Theorem 3.1 analogue.
//!
//! Theorem 3.1 promises `sol(Z, k, (1+ε)t)` with cost at most
//! `max{6, 6/ε} · C_opt(Z, k, t)` in `O(|Z|²)` time, built from the
//! Lagrangian primal-dual machinery of \[17\] with the outlier handling of
//! \[4\]. We reproduce the same *interface and guarantee shape* with the
//! λ-penalty local search of [`crate::local_search`] plus a parametric
//! search on λ:
//!
//! * for a given λ, the search returns centers where every point pays
//!   `min(d, λ)` — points preferring the penalty are the implied outliers;
//! * λ is bisected until the implied outlier weight lands in
//!   `[0, (1+ε)t]`, keeping the best candidate (evaluated with the full
//!   `(1+ε)t` exclusion budget) seen anywhere along the search;
//! * the `λ = ∞` (no-outlier) solution is always included as a candidate,
//!   which guards degenerate instances where outliers are irrelevant.
//!
//! # Why a substitution
//!
//! The primal-dual algorithm behind Theorem 3.1 is intricate (dual
//! raising, tight-facility clean-up, a second phase for the outlier
//! constraint) and its constants are loose in practice. The penalized
//! objective `Σ_e w_e · min(d(e, K), λ)` *is* its Lagrangian relaxation:
//! the λ that makes the implied outlier weight cross `(1+ε)t` plays the
//! role of the dual price on the outlier constraint, and single-swap local
//! search is itself a constant-factor k-median approximation (Arya et
//! al.). What the distributed algorithms need from the oracle is the
//! interface — at most `k` centers, at most `(1+ε)t` excluded weight, a
//! constant-factor cost — and that shape is what the tests pin against
//! the brute-force [`crate::exact`] oracle.
//!
//! # Sharing work across budgets
//!
//! Round 0 of Algorithm 1 solves the *same* site instance once per grid
//! point `q`. Only the final evaluation and the bisection's branch depend
//! on the budget: the `λ = ∞` solve, the `[lo, upper]` bracket derived
//! from it and the per-step seeds do not. [`median_bicriteria_grid`]
//! therefore solves the `λ = ∞` problem and the bracket once, and
//! memoises each λ-step local search by `(step, λ)` — the step fixes the
//! seed — so budgets whose bisections walk the same λ path share those
//! solves. Distance rows are shared too: one row cache per instance
//! (see [`crate::local_search`]) serves the `λ = ∞` search and every λ
//! step, so each entry's row is computed once per grid solve rather
//! than once per search that touches it. Every budget's answer is
//! bit-identical to a lone [`median_bicriteria`] call;
//! [`median_bicriteria`] is the one-budget case of the grid form.

use crate::local_search::{penalty_local_search_cached, LocalSearchParams, RowCache};
use crate::solution::Solution;
use dpc_metric::{Metric, Objective, WeightedSet};
use std::collections::HashMap;

/// Tuning for [`median_bicriteria`].
#[derive(Clone, Copy, Debug)]
pub struct BicriteriaParams {
    /// Outlier budget relaxation: the solution may exclude `(1+ε)t` weight.
    pub eps: f64,
    /// Bisection iterations on λ.
    pub lambda_iters: usize,
    /// Inner local-search parameters.
    pub ls: LocalSearchParams,
}

impl Default for BicriteriaParams {
    fn default() -> Self {
        Self {
            eps: 1.0,
            lambda_iters: 24,
            ls: LocalSearchParams::default(),
        }
    }
}

/// Computes `sol(Z, k, (1+ε)t)` for the median objective (pass a
/// [`dpc_metric::SquaredMetric`] and `Objective::Median` for means).
///
/// `t` is an outlier weight budget. The returned solution excludes at most
/// `(1+ε)t` weight (its `outliers`/`cost` come from a final evaluation with
/// that budget). An empty `points` yields an empty solution.
///
/// # Panics
/// Panics if `k == 0` with points present, or if `eps < 0`.
pub fn median_bicriteria<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    t: f64,
    objective: Objective,
    params: BicriteriaParams,
) -> Solution {
    median_bicriteria_grid(metric, points, k, &[t], objective, params)
        .pop()
        .expect("one budget in, one solution out")
}

/// [`median_bicriteria`] for every budget in `budgets` over one instance:
/// `result[i]` is bit-identical to `median_bicriteria(.., budgets[i], ..)`
/// (any order, duplicates allowed), but the `λ = ∞` solve runs once and
/// λ-step solves are shared between budgets (see the module docs).
///
/// # Panics
/// Panics if `k == 0` with points and budgets present, or if `eps < 0`.
pub fn median_bicriteria_grid<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    budgets: &[f64],
    objective: Objective,
    params: BicriteriaParams,
) -> Vec<Solution> {
    assert!(params.eps >= 0.0, "eps must be non-negative");
    if points.is_empty() || budgets.is_empty() {
        return budgets
            .iter()
            .map(|_| Solution {
                centers: Vec::new(),
                cost: 0.0,
                outliers: Vec::new(),
                assignment: Vec::new(),
            })
            .collect();
    }

    // One row cache serves the λ = ∞ solve and every λ step.
    let mut rows = RowCache::new(points.len());
    // Candidate 1: ignore the outlier structure entirely (λ = ∞), then let
    // the evaluation discard the worst (1+ε)t weight.
    let plain =
        penalty_local_search_cached(metric, points, k, f64::INFINITY, params.ls, &mut rows).centers;
    let bracket = if budgets.iter().any(|&t| t > 0.0) {
        lambda_bracket(metric, points, &plain)
    } else {
        None
    };
    // λ-step solves keyed by (step, λ bits): the step fixes the seed, so
    // equal keys are equal calls. Only centers and the implied outlier
    // weight are kept.
    let mut memo: HashMap<(usize, u64), (Vec<usize>, f64)> = HashMap::new();

    budgets
        .iter()
        .map(|&t| {
            let budget = (1.0 + params.eps) * t;
            let mut best = Solution::evaluate(metric, points, plain.clone(), budget, objective);
            let Some((mut lo, mut hi)) = bracket.filter(|_| t > 0.0) else {
                return best;
            };
            for it in 0..params.lambda_iters {
                let lambda = (lo * hi).sqrt();
                let (centers, implied_outlier_weight) =
                    &*memo.entry((it, lambda.to_bits())).or_insert_with(|| {
                        let mut ls = params.ls;
                        ls.seed = ls.seed.wrapping_add(it as u64 + 1); // decorrelate restarts
                        let cand =
                            penalty_local_search_cached(metric, points, k, lambda, ls, &mut rows);
                        let implied = cand.outliers.iter().map(|&(_, w)| w).sum();
                        (cand.centers, implied)
                    });
                let evaluated =
                    Solution::evaluate(metric, points, centers.clone(), budget, objective);
                if evaluated.cost < best.cost
                    || (evaluated.cost == best.cost
                        && evaluated.outlier_weight() < best.outlier_weight())
                {
                    best = evaluated;
                }
                if *implied_outlier_weight > budget {
                    // Too many points prefer the penalty: λ too small.
                    lo = lambda;
                } else {
                    hi = lambda;
                }
                if hi / lo <= 1.0 + 1e-9 {
                    break;
                }
            }
            best
        })
        .collect()
}

/// The λ search range `(lo, upper)` around the `λ = ∞` centers, or `None`
/// when every point sits on a center (no λ implies any outlier).
///
/// `upper` is the max assignment distance (λ beyond it implies no
/// outliers at all). The bisection is geometric (log-space): assignment
/// distances can span many orders of magnitude (squared metrics
/// especially), and the useful λ scale is unknown a priori; halving in
/// log-space reaches any scale in O(log log(Δ)) steps instead of
/// O(log Δ). So `lo` is the smallest positive assignment distance, capped
/// at `upper · 1e-12`.
fn lambda_bracket<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    centers: &[usize],
) -> Option<(f64, f64)> {
    let mut upper = 0.0f64;
    let mut min_positive = f64::INFINITY;
    for &id in points.ids() {
        let d = centers
            .iter()
            .map(|&c| metric.dist(id, c))
            .fold(f64::INFINITY, f64::min);
        upper = upper.max(d);
        if d > 0.0 {
            min_positive = min_positive.min(d);
        }
    }
    (upper != 0.0).then(|| ((upper * 1e-12).min(min_positive), upper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::penalty_local_search;
    use dpc_metric::{median_cost, EuclideanMetric, PointSet, SquaredMetric};

    /// Two tight clumps plus `t` far-flung noise points.
    fn noisy_instance() -> (PointSet, usize) {
        let mut rows = Vec::new();
        for i in 0..15 {
            rows.push(vec![(i % 5) as f64 * 0.05, 0.0]);
        }
        for i in 0..15 {
            rows.push(vec![100.0 + (i % 5) as f64 * 0.05, 0.0]);
        }
        // 3 planted outliers
        rows.push(vec![1e4, 0.0]);
        rows.push(vec![-2e4, 0.0]);
        rows.push(vec![3e4, 3e4]);
        (PointSet::from_rows(&rows), 3)
    }

    #[test]
    fn excludes_planted_outliers() {
        let (ps, t) = noisy_instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let sol = median_bicriteria(
            &m,
            &w,
            2,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        // With the planted outliers removed, two centers cover the clumps
        // at tiny cost; any solution paying for an outlier costs >= 1e4.
        assert!(sol.cost < 50.0, "cost {}", sol.cost);
        assert!(sol.outlier_weight() <= 2.0 * t as f64 + 1e-9);
        let excluded: Vec<usize> = sol.outlier_positions();
        for planted in [30usize, 31, 32] {
            assert!(
                excluded.contains(&planted),
                "planted outlier {planted} kept"
            );
        }
    }

    #[test]
    fn budget_respected() {
        let (ps, t) = noisy_instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let p = BicriteriaParams {
            eps: 0.5,
            ..Default::default()
        };
        let sol = median_bicriteria(&m, &w, 2, t as f64, Objective::Median, p);
        assert!(sol.outlier_weight() <= 1.5 * t as f64 + 1e-9);
    }

    #[test]
    fn t_zero_reduces_to_plain_kmedian() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(4);
        let sol = median_bicriteria(
            &m,
            &w,
            2,
            0.0,
            Objective::Median,
            BicriteriaParams::default(),
        );
        assert!(sol.outliers.is_empty());
        assert!(sol.cost <= 2.0 + 1e-9);
    }

    #[test]
    fn constant_factor_vs_bruteforce() {
        let (ps, t) = noisy_instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let sol = median_bicriteria(
            &m,
            &w,
            2,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        // Brute-force the optimum over all 2-subsets with exactly t outliers.
        let n = ps.len();
        let mut opt = f64::INFINITY;
        for a in 0..n {
            for b in 0..a {
                opt = opt.min(median_cost(&m, &[a, b], t));
            }
        }
        // Theorem 3.1 bound with eps=1 is 6·opt; we check it holds (opt is
        // tiny but nonzero because clump points are spread).
        assert!(
            sol.cost <= 6.0 * opt + 1e-6,
            "sol {} vs opt {}",
            sol.cost,
            opt
        );
    }

    #[test]
    fn means_objective_squares() {
        let (ps, t) = noisy_instance();
        let sq = SquaredMetric::new(EuclideanMetric::new(&ps));
        let w = WeightedSet::unit(ps.len());
        // NOTE: with a squared metric the evaluation objective must be
        // Median (the metric already squares); this mirrors how the solvers
        // are invoked by the distributed layer.
        let sol = median_bicriteria(
            &sq,
            &w,
            2,
            t as f64,
            Objective::Median,
            BicriteriaParams::default(),
        );
        assert!(sol.cost < 100.0, "means cost {}", sol.cost);
    }

    /// A metric that counts scalar distance evaluations. It implements
    /// only `len`/`dist`, so every bulk default routes through `dist` and
    /// the count covers all the solver's distance work.
    struct CountingMetric<'a> {
        inner: EuclideanMetric<'a>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl<'a> CountingMetric<'a> {
        fn new(ps: &'a PointSet) -> Self {
            Self {
                inner: EuclideanMetric::new(ps),
                calls: Default::default(),
            }
        }

        fn take(&self) -> usize {
            self.calls.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Metric for CountingMetric<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn dist(&self, i: usize, j: usize) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.dist(i, j)
        }
    }

    /// 200 points: four clumps of 47 plus 12 scattered far points.
    fn counting_instance() -> PointSet {
        let mut rows = Vec::new();
        for c in 0..4 {
            for i in 0..47 {
                let (x, y) = ((i % 7) as f64 * 0.3, (i / 7) as f64 * 0.3);
                rows.push(vec![c as f64 * 50.0 + x, (c % 2) as f64 * 80.0 + y]);
            }
        }
        for i in 0..12 {
            let a = i as f64 * 0.5;
            rows.push(vec![3e3 * a.cos() + 1e3, 3e3 * a.sin()]);
        }
        PointSet::from_rows(&rows)
    }

    #[test]
    fn grid_solve_does_less_distance_work_than_per_budget_solves() {
        let ps = counting_instance();
        assert_eq!(ps.len(), 200);
        let m = CountingMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        // geometric_grid(32, 2.0) from dpc_core, spelled out (dpc_core
        // depends on this crate).
        let budgets = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let p = BicriteriaParams {
            eps: 0.0,
            ..Default::default()
        };
        let grid = median_bicriteria_grid(&m, &w, 4, &budgets, Objective::Median, p);
        let grid_calls = m.take();
        // Every local search of the grid solve reads one shared row cache,
        // so each of the 200 rows is computed once: 977,628 distance calls
        // in a debug build, against 7,265,228 when every search computed
        // its own rows.
        assert!(
            grid_calls <= 1_100_000,
            "grid solve made {grid_calls} distance calls"
        );
        let singles: Vec<Solution> = budgets
            .iter()
            .map(|&t| median_bicriteria(&m, &w, 4, t, Objective::Median, p))
            .collect();
        let single_calls = m.take();
        assert!(
            grid_calls < single_calls,
            "grid {grid_calls} vs per-budget {single_calls} distance calls"
        );
        for (g, s) in grid.iter().zip(&singles) {
            assert_eq!(g.centers, s.centers);
            assert_eq!(g.cost.to_bits(), s.cost.to_bits());
        }

        // One budget alone must not cost more than it did before the solver
        // shared work across budgets: that solver (λ bracket in two passes
        // over the λ = ∞ centers) made 1,881,740 distance calls for this
        // call in a debug build, and 10,480,412 over the seven budgets.
        median_bicriteria(&m, &w, 4, 8.0, Objective::Median, p);
        let one = m.take();
        assert!(
            one <= 1_881_740,
            "single-budget call made {one} distance calls"
        );
    }

    /// Block scoring skips candidates drawn twice in one iteration (48
    /// draws from 200 entries repeat often), so one local search must
    /// make strictly fewer distance calls than the per-candidate scorer
    /// before it: 94,536 for this call in a debug build.
    #[test]
    fn local_search_does_no_more_distance_work_than_per_candidate_scoring() {
        let ps = counting_instance();
        let m = CountingMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        penalty_local_search(&m, &w, 8, 20.0, LocalSearchParams::default());
        let calls = m.take();
        assert!(
            calls < 94_536,
            "one local search made {calls} distance calls"
        );
    }

    #[test]
    fn weighted_instance_fractional_budget() {
        // One heavy far point (w=4) and budget 2: can only be partially
        // excluded; cost must include the remaining 2 units.
        let ps = PointSet::from_rows(&[vec![0.0], vec![0.5], vec![1000.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::from_parts(vec![0, 1, 2], vec![1.0, 1.0, 4.0]);
        let p = BicriteriaParams {
            eps: 0.0,
            ..Default::default()
        };
        let sol = median_bicriteria(&m, &w, 1, 2.0, Objective::Median, p);
        assert!(sol.outlier_weight() <= 2.0 + 1e-9);
        // Either the center sits on the heavy point (cost ~ small) or 2
        // units of it remain charged; both are valid constant-factor
        // outcomes — just assert evaluation consistency.
        assert!(sol.cost.is_finite());
    }
}

/// The second form of Theorem 3.1: `sol(Z, (1+ε)k, t)` — relax the number
/// of *centers* instead of the outliers, excluding exactly `t` weight.
///
/// Used for Table 2's `(1+ε)k, t` rows, where the output must name exactly
/// `t` outliers but may open up to `⌈(1+ε)k⌉` centers. Internally this is
/// the same λ-penalty machinery with the enlarged center budget; the final
/// evaluation uses the *exact* outlier budget `t`.
pub fn median_bicriteria_relaxed_centers<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    t: f64,
    objective: Objective,
    params: BicriteriaParams,
) -> Solution {
    assert!(params.eps >= 0.0, "eps must be non-negative");
    if points.is_empty() {
        return Solution {
            centers: Vec::new(),
            cost: 0.0,
            outliers: Vec::new(),
            assignment: Vec::new(),
        };
    }
    let k_relaxed = (((1.0 + params.eps) * k as f64).ceil() as usize).max(k);
    let inner = BicriteriaParams { eps: 0.0, ..params };
    // Solve with the enlarged center budget and an exact outlier budget.
    median_bicriteria(metric, points, k_relaxed, t, objective, inner)
}

#[cfg(test)]
mod relaxed_center_tests {
    use super::*;
    use dpc_metric::{EuclideanMetric, PointSet};

    fn instance() -> PointSet {
        let mut rows = Vec::new();
        for c in [0.0, 50.0, 120.0] {
            for i in 0..8 {
                rows.push(vec![c + 0.1 * i as f64]);
            }
        }
        rows.push(vec![9e3]);
        rows.push(vec![-6e3]);
        PointSet::from_rows(&rows)
    }

    #[test]
    fn exact_outlier_budget_respected() {
        let ps = instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let p = BicriteriaParams {
            eps: 0.5,
            ..Default::default()
        };
        let sol = median_bicriteria_relaxed_centers(&m, &w, 2, 2.0, Objective::Median, p);
        assert!(
            sol.outlier_weight() <= 2.0 + 1e-9,
            "must exclude at most exactly t"
        );
        // (1+0.5)*2 = 3 centers allowed: all three clumps can be covered.
        assert!(sol.centers.len() <= 3);
        assert!(sol.cost < 10.0, "cost {}", sol.cost);
    }

    #[test]
    fn beats_unrelaxed_when_k_too_small() {
        let ps = instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let tight = median_bicriteria(
            &m,
            &w,
            2,
            2.0,
            Objective::Median,
            BicriteriaParams {
                eps: 0.0,
                ..Default::default()
            },
        );
        let relaxed = median_bicriteria_relaxed_centers(
            &m,
            &w,
            2,
            2.0,
            Objective::Median,
            BicriteriaParams {
                eps: 0.5,
                ..Default::default()
            },
        );
        // Extra centers can only help (3 clumps, k=2 must merge two).
        assert!(
            relaxed.cost <= tight.cost + 1e-9,
            "relaxed {} > tight {}",
            relaxed.cost,
            tight.cost
        );
    }

    #[test]
    fn eps_zero_is_identity() {
        let ps = instance();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let p = BicriteriaParams {
            eps: 0.0,
            ..Default::default()
        };
        let a = median_bicriteria_relaxed_centers(&m, &w, 2, 1.0, Objective::Median, p);
        let b = median_bicriteria(&m, &w, 2, 1.0, Objective::Median, p);
        assert_eq!(a.centers, b.centers);
    }
}
