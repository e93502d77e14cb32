//! Property-based tests of the clustering substrates against brute force.

use dpc_cluster::*;
use dpc_metric::*;
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = PointSet> {
    proptest::collection::vec(proptest::collection::vec(-1e3f64..1e3, 2..=2), 4..max_n)
        .prop_map(|rows| PointSet::from_rows(&rows))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn gonzalez_radii_non_increasing(ps in arb_points(24)) {
        let m = EuclideanMetric::new(&ps);
        let ids: Vec<usize> = (0..ps.len()).collect();
        let g = gonzalez(&m, &ids, ps.len(), 0);
        for w in g.radii.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn gonzalez_2_approx_every_prefix(ps in arb_points(12)) {
        let m = EuclideanMetric::new(&ps);
        let n = ps.len();
        let ids: Vec<usize> = (0..n).collect();
        for k in 1..=2.min(n) {
            let g = gonzalez(&m, &ids, k, 0);
            let cost = (0..n)
                .map(|p| g.order.iter().map(|&c| m.dist(p, c)).fold(f64::INFINITY, f64::min))
                .fold(0.0, f64::max);
            let w = WeightedSet::unit(n);
            let opt = exact_best(&m, &w, k, 0.0, Objective::Center, 100_000).cost;
            prop_assert!(cost <= 2.0 * opt + 1e-9, "k={k}: {cost} > 2*{opt}");
        }
    }

    #[test]
    fn charikar_never_worse_than_3x_exact(ps in arb_points(11), t in 0usize..3) {
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let sol = charikar_center(&m, &w, 2, t as f64, CenterParams::default());
        let opt = exact_best(&m, &w, 2, t as f64, Objective::Center, 100_000).cost;
        prop_assert!(sol.cost <= 3.0 * opt + 1e-6, "{} > 3*{}", sol.cost, opt);
        prop_assert!(sol.outlier_weight() <= t as f64 + 1e-9);
    }

    #[test]
    fn bicriteria_within_6x_exact_at_double_budget(ps in arb_points(10), t in 0usize..3) {
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let sol = median_bicriteria(&m, &w, 2, t as f64, Objective::Median, BicriteriaParams::default());
        let opt = exact_best(&m, &w, 2, t as f64, Objective::Median, 100_000).cost;
        // Theorem 3.1 with eps=1: <= 6 opt while excluding <= 2t.
        prop_assert!(sol.cost <= 6.0 * opt + 1e-6, "{} > 6*{}", sol.cost, opt);
        prop_assert!(sol.outlier_weight() <= 2.0 * t as f64 + 1e-9);
    }

    #[test]
    fn local_search_never_increases_cost(ps in arb_points(20), seed in 0u64..64) {
        // The final cost is at most the seeded cost (swaps only improve).
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let params = LocalSearchParams { seed, ..Default::default() };
        let sol = penalty_local_search(&m, &w, 2, f64::INFINITY, params);
        // Compare against the trivial 1-center-at-0 upper bound * anything:
        // cheap sanity — cost is finite and consistent with its centers.
        let check = local_search_cost(&m, &w, &sol.centers);
        prop_assert!((sol.cost - check).abs() <= 1e-6 * check.max(1.0));
    }

    #[test]
    fn exact_best_is_minimum_over_singletons(ps in arb_points(9)) {
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(ps.len());
        let sol = exact_best(&m, &w, 1, 0.0, Objective::Median, 100_000);
        for c in 0..ps.len() {
            prop_assert!(sol.cost <= median_cost(&m, &[c], 0) + 1e-9);
        }
    }
}

/// Weighted 2-d instances with `0..max_n` points (the empty set included).
fn arb_weighted(max_n: usize) -> impl Strategy<Value = (PointSet, WeightedSet)> {
    proptest::collection::vec(
        (proptest::collection::vec(-1e3f64..1e3, 2..=2), 0.0f64..4.0),
        0..max_n,
    )
    .prop_map(|entries| {
        let (rows, weights): (Vec<Vec<f64>>, Vec<f64>) = entries.into_iter().unzip();
        let ps = if rows.is_empty() {
            PointSet::new(2)
        } else {
            PointSet::from_rows(&rows)
        };
        let w = WeightedSet::from_parts((0..rows.len()).collect(), weights);
        (ps, w)
    })
}

/// Bit-for-bit solution equality: centers, cost bits, outliers (position
/// and weight bits) and assignment.
fn assert_bit_identical(grid: &Solution, single: &Solution, t: f64) {
    let bits = |s: &Solution| -> Vec<(usize, u64)> {
        s.outliers.iter().map(|&(p, w)| (p, w.to_bits())).collect()
    };
    prop_assert_eq!(&grid.centers, &single.centers, "centers at t={}", t);
    prop_assert_eq!(
        grid.cost.to_bits(),
        single.cost.to_bits(),
        "cost at t={}",
        t
    );
    prop_assert_eq!(bits(grid), bits(single), "outliers at t={}", t);
    prop_assert_eq!(
        &grid.assignment,
        &single.assignment,
        "assignment at t={}",
        t
    );
}

fn check_grid_matches_singles<M: Metric>(
    m: &M,
    w: &WeightedSet,
    k: usize,
    budgets: &[f64],
    params: BicriteriaParams,
) {
    let grid = median_bicriteria_grid(m, w, k, budgets, Objective::Median, params);
    prop_assert_eq!(grid.len(), budgets.len());
    for (sol, &t) in grid.iter().zip(budgets) {
        let single = median_bicriteria(m, w, k, t, Objective::Median, params);
        assert_bit_identical(sol, &single, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The grid solver's answer for each budget is exactly the lone
    /// per-budget solve, whatever the budget list looks like: zero,
    /// duplicates, unsorted, at or beyond the instance size.
    #[test]
    fn grid_solve_is_bit_identical_to_per_budget_solves(
        (ps, w) in arb_weighted(20),
        raw in proptest::collection::vec(0.0f64..24.0, 1..5),
        k in 1usize..4,
        eps_idx in 0usize..3,
        squared in any::<bool>(),
        rotate in 0usize..16,
    ) {
        let n = ps.len() as f64;
        // Zero, a duplicate, one fractional and two budgets >= n, rotated
        // so neither end of the list is special.
        let mut budgets = raw.clone();
        budgets.extend([0.0, raw[0], raw[0].floor(), n, n + 3.0]);
        let len = budgets.len();
        budgets.rotate_left(rotate % len);
        let params = BicriteriaParams {
            eps: [0.0, 0.5, 1.0][eps_idx],
            ..BicriteriaParams::default()
        };
        let m = EuclideanMetric::new(&ps);
        if squared {
            check_grid_matches_singles(&SquaredMetric::new(m), &w, k, &budgets, params);
        } else {
            check_grid_matches_singles(&m, &w, k, &budgets, params);
        }
    }
}

#[test]
fn grid_solve_on_empty_points_is_one_empty_solution_per_budget() {
    let ps = PointSet::new(2);
    let m = EuclideanMetric::new(&ps);
    let w = WeightedSet::new();
    let params = BicriteriaParams::default();
    let budgets = [3.0, 0.0, 3.0];
    let grid = median_bicriteria_grid(&m, &w, 2, &budgets, Objective::Median, params);
    assert_eq!(grid.len(), budgets.len());
    for sol in &grid {
        assert!(sol.centers.is_empty() && sol.outliers.is_empty() && sol.assignment.is_empty());
        assert_eq!(sol.cost, 0.0);
    }
    assert!(median_bicriteria_grid(&m, &w, 2, &[], Objective::Median, params).is_empty());
}

fn local_search_cost<M: Metric>(m: &M, w: &WeightedSet, centers: &[usize]) -> f64 {
    w.iter()
        .map(|(id, wt)| {
            wt * centers
                .iter()
                .map(|&c| m.dist(id, c))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}
