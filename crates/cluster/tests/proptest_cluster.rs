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

/// The per-candidate swap scorer that block scoring replaced, frozen as
/// an oracle: every sampled candidate gets its own distance row and its
/// own accumulation pass. Debug-only cross-checks are left out; they do
/// not touch the search state. `median_bicriteria_grid` freezes the grid
/// solve over it as it was before distance rows were cached: every local
/// search computes its own rows.
mod per_candidate {
    use dpc_cluster::{BicriteriaParams, Solution};
    use dpc_metric::{Assignment2C, Metric, NearestAssigner, Objective, ThreadBudget, WeightedSet};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    pub fn median_bicriteria_grid<M: Metric>(
        metric: &M,
        points: &WeightedSet,
        k: usize,
        budgets: &[f64],
        params: BicriteriaParams,
    ) -> Vec<Solution> {
        let objective = Objective::Median;
        let plain = penalty_local_search(metric, points, k, f64::INFINITY, params.ls).centers;
        let bracket = if budgets.iter().any(|&t| t > 0.0) {
            lambda_bracket(metric, points, &plain)
        } else {
            None
        };
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
                            ls.seed = ls.seed.wrapping_add(it as u64 + 1);
                            let cand = penalty_local_search(metric, points, k, lambda, ls);
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

    fn penalized_cost(state: &Assignment2C, weights: &[f64], penalty: f64) -> f64 {
        state
            .d1
            .iter()
            .zip(weights)
            .map(|(&d, &w)| w * d.min(penalty))
            .sum()
    }

    fn seed_centers<M: Metric>(
        metric: &M,
        points: &WeightedSet,
        k: usize,
        penalty: f64,
        rng: &mut SmallRng,
        threads: ThreadBudget,
    ) -> Vec<usize> {
        let ids = points.ids();
        let weights = points.weights();
        let n = ids.len();
        let k = k.min(n);
        let mut centers = Vec::with_capacity(k);
        let assigner = NearestAssigner::with_threads(metric, threads);
        let first = (0..n)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .expect("non-empty points");
        centers.push(ids[first]);
        let mut d1 = Vec::with_capacity(n);
        assigner.dists_from(ids[first], ids, &mut d1);
        let mut dists = Vec::with_capacity(n);
        while centers.len() < k {
            let scores: Vec<f64> = d1
                .iter()
                .zip(weights)
                .map(|(&d, &w)| w * d.min(penalty))
                .collect();
            let total: f64 = scores.iter().sum();
            let chosen = if total <= 0.0 {
                (0..n).find(|&e| d1[e] > 0.0).unwrap_or(centers.len() % n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut pick = n - 1;
                for (e, &s) in scores.iter().enumerate() {
                    if target < s {
                        pick = e;
                        break;
                    }
                    target -= s;
                }
                pick
            };
            centers.push(ids[chosen]);
            assigner.dists_from(ids[chosen], ids, &mut dists);
            for (dd, &d) in d1.iter_mut().zip(&dists) {
                if d < *dd {
                    *dd = d;
                }
            }
        }
        centers
    }

    pub fn penalty_local_search<M: Metric>(
        metric: &M,
        points: &WeightedSet,
        k: usize,
        penalty: f64,
        params: dpc_cluster::LocalSearchParams,
    ) -> Solution {
        let ids = points.ids();
        let weights = points.weights();
        let n = ids.len();
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let assigner = NearestAssigner::with_threads(metric, params.threads);
        let mut centers = seed_centers(metric, points, k, penalty, &mut rng, params.threads);
        let mut state = assigner.assign2c(ids, &centers);
        let mut cost = penalized_cost(&state, weights, penalty);
        let mut dx_all = Vec::with_capacity(n);
        let mut stale: Vec<usize> = Vec::new();
        for _ in 0..params.max_iters {
            let kk = centers.len();
            let cand_count = params.swap_candidates.min(n);
            let mut best: Option<(usize, usize, f64)> = None;
            for _ in 0..cand_count {
                let cand = rng.gen_range(0..n);
                let x = ids[cand];
                if centers.contains(&x) {
                    continue;
                }
                assigner.dists_from(x, ids, &mut dx_all);
                let mut a = 0.0f64;
                let mut b = vec![0.0f64; kk];
                for e in 0..n {
                    let w = weights[e];
                    if w == 0.0 {
                        continue;
                    }
                    let dx = dx_all[e];
                    let old = state.d1[e].min(penalty);
                    let with_x = dx.min(state.d1[e]).min(penalty);
                    a += w * (with_x - old);
                    let without_c1 = state.d2[e].min(dx).min(penalty);
                    b[state.c1[e]] += w * (without_c1 - with_x);
                }
                for (ci, &bc) in b.iter().enumerate() {
                    let delta = a + bc;
                    if best.is_none_or(|(_, _, bd)| delta < bd) {
                        best = Some((cand, ci, delta));
                    }
                }
            }
            match best {
                Some((cand, ci, delta)) if delta < -params.min_rel_gain * cost.max(1e-30) => {
                    centers[ci] = ids[cand];
                    assigner.dists_from(ids[cand], ids, &mut dx_all);
                    stale.clear();
                    for (e, &dx) in dx_all.iter().enumerate().take(n) {
                        if state.c1[e] == ci || state.c2[e] == ci {
                            stale.push(e);
                            continue;
                        }
                        if dx < state.d1[e] || (dx == state.d1[e] && ci < state.c1[e]) {
                            state.d2[e] = state.d1[e];
                            state.c2[e] = state.c1[e];
                            state.d1[e] = dx;
                            state.c1[e] = ci;
                        } else if dx < state.d2[e] || (dx == state.d2[e] && ci < state.c2[e]) {
                            state.d2[e] = dx;
                            state.c2[e] = ci;
                        }
                    }
                    if !stale.is_empty() {
                        let stale_ids: Vec<usize> = stale.iter().map(|&e| ids[e]).collect();
                        let sub = assigner.assign2c(&stale_ids, &centers);
                        for (s, &e) in stale.iter().enumerate() {
                            state.c1[e] = sub.c1[s];
                            state.c2[e] = sub.c2[s];
                            state.d1[e] = sub.d1[s];
                            state.d2[e] = sub.d2[s];
                        }
                    }
                    cost = penalized_cost(&state, weights, penalty);
                }
                _ => break,
            }
        }
        let outliers: Vec<(usize, f64)> = state
            .d1
            .iter()
            .enumerate()
            .filter(|&(e, &d)| d > penalty && weights[e] > 0.0)
            .map(|(e, _)| (e, weights[e]))
            .collect();
        Solution {
            centers,
            cost,
            outliers,
            assignment: state.c1,
        }
    }
}

/// Weighted 2-d instances with `1..max_n` entries built for ties: on a
/// coarse integer grid most points have duplicates, and a third of the
/// weights are zero.
fn arb_tied(max_n: usize) -> impl Strategy<Value = (PointSet, WeightedSet)> {
    (
        proptest::collection::vec(
            (proptest::collection::vec(0.0f64..6.0, 2..=2), 0usize..6),
            1..max_n,
        ),
        any::<bool>(),
    )
        .prop_map(|(entries, coarse)| {
            let (rows, weights): (Vec<Vec<f64>>, Vec<f64>) = entries
                .into_iter()
                .map(|(row, wi)| {
                    let row = if coarse {
                        row.iter().map(|v| v.floor()).collect()
                    } else {
                        row
                    };
                    (row, [0.0, 0.0, 1.0, 0.5, 2.0, 7.25][wi])
                })
                .unzip();
            let w = WeightedSet::from_parts((0..rows.len()).collect(), weights);
            (PointSet::from_rows(&rows), w)
        })
}

/// Block scoring against the frozen per-candidate scorer, over a
/// Euclidean, a squared and a tie-heavy L1 matrix metric.
/// The L1 distances of `ps` as a matrix metric (ties are common on the
/// integer grids of `arb_tied`).
fn l1_matrix(ps: &PointSet) -> MatrixMetric {
    MatrixMetric::from_fn(ps.len(), |i, j| {
        ps.point(i)
            .iter()
            .zip(ps.point(j))
            .map(|(a, b)| (a - b).abs())
            .sum()
    })
}

fn check_block_matches_per_candidate(
    ps: &PointSet,
    w: &WeightedSet,
    k: usize,
    penalty: f64,
    params: LocalSearchParams,
) {
    let m = EuclideanMetric::new(ps);
    let l1 = l1_matrix(ps);
    let solutions = [
        penalty_local_search(&m, w, k, penalty, params),
        penalty_local_search(&SquaredMetric::new(m), w, k, penalty, params),
        penalty_local_search(&l1, w, k, penalty, params),
    ];
    let oracles = [
        per_candidate::penalty_local_search(&m, w, k, penalty, params),
        per_candidate::penalty_local_search(&SquaredMetric::new(m), w, k, penalty, params),
        per_candidate::penalty_local_search(&l1, w, k, penalty, params),
    ];
    for (sol, oracle) in solutions.iter().zip(&oracles) {
        assert_bit_identical(sol, oracle, penalty);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Scoring candidates in blocks picks the same swaps as scoring them
    /// one by one: same centers, cost bits, outliers and assignment, for
    /// blocks shorter than, equal to and not dividing `n`, candidate
    /// counts that force repeat draws, `k >= n`, and any thread budget.
    #[test]
    fn block_swap_scoring_is_bit_identical_to_per_candidate_scoring(
        (ps, w) in arb_tied(30),
        k_raw in 0usize..40,
        lambda_idx in 0usize..4,
        cand_idx in 0usize..4,
        seed in 0u64..1_000,
        threads in 1usize..=3,
    ) {
        let n = ps.len();
        let params = LocalSearchParams {
            swap_candidates: [1, 7, 48, n + 5][cand_idx],
            seed,
            threads: ThreadBudget::new(threads),
            ..LocalSearchParams::default()
        };
        let k = 1 + k_raw % (n + 2);
        let penalty = [f64::INFINITY, 0.75, 3.0, 40.0][lambda_idx];
        check_block_matches_per_candidate(&ps, &w, k, penalty, params);
    }
}

/// The same equivalence at a size where a 3-thread budget really splits
/// the distance rows (chunks are at least 256 entries).
#[test]
fn block_swap_scoring_matches_per_candidate_scoring_under_threads() {
    let rows: Vec<Vec<f64>> = (0..700)
        .map(|i| {
            let c = (i % 5) as f64 * 40.0;
            vec![
                c + ((i * 37) % 11) as f64 * 0.5,
                ((i * 53) % 13) as f64 * 0.5,
            ]
        })
        .collect();
    let ps = PointSet::from_rows(&rows);
    let w = WeightedSet::from_parts(
        (0..rows.len()).collect(),
        (0..rows.len()).map(|i| (i % 4) as f64).collect(),
    );
    for (k, penalty) in [(5, f64::INFINITY), (10, 6.0)] {
        let params = LocalSearchParams {
            threads: ThreadBudget::new(3),
            max_iters: 8,
            ..LocalSearchParams::default()
        };
        check_block_matches_per_candidate(&ps, &w, k, penalty, params);
    }
}

/// The grid solve, whose local searches share one row cache, against the
/// frozen grid loop over the per-candidate oracle, in which every search
/// computes its own rows: bit-identical for every budget on a Euclidean,
/// a squared and an L1 matrix metric.
fn check_grid_matches_uncached_oracle(
    ps: &PointSet,
    w: &WeightedSet,
    k: usize,
    budgets: &[f64],
    params: BicriteriaParams,
) {
    fn check<M: Metric>(
        m: &M,
        w: &WeightedSet,
        k: usize,
        budgets: &[f64],
        params: BicriteriaParams,
    ) {
        let grid = median_bicriteria_grid(m, w, k, budgets, Objective::Median, params);
        let oracle = per_candidate::median_bicriteria_grid(m, w, k, budgets, params);
        prop_assert_eq!(grid.len(), budgets.len());
        for ((sol, want), &t) in grid.iter().zip(&oracle).zip(budgets) {
            assert_bit_identical(sol, want, t);
        }
    }
    let m = EuclideanMetric::new(ps);
    check(&m, w, k, budgets, params);
    check(&SquaredMetric::new(m), w, k, budgets, params);
    check(&l1_matrix(ps), w, k, budgets, params);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sharing one row cache across the grid's local searches changes no
    /// answer, for budget lists with zero, duplicates and budgets at or
    /// beyond the instance size.
    #[test]
    fn cached_grid_solve_is_bit_identical_to_uncached_grid_solve(
        (ps, w) in arb_tied(30),
        raw in proptest::collection::vec(0.0f64..12.0, 1..4),
        k in 1usize..5,
        eps_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let n = ps.len() as f64;
        let mut budgets = raw.clone();
        budgets.extend([0.0, raw[0], n, n + 2.0]);
        let params = BicriteriaParams {
            eps: [0.0, 0.5, 1.0][eps_idx],
            ls: LocalSearchParams {
                seed,
                ..LocalSearchParams::default()
            },
            ..BicriteriaParams::default()
        };
        check_grid_matches_uncached_oracle(&ps, &w, k, &budgets, params);
    }
}

/// The same equivalence where the cache's byte cap binds: 4 MiB holds
/// 655 rows of 800 entries, so the searches also score candidates whose
/// rows are recomputed on every use. 160 candidates per iteration over
/// the λ steps of seven budgets fill the cache early, and a few accepted
/// swaps come from past the cap.
#[test]
fn cached_grid_solve_matches_uncached_grid_solve_past_the_byte_cap() {
    let rows: Vec<Vec<f64>> = (0..800)
        .map(|i| {
            let c = (i % 6) as f64 * 30.0;
            vec![
                c + ((i * 37) % 17) as f64 * 0.4,
                ((i * 53) % 19) as f64 * 0.4,
            ]
        })
        .collect();
    let ps = PointSet::from_rows(&rows);
    let w = WeightedSet::from_parts(
        (0..rows.len()).collect(),
        (0..rows.len()).map(|i| (i % 3) as f64).collect(),
    );
    let params = BicriteriaParams {
        lambda_iters: 8,
        ls: LocalSearchParams {
            max_iters: 4,
            swap_candidates: 160,
            ..LocalSearchParams::default()
        },
        ..BicriteriaParams::default()
    };
    check_grid_matches_uncached_oracle(
        &ps,
        &w,
        6,
        &[0.0, 2.0, 4.0, 16.0, 16.0, 64.0, 900.0],
        params,
    );
}
