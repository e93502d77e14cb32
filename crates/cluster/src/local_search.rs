//! Weighted k-median/means local search with a Lagrangian per-point penalty.
//!
//! This is the computational core of the Theorem 3.1 substitute (see
//! [`crate::median_outliers`] for the rationale): each point either pays its assignment distance or opts out
//! for a fixed penalty `λ`, i.e. we minimize
//!
//! ```text
//!   Σ_e  w_e · min( d(e, K), λ )         over |K| ≤ k
//! ```
//!
//! which is exactly the Lagrangian relaxation of the `(k,t)` objective that
//! the primal-dual algorithms of \[17\] (and their outlier extension in
//! \[4\]) optimize. `λ = ∞` recovers the plain k-median. For the means
//! objective, run this over a [`dpc_metric::SquaredMetric`].
//!
//! The search is the classic single-swap heuristic (maintaining nearest
//! and second-nearest center distances per entry), plus weighted
//! D-sampling seeding. Single-swap local search is a constant-factor
//! approximation for k-median (Arya et al.), which is all the downstream
//! lemmas require of the preclustering oracle.
//!
//! # Block swap scoring
//!
//! Each iteration samples `swap_candidates` insertion points and needs,
//! for every candidate `x` and removed slot `ci`, the exact objective
//! change `a(x) + b(x)[ci]`: two sums over the entries (see
//! `score_block`). Rather than one distance row and one accumulation
//! pass per candidate, candidates are scored in blocks of `BLOCK = 8`:
//! their eight distance rows are fetched first (see "Row cache"), then a
//! single pass over the entries loads each entry's weight, nearest slot
//! and λ-clamped top-2 distances once and updates all eight candidates'
//! sums. The best swap is then picked in draw order; a strict `<` keeps
//! the first of equal deltas.
//!
//! This is bit-identical to scoring candidates one at a time: every sum
//! adds the same terms in the same entry order (the block only
//! interleaves independent sums), and clamping to `λ` once per iteration
//! changes no value because `min` is exact. Current centers and
//! candidates drawn a second time in one iteration are not scored; a
//! repeat's deltas equal its first occurrence's and never win a strict
//! `<`.
//!
//! # Row cache
//!
//! Every distance row the search reads — in seeding, block scoring and
//! the accepted-swap update — is row `e` of one instance: the distances
//! from entry `e` to every entry, `dists_from(ids[e], ids)`. A
//! `RowCache` keeps each row the first time it is computed, one
//! allocation per row, up to `ROW_CACHE_BYTES` (4 MiB: every row of an
//! instance up to n ≈ 724 entries). Past the cap, rows not cached are
//! recomputed into a reused `BLOCK·n` buffer on every use. Cached rows
//! are read in place. [`penalty_local_search`] builds a cache per call;
//! the grid solve of [`crate::median_outliers`] shares one across the
//! `λ = ∞` search and every λ step of an instance, which is where rows
//! repeat most. A site therefore holds at most 4 MiB of rows while it
//! solves, freed when its grid solve returns.
//!
//! Results are bit-identical with or without the cache: a cached row is
//! the output of the very call it replaces (same metric, anchor and
//! `ids`), and the bulk-hook contract makes that output the same at any
//! thread budget.

use crate::solution::Solution;
use dpc_metric::{Assignment2C, Metric, NearestAssigner, ThreadBudget, WeightedSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tuning for [`penalty_local_search`].
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchParams {
    /// Maximum improving swaps applied.
    pub max_iters: usize,
    /// Candidate insertion points sampled per iteration (capped to `n`).
    /// Every draw is taken from the RNG, but current centers and repeat
    /// draws within one iteration are not scored.
    pub swap_candidates: usize,
    /// Relative improvement threshold for accepting a swap.
    pub min_rel_gain: f64,
    /// RNG seed (seeding + candidate sampling are the only random choices).
    pub seed: u64,
    /// Thread budget for the bulk distance passes (state recomputation and
    /// swap-delta scoring). Wall-clock only — results are identical at any
    /// budget.
    pub threads: ThreadBudget,
}

impl Default for LocalSearchParams {
    fn default() -> Self {
        Self {
            max_iters: 60,
            swap_candidates: 48,
            min_rel_gain: 1e-6,
            seed: 0x5eed,
            threads: ThreadBudget::serial(),
        }
    }
}

/// State carried by the search: nearest / second-nearest center per entry
/// *with both positions* ([`NearestAssigner::assign2c`]), so an accepted
/// swap updates the state incrementally instead of re-scanning every
/// entry against every center.
type NearestState = Assignment2C;

/// Penalized cost of the current state.
fn penalized_cost(state: &NearestState, weights: &[f64], penalty: f64) -> f64 {
    state
        .d1
        .iter()
        .zip(weights)
        .map(|(&d, &w)| w * d.min(penalty))
        .sum()
}

/// Weighted D-sampling seeding (k-means++ style) under the penalty metric:
/// the first center is the weighted medoid-ish heaviest point, subsequent
/// centers are sampled proportionally to `w · min(d, λ)`.
fn seed_centers<M: Metric>(
    assigner: &NearestAssigner<'_, M>,
    points: &WeightedSet,
    k: usize,
    penalty: f64,
    rng: &mut SmallRng,
    cache: &mut RowCache,
    scratch: &mut Vec<f64>,
) -> Vec<usize> {
    let ids = points.ids();
    let weights = points.weights();
    let n = ids.len();
    let k = k.min(n);
    let mut centers = Vec::with_capacity(k);

    // First center: the entry with maximum weight (deterministic anchor).
    let first = (0..n)
        .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
        .expect("non-empty points");
    centers.push(ids[first]);

    let mut d1 = cache.row(first, assigner, ids, scratch).to_vec();
    while centers.len() < k {
        let scores: Vec<f64> = d1
            .iter()
            .zip(weights)
            .map(|(&d, &w)| w * d.min(penalty))
            .collect();
        let total: f64 = scores.iter().sum();
        let chosen = if total <= 0.0 {
            // Everything already covered at distance 0: any remaining entry.
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
        let dists = cache.row(chosen, assigner, ids, scratch);
        for (dd, &d) in d1.iter_mut().zip(dists) {
            if d < *dd {
                *dd = d;
            }
        }
    }
    centers
}

/// Byte cap on the rows one [`RowCache`] holds (4 MiB: every row up to
/// n ≈ 724 entries).
const ROW_CACHE_BYTES: usize = 4 << 20;

/// Distance rows of one instance, shared by every local search over it:
/// row `e` is exactly `dists_from(ids[e], ids)`, computed on first use
/// and kept while the byte cap allows. Each row is its own allocation
/// rather than one slice of an n² block: successive sites' instances
/// differ slightly in size, so a freed block rarely fits the next one
/// and the heap fragments, while row-sized chunks recycle.
pub(crate) struct RowCache {
    rows: Vec<Option<Box<[f64]>>>,
    /// Rows that may still be cached.
    room: usize,
}

impl RowCache {
    /// An empty cache for an instance of `n` entries.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            rows: vec![None; n],
            room: ROW_CACHE_BYTES / (n * std::mem::size_of::<f64>()).max(1),
        }
    }

    /// An empty cache for `n` entries holding at most `room` rows.
    #[cfg(test)]
    fn with_room(n: usize, room: usize) -> Self {
        Self {
            room,
            ..Self::new(n)
        }
    }

    /// Caches row `e` if it is not cached and there is room; returns
    /// whether it is cached.
    fn fill<M: Metric>(
        &mut self,
        e: usize,
        assigner: &NearestAssigner<'_, M>,
        ids: &[usize],
    ) -> bool {
        if self.rows[e].is_none() && self.room > 0 {
            let mut row = Vec::with_capacity(ids.len());
            assigner.dists_from(ids[e], ids, &mut row);
            self.rows[e] = Some(row.into_boxed_slice());
            self.room -= 1;
        }
        self.rows[e].is_some()
    }

    /// Row `e`: from the cache (filling it if there is room), else
    /// computed into `scratch`.
    fn row<'a, M: Metric>(
        &'a mut self,
        e: usize,
        assigner: &NearestAssigner<'_, M>,
        ids: &[usize],
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        if self.fill(e, assigner, ids) {
            return self.rows[e].as_deref().expect("filled");
        }
        assigner.dists_from(ids[e], ids, scratch);
        scratch
    }
}

/// Swap candidates scored per pass over the entries.
const BLOCK: usize = 8;

/// Swap deltas of one block of candidates: `delta(j, ci) = a[j] +
/// b[ci][j]` for the candidate whose distances to the entries are
/// `rows[j]`, where
///
/// ```text
///   a[j]     = Σ_e        w_e (min(dx, d1, λ) − min(d1, λ))
///   b[ci][j] = Σ_{c1 = ci} w_e (min(d2, dx, λ) − min(dx, d1, λ))
/// ```
///
/// with `b[ci][j]` stored at `b[ci·BLOCK + j]` and `d1_cap` / `d2_cap`
/// the top-2 distances already clamped to `λ`. One pass over the entries
/// serves all `BLOCK` candidates (the module docs say why the sums stay
/// bit-identical).
fn score_block(
    rows: [&[f64]; BLOCK],
    weights: &[f64],
    c1: &[usize],
    d1_cap: &[f64],
    d2_cap: &[f64],
    b: &mut [f64],
) -> [f64; BLOCK] {
    let mut a = [0.0f64; BLOCK];
    for e in 0..weights.len() {
        let w = weights[e];
        if w == 0.0 {
            continue;
        }
        let (old, d2) = (d1_cap[e], d2_cap[e]);
        let bc = &mut b[c1[e] * BLOCK..(c1[e] + 1) * BLOCK];
        for j in 0..BLOCK {
            let dx = rows[j][e];
            let with_x = dx.min(old);
            a[j] += w * (with_x - old);
            bc[j] += w * (dx.min(d2) - with_x);
        }
    }
    a
}

/// Runs the penalized single-swap local search.
///
/// Returns the chosen centers together with the *penalized* objective in
/// `cost`; `outliers` lists entries whose nearest-center distance strictly
/// exceeds `penalty` (their full weight is charged the penalty), and
/// `assignment` is nearest-center as usual. Callers wanting the `(k,t)`
/// semantics should re-evaluate the centers with
/// [`Solution::evaluate`](crate::solution::Solution::evaluate).
///
/// # Panics
/// Panics if `points` is empty or `k == 0`.
pub fn penalty_local_search<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    penalty: f64,
    params: LocalSearchParams,
) -> Solution {
    let mut cache = RowCache::new(points.len());
    penalty_local_search_cached(metric, points, k, penalty, params, &mut cache)
}

/// [`penalty_local_search`] reading its distance rows through `cache`,
/// which must belong to the same `points` (see the module docs).
pub(crate) fn penalty_local_search_cached<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    penalty: f64,
    params: LocalSearchParams,
    cache: &mut RowCache,
) -> Solution {
    assert!(!points.is_empty(), "local search requires points");
    assert!(k > 0, "need at least one center");
    let ids = points.ids();
    let weights = points.weights();
    let n = ids.len();
    debug_assert_eq!(cache.rows.len(), n, "row cache of another instance");
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let assigner = NearestAssigner::with_threads(metric, params.threads);

    let mut dx_all = Vec::with_capacity(n);
    let mut centers = seed_centers(&assigner, points, k, penalty, &mut rng, cache, &mut dx_all);
    let mut state: NearestState = assigner.assign2c(ids, &centers);
    let mut cost = penalized_cost(&state, weights, penalty);
    // Per-iteration scratch, reused across iterations: the clamped top-2
    // distances, the scored candidates, candidate-major rows for the
    // candidates the cache cannot hold and the block's per-slot sums.
    let mut d1_cap = vec![0.0f64; n];
    let mut d2_cap = vec![0.0f64; n];
    let mut picked: Vec<usize> = Vec::with_capacity(params.swap_candidates.min(n));
    let mut uncached = vec![0.0f64; BLOCK * n];
    let mut b: Vec<f64> = Vec::new();
    let mut stale: Vec<usize> = Vec::new();
    let mut stale_ids: Vec<usize> = Vec::new();

    for _ in 0..params.max_iters {
        let kk = centers.len();
        // Sample candidate insertions. Current centers and repeat draws
        // are drawn but not scored (see the module docs).
        picked.clear();
        for _ in 0..params.swap_candidates.min(n) {
            let cand = rng.gen_range(0..n);
            let x = ids[cand];
            if !centers.contains(&x) && !picked.iter().any(|&p| ids[p] == x) {
                picked.push(cand);
            }
        }
        for e in 0..n {
            d1_cap[e] = state.d1[e].min(penalty);
            d2_cap[e] = state.d2[e].min(penalty);
        }
        let mut best: Option<(usize, usize, f64)> = None; // (cand entry, removed pos, delta)
        for block in picked.chunks(BLOCK) {
            // Lane `j` reads the `j`-th candidate's row in place from the
            // cache, or from lane `j` of `uncached` past the byte cap.
            // Lanes past the end of a short last block repeat lane 0;
            // their sums are computed and ignored.
            for (j, &cand) in block.iter().enumerate() {
                if !cache.fill(cand, &assigner, ids) {
                    assigner.dists_from(ids[cand], ids, &mut dx_all);
                    uncached[j * n..(j + 1) * n].copy_from_slice(&dx_all);
                }
            }
            let rows: [&[f64]; BLOCK] = std::array::from_fn(|j| {
                let (j, cand) = block.get(j).map_or((0, block[0]), |&c| (j, c));
                cache.rows[cand]
                    .as_deref()
                    .unwrap_or_else(|| &uncached[j * n..(j + 1) * n])
            });
            b.clear();
            b.resize(kk * BLOCK, 0.0);
            let a = score_block(rows, weights, &state.c1, &d1_cap, &d2_cap, &mut b);
            for (j, &cand) in block.iter().enumerate() {
                for ci in 0..kk {
                    let delta = a[j] + b[ci * BLOCK + j];
                    if best.is_none_or(|(_, _, bd)| delta < bd) {
                        best = Some((cand, ci, delta));
                    }
                }
            }
        }
        match best {
            Some((cand, ci, delta)) if delta < -params.min_rel_gain * cost.max(1e-30) => {
                centers[ci] = ids[cand];
                // Incremental state update. Only the center at slot `ci`
                // changed, so for entries whose top-2 did not involve it
                // the new top-2 is the lex merge of the old pair with the
                // one new `(dx, ci)` candidate — one pass over the
                // candidate's row, cached when it was scored. Entries
                // whose nearest or second-nearest *was* the replaced slot
                // lose that anchor and rescan against the full center
                // list, but they are the minority (one cluster's worth
                // per swap).
                let dx_row = cache.row(cand, &assigner, ids, &mut dx_all);
                stale.clear();
                for (e, &dx) in dx_row.iter().enumerate() {
                    if state.c1[e] == ci || state.c2[e] == ci {
                        stale.push(e);
                        continue;
                    }
                    // Lex merge on (distance, position): reproduces the
                    // strict-< first-wins scan under any visit order.
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
                    stale_ids.clear();
                    stale_ids.extend(stale.iter().map(|&e| ids[e]));
                    let sub = assigner.assign2c(&stale_ids, &centers);
                    for (s, &e) in stale.iter().enumerate() {
                        state.c1[e] = sub.c1[s];
                        state.c2[e] = sub.c2[s];
                        state.d1[e] = sub.d1[s];
                        state.d2[e] = sub.d2[s];
                    }
                }
                #[cfg(debug_assertions)]
                {
                    // The incremental state must agree with a fresh full
                    // rescan: bit-identical for metrics whose bulk hooks
                    // share one distance domain (Euclidean), within the
                    // documented ~1-ulp squared-routing exception
                    // otherwise — so distances are compared with a
                    // tolerance and positions only where the gap is
                    // decisive.
                    let fresh = assigner.assign2c(ids, &centers);
                    let close =
                        |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
                    for e in 0..n {
                        debug_assert!(
                            close(state.d1[e], fresh.d1[e]) && close(state.d2[e], fresh.d2[e]),
                            "incremental top-2 distances diverged at entry {e}"
                        );
                        if !close(fresh.d1[e], fresh.d2[e]) {
                            debug_assert_eq!(
                                state.c1[e], fresh.c1[e],
                                "incremental nearest position diverged at entry {e}"
                            );
                        }
                    }
                }
                cost += delta;
                // Guard against floating drift.
                debug_assert!(
                    (penalized_cost(&state, weights, penalty) - cost).abs()
                        <= 1e-6 * cost.abs().max(1.0)
                );
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

/// Plain weighted k-median local search (no penalty): a convenience wrapper
/// used for `t = 0` instances and baselines.
pub fn kmedian_local_search<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    k: usize,
    params: LocalSearchParams,
) -> Solution {
    let mut sol = penalty_local_search(metric, points, k, f64::INFINITY, params);
    sol.outliers.clear();
    sol
}

/// Evaluates the penalized objective for arbitrary centers by brute force
/// (the unit tests cross-check the search's cost against it).
pub fn penalized_objective<M: Metric>(
    metric: &M,
    points: &WeightedSet,
    centers: &[usize],
    penalty: f64,
) -> f64 {
    points
        .iter()
        .map(|(id, w)| {
            let d = centers
                .iter()
                .map(|&c| metric.dist(id, c))
                .fold(f64::INFINITY, f64::min);
            w * d.min(penalty)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_metric::{EuclideanMetric, PointSet, SquaredMetric};

    fn two_clumps() -> PointSet {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..10 {
            rows.push(vec![100.0 + 0.01 * i as f64, 0.0]);
        }
        PointSet::from_rows(&rows)
    }

    #[test]
    fn finds_both_clumps() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let sol = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        // One center in each clump: cost well below 1.0 (vs ~1000 for a
        // single-clump placement).
        assert!(sol.cost < 1.0, "cost {}", sol.cost);
        let c0 = ps.point(sol.centers[0])[0];
        let c1 = ps.point(sol.centers[1])[0];
        assert!((c0 < 50.0) != (c1 < 50.0), "centers must split the clumps");
    }

    #[test]
    fn penalty_marks_far_points_outliers() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![500.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(4);
        let sol = penalty_local_search(&m, &w, 1, 10.0, LocalSearchParams::default());
        assert_eq!(sol.outliers.len(), 1);
        assert_eq!(sol.outliers[0].0, 3);
        // Penalized cost = within-clump cost + λ for the outlier.
        assert!(sol.cost <= 0.3 + 10.0 + 1e-9);
    }

    #[test]
    fn infinite_penalty_equals_plain() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let a = penalty_local_search(&m, &w, 2, f64::INFINITY, LocalSearchParams::default());
        let b = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        assert_eq!(a.centers, b.centers);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn respects_weights() {
        // A weight-100 point far away must attract a center over a weight-1
        // clump when k=1.
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![1000.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::from_parts(vec![0, 1, 2], vec![1.0, 1.0, 100.0]);
        let sol = kmedian_local_search(&m, &w, 1, LocalSearchParams::default());
        assert_eq!(sol.centers, vec![2]);
    }

    #[test]
    fn works_with_squared_metric_for_means() {
        let ps = two_clumps();
        let m = SquaredMetric::new(EuclideanMetric::new(&ps));
        let w = WeightedSet::unit(20);
        let sol = kmedian_local_search(&m, &w, 2, LocalSearchParams::default());
        assert!(sol.cost < 1.0, "means cost {}", sol.cost);
    }

    #[test]
    fn k_larger_than_n_caps() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![5.0]]);
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(2);
        let sol = kmedian_local_search(&m, &w, 5, LocalSearchParams::default());
        assert!(sol.cost <= 1e-12);
    }

    #[test]
    fn objective_helper_matches_search_cost() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let sol = penalty_local_search(&m, &w, 2, 3.0, LocalSearchParams::default());
        let check = penalized_objective(&m, &w, &sol.centers, 3.0);
        assert!((sol.cost - check).abs() <= 1e-9 * check.max(1.0));
    }

    #[test]
    fn deterministic_under_seed() {
        let ps = two_clumps();
        let m = EuclideanMetric::new(&ps);
        let w = WeightedSet::unit(20);
        let p = LocalSearchParams {
            seed: 42,
            ..Default::default()
        };
        let a = kmedian_local_search(&m, &w, 3, p);
        let b = kmedian_local_search(&m, &w, 3, p);
        assert_eq!(a.centers, b.centers);
    }

    /// A cache shared across a grid-style sequence of searches (λ = ∞,
    /// then λ steps with per-step seeds) changes no answer, whether it
    /// holds no row, one, a few or all of them.
    #[test]
    fn shared_row_cache_matches_fresh_uncached_searches() {
        let mut rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 3) as f64 * 40.0 + 0.1 * i as f64, (i % 7) as f64])
            .collect();
        rows.extend([vec![900.0, 0.0], vec![-700.0, 300.0]]);
        let ps = PointSet::from_rows(&rows);
        let m = EuclideanMetric::new(&ps);
        let n = ps.len();
        let w = WeightedSet::from_parts((0..n).collect(), (0..n).map(|i| (i % 4) as f64).collect());
        let base = LocalSearchParams {
            swap_candidates: 12,
            ..Default::default()
        };
        // (λ, seed offset) in the order the grid solve issues them,
        // including a repeated step.
        let calls = [
            (f64::INFINITY, 0),
            (30.0, 1),
            (5.0, 2),
            (12.0, 3),
            (30.0, 1),
            (0.5, 4),
        ];
        for room in [0, 1, 5, n] {
            let mut shared = RowCache::with_room(n, room);
            for &(lambda, step) in &calls {
                let params = LocalSearchParams {
                    seed: base.seed.wrapping_add(step),
                    ..base
                };
                let got = penalty_local_search_cached(&m, &w, 3, lambda, params, &mut shared);
                let fresh = penalty_local_search_cached(
                    &m,
                    &w,
                    3,
                    lambda,
                    params,
                    &mut RowCache::with_room(n, 0),
                );
                assert_eq!(got.centers, fresh.centers, "room {room}, λ {lambda}");
                assert_eq!(got.cost.to_bits(), fresh.cost.to_bits());
                assert_eq!(got.outliers, fresh.outliers);
                assert_eq!(got.assignment, fresh.assignment);
            }
            let cached = shared.rows.iter().filter(|r| r.is_some()).count();
            assert_eq!(cached, room.min(n), "room {room} must be used up");
        }
    }
}
