//! The `stream-sync` workload: a 2-site `ContinuousCluster` fed one point
//! at a time, closed loop, syncing every 100 points over the mux
//! transport with RLZ-coded uploads. It exercises what the batch jobs
//! skip: the ingest write path beside the sync read path, per-sync fleet
//! start-up and poll waiting, and RLZ framing against the previous
//! summary.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dpc_api::Job;
use dpc_cluster::BicriteriaParams;
use dpc_codec::Encoding;
use dpc_coordinator::TransportKind;
use dpc_core::{evaluate_on_full_data, geometric_grid};
use dpc_metric::{Objective, PointSet};
use dpc_obs::{Collector, RecorderHandle};
use dpc_stream::{solve_weighted, ContinuousCluster, ContinuousConfig, StreamConfig, StreamEngine};
use dpc_workloads::{drifting_stream, partition, DriftSpec, PartitionStrategy};

use crate::gate::{self, centers_hash, Expect, Outcome, Pin};
use crate::layers::{self, Payload, Samples};
use crate::report::{json_array, median, quantile, unattributed_frac, Report};
use crate::{deadline_passed, secs, sys, time_setup, timed, MIN_OPS};

const K: usize = 3;
const T: usize = 4;
const DIM: usize = 4;
const BLOCK: usize = 64;
const SITES: usize = 2;
const SYNC_EVERY: u64 = 100;
/// Not a multiple of the cadence, so every pass ends in a flush sync.
const POINTS: usize = 9_950;
/// Syncs per pass: one per 100 points plus the final flush.
const SYNCS: u64 = (POINTS as u64).div_ceil(SYNC_EVERY);
/// Centers are evaluated with `(1+ε)t` points excluded (`ε = 1`).
const BUDGET: usize = 2 * T;

/// Outputs pinned for the default seed.
const PIN: Pin = Pin {
    bytes: 38571,
    cost_ratio_bits: 0x3ff1_039f_da59_ff8c,
    centers_hash: 0x380e_f86a_c1f2_475b,
};

fn spec(seed: u64) -> DriftSpec {
    DriftSpec {
        clusters: K,
        points: POINTS,
        dim: DIM,
        sigma: 1.0,
        separation: 100.0,
        drift: 0.5,
        burst_len: 2,
        burst_every: 2_500,
        seed,
    }
}

fn config() -> ContinuousConfig {
    ContinuousConfig {
        stream: StreamConfig::new(K, T).block(BLOCK).eps(1.0).threads(1),
        ..ContinuousConfig::new(K, T)
    }
    .sync_every(SYNC_EVERY)
    .transport(TransportKind::Mux)
    .encoding(Encoding::Rlz)
}

/// Whether a sync covers the first `seen` arrivals: one every
/// [`SYNC_EVERY`] points, and the final flush.
fn sync_due(seen: usize) -> bool {
    (seen as u64).is_multiple_of(SYNC_EVERY) || seen == POINTS
}

/// Everything set-up builds.
struct Inputs {
    points: PointSet,
    /// Per-site arrival streams: point `j` arrives at site `j % SITES`.
    shards: Vec<PointSet>,
    /// Per sync, by the arrival count it covers: the cost of the
    /// per-cluster means of the generated labels on the arrivals so far.
    reference: BTreeMap<u64, f64>,
}

/// The first `n` arrivals.
fn prefix(points: &PointSet, n: usize) -> PointSet {
    points.subset(&(0..n).collect::<Vec<_>>())
}

fn prefix_cost(points: &PointSet, n: usize, centers: &PointSet) -> f64 {
    let (cost, _) = evaluate_on_full_data(&[prefix(points, n)], centers, BUDGET, Objective::Median);
    cost
}

fn setup_once(seed: u64) -> (Inputs, f64, f64) {
    let (stream, generate_s) = timed(|| drifting_stream(spec(seed)));
    let (shards, partition_s) = timed(|| {
        partition(
            &stream.points,
            SITES,
            PartitionStrategy::RoundRobin,
            &[],
            seed,
        )
    });
    let mut sums = vec![vec![0.0; DIM]; K];
    let mut counts = vec![0usize; K];
    let mut reference = BTreeMap::new();
    for (i, label) in stream.labels.iter().enumerate() {
        if let Some(c) = *label {
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(stream.points.point(i)) {
                *s += x;
            }
        }
        let seen = i + 1;
        if sync_due(seen) {
            let mut means = PointSet::new(DIM);
            for (sum, &n) in sums.iter().zip(&counts) {
                let mean: Vec<f64> = sum.iter().map(|s| s / n.max(1) as f64).collect();
                means.push(&mean);
            }
            reference.insert(seen as u64, prefix_cost(&stream.points, seen, &means));
        }
    }
    let inputs = Inputs {
        points: stream.points,
        shards,
        reference,
    };
    (inputs, generate_s, partition_s)
}

/// The `j`-th arrival: its site and coordinates.
fn arrival(shards: &[PointSet], j: usize) -> (usize, &[f64]) {
    let site = j % SITES;
    (site, shards[site].point(j / SITES))
}

/// One closed-loop pass over the first `n` arrivals.
struct Pass {
    fleet: ContinuousCluster,
    wall_s: f64,
    cpu_s: f64,
    /// Summed wall of the ingest calls that fired no sync.
    ingest_s: f64,
    /// Wall of each sync-firing call, the final flush included.
    sync_ms: Vec<f64>,
}

fn pass(shards: &[PointSet], n: usize, recorder: RecorderHandle) -> Pass {
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let mut fleet = ContinuousCluster::new(DIM, SITES, config()).with_recorder(recorder);
    let mut ingest_s = 0.0;
    let mut sync_ms = Vec::with_capacity(SYNCS as usize);
    for j in 0..n {
        let (site, p) = arrival(shards, j);
        let (fired, dt) = timed(|| fleet.ingest(site, p));
        match fired {
            Some(_) => sync_ms.push(1e3 * dt),
            None => ingest_s += dt,
        }
    }
    let before = fleet.history.len();
    let (_, dt) = timed(|| fleet.sync_if_stale());
    if fleet.history.len() > before {
        sync_ms.push(1e3 * dt);
    }
    Pass {
        fleet,
        wall_s: secs(t0.elapsed()),
        cpu_s: secs(sys::process_cpu().saturating_sub(cpu0)),
        ingest_s,
        sync_ms,
    }
}

/// A pass run under `catch_unwind`, gated. Returns the pass (if it did
/// not panic) and how many of its syncs failed.
fn gated_pass(
    inputs: &Inputs,
    recorder: RecorderHandle,
    first: &mut Option<Outcome>,
    expect: &Expect,
) -> (Option<Pass>, u64) {
    let p = match catch_unwind(AssertUnwindSafe(|| pass(&inputs.shards, POINTS, recorder))) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("stream pass panicked: {}", crate::panic_message(&*e));
            return (None, SYNCS);
        }
    };
    let bad_syncs = p
        .fleet
        .history
        .iter()
        .filter(|r| r.centers.len() != K || !r.cost.is_finite())
        .count() as u64;
    let got = outcome(&p.fleet, inputs);
    let problems = gate::check(&got, first.as_ref(), expect);
    if first.is_none() {
        *first = Some(got);
    }
    if problems.is_empty() {
        (Some(p), bad_syncs)
    } else {
        eprintln!("gate: {}", problems.join("; "));
        (Some(p), SYNCS)
    }
}

/// The pass's outcome. Its cost ratio is the mean over every sync of the
/// sync's centers' cost on the arrivals so far, divided by that sync's
/// reference: the quality users saw throughout the stream, not only at
/// its end.
fn outcome(fleet: &ContinuousCluster, inputs: &Inputs) -> Outcome {
    let latest = fleet.latest().expect("a pass ends in a sync");
    let ratios: Vec<f64> = fleet
        .history
        .iter()
        .map(|r| {
            let reference = inputs.reference.get(&r.at).copied().unwrap_or(f64::NAN);
            prefix_cost(&inputs.points, r.at as usize, &r.centers) / reference
        })
        .collect();
    Outcome {
        centers: latest.centers.len(),
        cost: latest.cost,
        bytes: fleet.total_comm_bytes() as u64,
        cost_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
        centers_hash: centers_hash((0..latest.centers.len()).map(|i| latest.centers.point(i))),
        syncs: fleet.history.len() as u64,
    }
}

/// One untimed warm-up: two cadence syncs and a flush over a prefix.
fn warm_up(inputs: &Inputs) {
    let n = 2 * SYNC_EVERY as usize + 1;
    let p = pass(&inputs.shards, n, RecorderHandle::noop());
    std::hint::black_box(p.fleet.history.len());
}

fn stamp(report: &mut Report) {
    // The caller's thread plus, during each sync, one worker per site
    // and the mux event-loop shards (one per site at most).
    let shards = sys::available_parallelism().min(SITES);
    report.stamp("threads", (1 + SITES + shards).to_string());
    report.stamp("connections", SITES.to_string());
    report.stamp("sites", SITES.to_string());
    report.stamp("points", POINTS.to_string());
}

/// The end-to-end run (`--trace 0`).
pub fn measure(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (inputs, _, _) = setup_once(seed);
    let expect = Expect::new(K, SYNCS, PIN, seed);
    warm_up(&inputs);
    let setup = time_setup(|| setup_once(seed));

    let mut first = None;
    let (mut walls, mut cpus, mut syncs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_OPS || !deadline_passed(start, seconds) {
        passes += 1;
        let (p, failed) = gated_pass(&inputs, RecorderHandle::noop(), &mut first, &expect);
        report.attempted += SYNCS;
        report.failed += failed;
        if let Some(p) = p {
            walls.push(p.wall_s);
            cpus.push(p.cpu_s);
            syncs.extend(p.sync_ms);
        }
    }
    report.set("setup_s", setup.total_s);
    // Every pass panicking leaves nothing to time; the run then reports
    // itself incorrect and its timings as 0.
    if !walls.is_empty() {
        let wall = median(&walls);
        report.set("job_wall_s", wall);
        report.set("cpu_s", median(&cpus));
        report.set("ingest_points_per_s", POINTS as f64 / wall);
        report.set("sync_ms_p50", median(&syncs));
        report.set("sync_ms_p90", quantile(&syncs, 0.9));
    }
    if let Some(outcome) = first {
        report.set("bytes_total", outcome.bytes as f64);
        report.set("cost_ratio", outcome.cost_ratio);
    }
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set(
        "ops_ok_frac",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
    report.stamp("job_walls_s", json_array(&walls));
    report.stamp("syncs_timed", syncs.len().to_string());
    stamp(&mut report);
    report
}

/// One pass through the api front door (`Job::continuous` session),
/// returning its wall and the artifact's bytes and centers hash.
fn session_pass(shards: &[PointSet]) -> (f64, u64, u64) {
    let job = Job::continuous(K, T)
        .sites(SITES)
        .block(BLOCK)
        .sync_every(SYNC_EVERY)
        .transport(TransportKind::Mux)
        .encoding(Encoding::Rlz)
        .sequential()
        .validate()
        .expect("continuous job validates");
    let (art, wall) = timed(|| {
        let mut session = job.session();
        for j in 0..POINTS {
            let (site, p) = arrival(shards, j);
            session.push_at(site, p);
        }
        session.finish()
    });
    let hash = centers_hash(art.centers.iter().map(Vec::as_slice));
    (wall, art.bytes as u64, hash)
}

/// Re-runs every sync's round-0 site solves straight through the
/// `cluster` layer: the benchmark keeps its own per-site `StreamEngine`s
/// fed with the same arrivals, and at each sync solves each site's live
/// summary over the geometric grid with the sync's parameters and seeds.
/// Returns the wall of each solve call and, per site, the summary-sized
/// codec-probe payload of each sync.
fn site_solves(shards: &[PointSet]) -> (Vec<f64>, Vec<Vec<Payload>>) {
    let cfg = config();
    let grid = geometric_grid(T, cfg.rho.max(1.0 + 1e-9));
    let mut engines: Vec<StreamEngine> = (0..SITES)
        .map(|_| StreamEngine::new(DIM, cfg.stream))
        .collect();
    let mut calls = Vec::new();
    let mut chains = vec![Vec::new(); SITES];
    for j in 0..POINTS {
        let (site, p) = arrival(shards, j);
        engines[site].push(p);
        if !sync_due(j + 1) {
            continue;
        }
        for (site, engine) in engines.iter_mut().enumerate() {
            engine.flush();
            let (pts, w) = engine.live_instance();
            if w.is_empty() {
                continue;
            }
            let mut ls = cfg.stream.ls;
            ls.seed = ls.seed.wrapping_add(site as u64);
            let params = BicriteriaParams {
                eps: 0.0,
                lambda_iters: cfg.stream.lambda_iters,
                ls,
            };
            for &q in &grid {
                let (sol, dt) = timed(|| {
                    solve_weighted(&pts, &w, 2 * K, q as f64, cfg.stream.objective, params)
                });
                std::hint::black_box(sol);
                calls.push(dt);
            }
            let m = w.len().min(2 * K + T);
            let rows = w
                .iter()
                .take(m)
                .map(|(id, _)| pts.point(id).to_vec())
                .collect();
            let weights = w.iter().take(m).map(|(_, wt)| wt).collect();
            chains[site].push((rows, weights));
        }
    }
    (calls, chains)
}

/// One traced iteration: a direct fleet pass untraced and traced, a pass
/// through the api session, then each layer's direct probe.
fn trace_iteration(
    inputs: &Inputs,
    expect: &Expect,
    first: &mut Option<Outcome>,
    s: &mut Samples,
    report: &mut Report,
) {
    let collector = Arc::new(Collector::new());
    let (untraced, failed_u) = gated_pass(inputs, RecorderHandle::noop(), first, expect);
    let (traced, failed_t) = gated_pass(inputs, collector.handle(), first, expect);
    report.attempted += 2 * SYNCS;
    report.failed += failed_u + failed_t;
    let (Some(u), Some(t)) = (untraced, traced) else {
        return;
    };
    s.push("obs.trace_overhead_frac", t.wall_s / u.wall_s - 1.0);
    layers::push_counters(s, &collector.snapshot().counters);

    let sync_s: f64 = u.sync_ms.iter().sum::<f64>() / 1e3;
    let runs = || u.fleet.history.iter().map(|r| &r.stats);
    layers::push_protocol(s, runs(), sync_s);
    s.push("core.protocol_s", sync_s);
    s.push(
        "core.rounds",
        runs().map(|st| st.num_rounds()).sum::<usize>() as f64,
    );
    s.push("stream.ingest_s", u.ingest_s);
    s.push("stream.sync_s", sync_s);
    let site_s: f64 = runs().map(|st| secs(st.total_site_compute())).sum();
    let coord_s: f64 = runs().map(|st| secs(st.coordinator_compute())).sum();
    s.push(
        "unattributed_frac",
        unattributed_frac(&[u.ingest_s, site_s, coord_s], u.wall_s),
    );

    let (api_wall, api_bytes, api_hash) = session_pass(&inputs.shards);
    let direct = first.expect("a pass was gated");
    if (api_bytes, api_hash) != (direct.bytes, direct.centers_hash) {
        eprintln!("gate: the api session's bytes or centers differ from the direct fleet's");
        report.failed += 1;
    }
    s.push("api.job_overhead_s", api_wall - u.wall_s);

    let centers = &u.fleet.latest().expect("a pass ends in a sync").centers;
    let (_, evaluate_s) = timed(|| {
        evaluate_on_full_data(
            std::slice::from_ref(&inputs.points),
            centers,
            BUDGET,
            Objective::Median,
        )
    });
    s.push("core.evaluate_s", evaluate_s);
    layers::push_assign(s, &inputs.points, centers);
    let (calls, chains) = site_solves(&inputs.shards);
    layers::push_site_solves(s, &calls);
    if !layers::push_codec_probe(s, &chains) {
        eprintln!("gate: codec probe did not round-trip");
        report.failed += 1;
    }
}

/// The traced run (`--trace 1`): per-layer times and counters.
pub fn trace(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (inputs, _, _) = setup_once(seed);
    let expect = Expect::new(K, SYNCS, PIN, seed);
    warm_up(&inputs);
    let setup = time_setup(|| setup_once(seed));

    let mut first = None;
    let mut s = Samples::default();
    let start = Instant::now();
    let mut iters = 0;
    while iters < 1 || !deadline_passed(start, seconds) {
        iters += 1;
        let step = catch_unwind(AssertUnwindSafe(|| {
            trace_iteration(&inputs, &expect, &mut first, &mut s, &mut report)
        }));
        if let Err(e) = step {
            eprintln!("traced iteration panicked: {}", crate::panic_message(&*e));
            report.failed += 1;
        }
    }
    s.into_report(&mut report);
    report.set("workloads.generate_s", setup.generate_s);
    report.set("workloads.partition_s", setup.partition_s);
    report.stamp("iterations", iters.to_string());
    stamp(&mut report);
    report
}
