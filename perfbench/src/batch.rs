//! The batch workloads: one `ValidJob::run` per operation, closed loop,
//! one client, every site solved on the caller's thread.
//!
//! * `median-sites` — Algorithm 1 over 8 sites. Round-0 site solving
//!   (`median_bicriteria` over the geometric grid) is nearly all of the
//!   wall, so site-solver changes show here and transport or codec
//!   changes should not.
//! * `center-fanout` — Algorithm 2 over 256 small sites. The one
//!   weighted coordinator solve over the union of the 256 summaries is
//!   nearly all of the wall, so a site-solver change should not move it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dpc_api::{Artifact, Job, ValidJob};
use dpc_cluster::{gonzalez_with, median_bicriteria, BicriteriaParams};
use dpc_coordinator::{CommStats, RunOptions};
use dpc_core::{
    evaluate_on_full_data, geometric_grid, merge_shards, run_distributed_center,
    run_distributed_median, CenterConfig, MedianConfig,
};
use dpc_metric::{EuclideanMetric, Objective, PointSet, ThreadBudget, WeightedSet};
use dpc_workloads::{gaussian_blobs, partition, BlobsSpec, PartitionStrategy};

use crate::gate::{self, centers_hash, Expect, Outcome, Pin};
use crate::layers::{self, Payload, Samples};
use crate::report::{json_array, median, quantile, unattributed_frac, Report};
use crate::{deadline_passed, secs, sys, time_setup, timed, MIN_OPS};

/// Which distributed protocol a batch workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Algorithm 1, `(k,t)`-median.
    Median,
    /// Algorithm 2, `(k,t)`-center.
    Center,
}

/// A batch workload: its input generator and its job.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// Protocol the job runs.
    pub protocol: Protocol,
    /// Centers requested.
    pub k: usize,
    /// Outlier budget.
    pub t: usize,
    /// Sites the points are split across.
    pub sites: usize,
    /// How the job splits the points.
    pub strategy: PartitionStrategy,
    /// Planted Gaussian clusters.
    pub clusters: usize,
    /// Total points, planted outliers included.
    pub points: usize,
    /// Dimension.
    pub dim: usize,
    /// Outputs pinned for the default seed.
    pub pin: Pin,
}

/// `median-sites`: `(8,32)`-median, 8 sites, 4,000 points in 8 dimensions.
pub const MEDIAN_SITES: Batch = Batch {
    protocol: Protocol::Median,
    k: 8,
    t: 32,
    sites: 8,
    strategy: PartitionStrategy::Random,
    clusters: 8,
    points: 4_000,
    dim: 8,
    pin: Pin {
        bytes: 13906,
        cost_ratio_bits: 0x3ff1_1772_767d_5be4,
        centers_hash: 0x0bd4_f5d3_93c6_9cfc,
    },
};

/// `center-fanout`: `(4,8)`-center, 256 sites of 64 points in 8 dimensions.
pub const CENTER_FANOUT: Batch = Batch {
    protocol: Protocol::Center,
    k: 4,
    t: 8,
    sites: 256,
    strategy: PartitionStrategy::RoundRobin,
    clusters: 4,
    points: 256 * 64,
    dim: 8,
    pin: Pin {
        bytes: 93056,
        cost_ratio_bits: 0x3ff4_2eaa_8560_5bde,
        centers_hash: 0xf64e_1d18_329b_3040,
    },
};

/// Everything set-up builds for a batch workload.
struct Inputs {
    points: PointSet,
    shards: Vec<PointSet>,
    /// Cost of the planted centers on the full data at the job's budget.
    reference: f64,
    job: ValidJob,
    traced_job: ValidJob,
}

impl Batch {
    /// Centers evaluated with this many worst points excluded: `(1+ε)t`
    /// with the job's default `ε = 1` for median, exactly `t` for center.
    fn budget(&self) -> usize {
        match self.protocol {
            Protocol::Median => 2 * self.t,
            Protocol::Center => self.t,
        }
    }

    fn objective(&self) -> Objective {
        match self.protocol {
            Protocol::Median => Objective::Median,
            Protocol::Center => Objective::Center,
        }
    }

    fn blobs(&self, seed: u64) -> BlobsSpec {
        BlobsSpec {
            clusters: self.clusters,
            points: self.points - self.t,
            outliers: self.t,
            dim: self.dim,
            sigma: 1.0,
            separation: 100.0,
            imbalance: 0.0,
            seed,
        }
    }

    /// The job's partition seed, derived from the workload seed.
    fn partition_seed(seed: u64) -> u64 {
        seed ^ 0x5eed_5eed
    }

    /// The validated job, with the metrics recorder on when `metrics`.
    fn job(&self, seed: u64, points: PointSet, metrics: bool) -> ValidJob {
        let job = match self.protocol {
            Protocol::Median => Job::median(self.k, self.t),
            Protocol::Center => Job::center(self.k, self.t),
        };
        job.sites(self.sites)
            .seed(Self::partition_seed(seed))
            .strategy(self.strategy)
            .sequential()
            .metrics(metrics)
            .points(points)
            .validate()
            .expect("benchmark job validates")
    }

    fn setup_once(&self, seed: u64) -> (Inputs, f64, f64) {
        let (mixture, generate_s) = timed(|| gaussian_blobs(self.blobs(seed)));
        let (shards, partition_s) = timed(|| {
            partition(
                &mixture.points,
                self.sites,
                self.strategy,
                &[],
                Self::partition_seed(seed),
            )
        });
        let (reference, _) =
            evaluate_on_full_data(&shards, &mixture.centers, self.budget(), self.objective());
        let job = self.job(seed, mixture.points.clone(), false);
        let traced_job = self.job(seed, mixture.points.clone(), true);
        let inputs = Inputs {
            points: mixture.points,
            shards,
            reference,
            job,
            traced_job,
        };
        (inputs, generate_s, partition_s)
    }

    fn outcome(&self, art: &Artifact, reference: f64) -> Outcome {
        Outcome {
            centers: art.centers.len(),
            cost: art.cost,
            bytes: art.bytes as u64,
            cost_ratio: art.cost / reference,
            centers_hash: centers_hash(art.centers.iter().map(Vec::as_slice)),
            syncs: 0,
        }
    }

    /// Runs `job` once, catching a panic; returns wall, CPU and the
    /// artifact (or the panic message).
    fn run_job(job: &ValidJob) -> (Duration, Duration, Result<Artifact, String>) {
        let cpu0 = sys::process_cpu();
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| job.run()));
        let wall = t0.elapsed();
        let cpu = sys::process_cpu().saturating_sub(cpu0);
        (wall, cpu, res.map_err(|e| crate::panic_message(&*e)))
    }

    /// Gates one run's result; returns the artifact when it passed.
    fn gate(
        &self,
        res: Result<Artifact, String>,
        reference: f64,
        first: &mut Option<Outcome>,
        expect: &Expect,
    ) -> Option<Artifact> {
        let art = match res {
            Ok(art) => art,
            Err(msg) => {
                eprintln!("job panicked: {msg}");
                return None;
            }
        };
        let got = self.outcome(&art, reference);
        let problems = gate::check(&got, first.as_ref(), expect);
        if first.is_none() {
            *first = Some(got);
        }
        if problems.is_empty() {
            Some(art)
        } else {
            eprintln!("gate: {}", problems.join("; "));
            None
        }
    }

    /// The end-to-end run (`--trace 0`).
    pub fn measure(&self, seed: u64, seconds: f64) -> Report {
        let mut report = Report::default();
        let (inputs, _, _) = self.setup_once(seed);
        let expect = Expect::new(self.k, 0, self.pin, seed);
        let mut first = None;

        // Warm-up: one untimed, gated job.
        let (_, _, res) = Self::run_job(&inputs.job);
        report.attempted += 1;
        if self
            .gate(res, inputs.reference, &mut first, &expect)
            .is_none()
        {
            report.failed += 1;
        }
        let setup = time_setup(|| self.setup_once(seed));

        let start = Instant::now();
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        while walls.len() < MIN_OPS || !deadline_passed(start, seconds) {
            let (wall, cpu, res) = Self::run_job(&inputs.job);
            report.attempted += 1;
            if self
                .gate(res, inputs.reference, &mut first, &expect)
                .is_none()
            {
                report.failed += 1;
            }
            walls.push(secs(wall));
            cpus.push(secs(cpu));
        }
        let job_wall = median(&walls);
        report.set("setup_s", setup.total_s);
        report.set("job_wall_s", job_wall);
        report.set("cpu_s", median(&cpus));
        report.set("ingest_points_per_s", inputs.points.len() as f64 / job_wall);
        // A batch job is one complete protocol execution: its "sync".
        report.set("sync_ms_p50", 1e3 * job_wall);
        report.set("sync_ms_p90", 1e3 * quantile(&walls, 0.9));
        // With every job panicking there is no outcome; the run then
        // reports itself incorrect and these as 0.
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
        self.stamp(&mut report);
        report
    }

    fn stamp(&self, report: &mut Report) {
        report.stamp("threads", "1");
        report.stamp("connections", "0");
        report.stamp("sites", self.sites.to_string());
        report.stamp("points", self.points.to_string());
    }

    /// Runs the protocol directly on pre-made shards (the `core` layer
    /// under the api), returning the centers and the accounting.
    fn protocol(&self, shards: &[PointSet]) -> (PointSet, CommStats) {
        let opts = RunOptions::sequential();
        match self.protocol {
            Protocol::Median => {
                let out = run_distributed_median(shards, MedianConfig::new(self.k, self.t), opts);
                (out.output.centers, out.stats)
            }
            Protocol::Center => {
                let out = run_distributed_center(shards, CenterConfig::new(self.k, self.t), opts);
                (out.output.centers, out.stats)
            }
        }
    }

    /// Re-runs every site's round-0 solve straight through the `cluster`
    /// layer, with the same parameters and per-site seeds the protocol
    /// uses, and returns the wall time of each call.
    fn site_solves(&self, shards: &[PointSet]) -> Vec<f64> {
        let mut calls = Vec::new();
        match self.protocol {
            Protocol::Median => {
                let cfg = MedianConfig::new(self.k, self.t);
                let grid = geometric_grid(self.t, cfg.rho);
                for (site, shard) in shards.iter().enumerate() {
                    let metric = EuclideanMetric::new(shard);
                    let w = WeightedSet::unit(shard.len());
                    let mut ls = cfg.ls;
                    ls.seed = ls.seed.wrapping_add(site as u64);
                    let params = BicriteriaParams {
                        eps: 0.0,
                        lambda_iters: cfg.lambda_iters,
                        ls,
                    };
                    for &q in grid.iter().filter(|&&q| q < shard.len()) {
                        let (sol, s) = timed(|| {
                            median_bicriteria(
                                &metric,
                                &w,
                                2 * self.k,
                                q as f64,
                                Objective::Median,
                                params,
                            )
                        });
                        std::hint::black_box(sol);
                        calls.push(s);
                    }
                }
            }
            Protocol::Center => {
                for shard in shards {
                    let metric = EuclideanMetric::new(shard);
                    let ids: Vec<usize> = (0..shard.len()).collect();
                    let (ord, s) = timed(|| {
                        gonzalez_with(
                            &metric,
                            &ids,
                            self.k + self.t + 1,
                            0,
                            ThreadBudget::serial(),
                        )
                    });
                    std::hint::black_box(ord);
                    calls.push(s);
                }
            }
        }
        calls
    }

    /// The traced run (`--trace 1`): per-layer times and counters.
    pub fn trace(&self, seed: u64, seconds: f64) -> Report {
        let mut report = Report::default();
        let (inputs, _, _) = self.setup_once(seed);
        let expect = Expect::new(self.k, 0, self.pin, seed);
        let mut first = None;
        let (_, _, res) = Self::run_job(&inputs.job);
        report.attempted += 1;
        if self
            .gate(res, inputs.reference, &mut first, &expect)
            .is_none()
        {
            report.failed += 1;
        }
        let setup = time_setup(|| self.setup_once(seed));

        let mut s = Samples::default();
        let start = Instant::now();
        let mut iters = 0;
        while iters < 1 || !deadline_passed(start, seconds) {
            iters += 1;
            let step = catch_unwind(AssertUnwindSafe(|| {
                self.trace_iteration(&inputs, seed, &expect, &mut first, &mut s, &mut report)
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
        self.stamp(&mut report);
        report
    }

    /// One traced iteration: the api job untraced and traced, then the
    /// same job layer by layer, then each layer's direct probe.
    fn trace_iteration(
        &self,
        inputs: &Inputs,
        seed: u64,
        expect: &Expect,
        first: &mut Option<Outcome>,
        s: &mut Samples,
        report: &mut Report,
    ) {
        let (wall_u, _, res) = Self::run_job(&inputs.job);
        let (wall_t, _, res_t) = Self::run_job(&inputs.traced_job);
        report.attempted += 2;
        let art = self.gate(res, inputs.reference, first, expect);
        let art_t = self.gate(res_t, inputs.reference, first, expect);
        report.failed += u64::from(art.is_none()) + u64::from(art_t.is_none());
        let (Some(art), Some(art_t)) = (art, art_t) else {
            return;
        };
        let (wall_u, wall_t) = (secs(wall_u), secs(wall_t));
        s.push("obs.trace_overhead_frac", wall_t / wall_u - 1.0);
        let digest = art_t.metrics.expect("traced job carries a metrics digest");
        layers::push_counters(s, &digest.counters);
        s.push("core.rounds", art_t.rounds as f64);

        let (shards, partition_s) = timed(|| {
            partition(
                &inputs.points,
                self.sites,
                self.strategy,
                &[],
                Self::partition_seed(seed),
            )
        });
        let ((centers, stats), protocol_s) = timed(|| self.protocol(&shards));
        let ((cost, _), evaluate_s) =
            timed(|| evaluate_on_full_data(&shards, &centers, self.budget(), self.objective()));
        if cost.to_bits() != art.cost.to_bits() {
            eprintln!(
                "gate: layer-by-layer cost {cost} differs from the job's {}",
                art.cost
            );
            report.failed += 1;
        }
        layers::push_protocol(s, [&stats], protocol_s);
        s.push("core.protocol_s", protocol_s);
        s.push("core.evaluate_s", evaluate_s);
        s.push("api.job_overhead_s", wall_u - protocol_s - evaluate_s);
        let layer_s = [
            partition_s,
            secs(stats.total_site_compute()),
            secs(stats.coordinator_compute()),
            evaluate_s,
        ];
        s.push("unattributed_frac", unattributed_frac(&layer_s, wall_u));

        layers::push_site_solves(s, &self.site_solves(&inputs.shards));
        layers::push_assign(s, &merge_shards(&inputs.shards), &centers);
        if !layers::push_codec_probe(s, &[self.codec_payloads(&inputs.shards)]) {
            eprintln!("gate: codec probe did not round-trip");
            report.failed += 1;
        }
        // The batch jobs never touch the stream layer.
        s.push("stream.ingest_s", 0.0);
        s.push("stream.sync_s", 0.0);
    }

    /// Summary-sized payloads for the codec probe: per site, its first
    /// `2k + t` points (the size of an Algorithm 1 site summary), each
    /// reference-coded against the previous site's payload.
    fn codec_payloads(&self, shards: &[PointSet]) -> Vec<Payload> {
        shards
            .iter()
            .map(|shard| {
                let m = shard.len().min(2 * self.k + self.t);
                let rows = (0..m).map(|i| shard.point(i).to_vec()).collect();
                (rows, vec![1.0; m])
            })
            .collect()
    }
}
