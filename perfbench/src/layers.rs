//! Per-layer measurements shared by the workloads' traced runs. Each
//! helper times direct calls into one crate's public functions from the
//! benchmark's own code, or reads that crate's own accounting.

use std::collections::BTreeMap;

use dpc_codec::{frame, unframe, Encoding};
use dpc_coordinator::CommStats;
use dpc_metric::{EuclideanMetric, NearestAssigner, PointSet, WireWriter};
use dpc_obs::record::COUNTER_COUNT;
use dpc_obs::Counter;

use crate::report::{median, Report};
use crate::{secs, timed};

/// The encoding the codec probe frames with (the one `stream-sync` runs).
const PROBE_ENCODING: Encoding = Encoding::Rlz;

/// Per-iteration samples of per-layer metrics; the report carries each
/// metric's median over the iterations.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one iteration's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Moves the median of every metric into `report`.
    pub fn into_report(self, report: &mut Report) {
        for (name, values) in self.0 {
            report.set(name, median(&values));
        }
    }
}

/// Recorder counters of one traced job or stream pass.
pub fn push_counters(s: &mut Samples, counters: &[u64; COUNTER_COUNT]) {
    let c = |counter: Counter| counters[counter.index()] as f64;
    for (name, counter) in [
        ("metric.kernel_queries", Counter::KernelQueries),
        ("metric.candidates_scanned", Counter::CandidatesScanned),
        ("metric.candidates_pruned", Counter::CandidatesPruned),
        ("metric.bound_skips", Counter::BoundSkips),
        ("metric.tile_scores", Counter::TileScores),
        ("stream.blocks_summarized", Counter::BlocksSummarized),
        ("stream.summaries_merged", Counter::SummariesMerged),
        ("stream.syncs", Counter::SyncsRun),
        ("coordinator.poll_wakeups", Counter::PollWakeups),
    ] {
        s.push(name, c(counter));
    }
    let scanned = c(Counter::CandidatesScanned);
    let pruned = c(Counter::CandidatesPruned);
    s.push(
        "metric.prune_rate",
        if scanned > 0.0 { pruned / scanned } else { 0.0 },
    );
}

/// The coordinator's accounting of protocol executions that took
/// `protocol_s` of wall in total. The exchange wait is what the wall
/// leaves after site and coordinator compute: message passing, transport
/// start-up and poll waiting.
pub fn push_protocol<'a>(
    s: &mut Samples,
    runs: impl IntoIterator<Item = &'a CommStats>,
    protocol_s: f64,
) {
    let (mut site, mut critical, mut coord) = (0.0, 0.0, 0.0);
    let (mut up, mut down, mut raw) = (0usize, 0usize, 0usize);
    for st in runs {
        site += secs(st.total_site_compute());
        critical += secs(st.site_critical_path());
        coord += secs(st.coordinator_compute());
        up += st.upstream_bytes();
        down += st.downstream_bytes();
        raw += st.raw_bytes();
    }
    s.push("coordinator.site_compute_s", site);
    s.push("coordinator.site_critical_s", critical);
    s.push("coordinator.coordinator_compute_s", coord);
    s.push("coordinator.exchange_wait_s", protocol_s - site - coord);
    s.push("coordinator.bytes_up", up as f64);
    s.push("coordinator.bytes_down", down as f64);
    let wire = up + down;
    s.push(
        "codec.compression_ratio",
        if wire > 0 {
            raw as f64 / wire as f64
        } else {
            1.0
        },
    );
}

/// Direct `cluster`-layer site solves, one wall time per call.
pub fn push_site_solves(s: &mut Samples, calls: &[f64]) {
    s.push("cluster.site_solve_s", calls.iter().sum());
    s.push("cluster.site_solve_calls", calls.len() as f64);
    s.push(
        "cluster.site_solve_ms_p50",
        if calls.is_empty() {
            0.0
        } else {
            1e3 * median(calls)
        },
    );
}

/// One `NearestAssigner` bulk pass of every point against `centers`.
pub fn push_assign(s: &mut Samples, points: &PointSet, centers: &PointSet) {
    let mut all = points.clone();
    let first_center = all.extend_from(centers);
    let metric = EuclideanMetric::new(&all);
    let ids: Vec<usize> = (0..points.len()).collect();
    let cids: Vec<usize> = (first_center..first_center + centers.len()).collect();
    let (assigned, assign_s) = timed(|| NearestAssigner::new(&metric).assign(&ids, &cids));
    std::hint::black_box(assigned);
    s.push("metric.assign_s", assign_s);
    s.push("metric.queries_per_s", ids.len() as f64 / assign_s);
}

/// A summary-shaped wire payload: the rows' coordinates and one weight
/// per row.
fn payload(rows: &[Vec<f64>], weights: &[f64]) -> WireWriter {
    let mut w = WireWriter::new();
    w.put_varint(rows.len() as u64);
    for row in rows {
        w.put_point(row);
    }
    w.put_f64_slice(weights);
    w
}

/// A summary-shaped probe payload: coordinate rows and one weight per row.
pub type Payload = (Vec<Vec<f64>>, Vec<f64>);

/// Frames every payload with the probe encoding, reference-coded against
/// the raw bytes of the payload before it in the same chain (the RLZ
/// dictionary a site would hold), then unframes it, timing both
/// directions. Returns `false` if a round trip lost bytes.
pub fn push_codec_probe(s: &mut Samples, chains: &[Vec<Payload>]) -> bool {
    let raws: Vec<Vec<Vec<u8>>> = chains
        .iter()
        .map(|c| {
            c.iter()
                .map(|(r, w)| payload(r, w).finish().to_vec())
                .collect()
        })
        .collect();
    let empty = Vec::new();
    let dict = |c: usize, i: usize| if i == 0 { &empty } else { &raws[c][i - 1] };
    let writers: Vec<Vec<WireWriter>> = chains
        .iter()
        .map(|c| c.iter().map(|(r, w)| payload(r, w)).collect())
        .collect();
    let (framed, frame_s) = timed(|| {
        let mut out = Vec::new();
        for (c, ws) in writers.into_iter().enumerate() {
            for (i, w) in ws.into_iter().enumerate() {
                out.push((c, i, frame(PROBE_ENCODING, w, dict(c, i))));
            }
        }
        out
    });
    let (unframed, unframe_s) = timed(|| {
        framed
            .iter()
            .map(|(c, i, f)| (*c, *i, unframe(PROBE_ENCODING, f.clone(), dict(*c, *i))))
            .collect::<Vec<_>>()
    });
    s.push("codec.frame_s", frame_s);
    s.push("codec.unframe_s", unframe_s);
    unframed.iter().all(|(c, i, u)| u[..] == raws[*c][*i][..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PER_LAYER;

    #[test]
    fn codec_probe_round_trips_and_times_both_directions() {
        let rows = |x: f64| {
            (0..8)
                .map(|i| vec![x + i as f64, 2.0 * x])
                .collect::<Vec<_>>()
        };
        let chain = vec![(rows(1.0), vec![1.0; 8]), (rows(1.5), vec![2.0; 8])];
        let mut s = Samples::default();
        assert!(push_codec_probe(&mut s, &[chain.clone(), chain]));
        let mut r = Report::default();
        s.into_report(&mut r);
        assert!(r.values["codec.frame_s"] > 0.0);
        assert!(r.values["codec.unframe_s"] > 0.0);
    }

    #[test]
    fn ledger_helpers_cover_every_per_layer_metric_but_the_run_level_ones() {
        let mut s = Samples::default();
        push_counters(&mut s, &[0; COUNTER_COUNT]);
        push_protocol(&mut s, [&CommStats::default()], 0.5);
        push_site_solves(&mut s, &[0.001, 0.003]);
        let mut pts = PointSet::new(2);
        for i in 0..10 {
            pts.push(&[i as f64, 0.0]);
        }
        let mut centers = PointSet::new(2);
        centers.push(&[0.0, 0.0]);
        push_assign(&mut s, &pts, &centers);
        push_codec_probe(&mut s, &[vec![(vec![vec![1.0, 2.0]], vec![1.0])]]);
        let mut r = Report::default();
        s.into_report(&mut r);
        let run_level = [
            "workloads.generate_s",
            "workloads.partition_s",
            "api.job_overhead_s",
            "core.protocol_s",
            "core.evaluate_s",
            "core.rounds",
            "stream.ingest_s",
            "stream.sync_s",
            "obs.trace_overhead_frac",
            "unattributed_frac",
        ];
        for (name, _) in PER_LAYER {
            assert_eq!(
                r.values.contains_key(name),
                !run_level.contains(&name),
                "{name}"
            );
        }
        assert_eq!(r.values["coordinator.exchange_wait_s"], 0.5);
        assert_eq!(r.values["cluster.site_solve_ms_p50"], 2.0);
    }
}
