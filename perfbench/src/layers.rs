//! Per-layer probes shared by the traced runs: one pair's plan, step-1
//! and step-2 costs timed call by call from outside the library, and the
//! metric names every traced run reports.

use std::time::Instant;

use fesia_core::{
    auto_count_with, execute_plan_count, filter_stats, survivor_segments, IntersectPlan,
    IntersectPlanner, KernelTable, SegmentedSet, SetSummary,
};

use crate::common::{median, us, Outcome};

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_us.lo", "us"),
    ("read_p50_us.hi", "us"),
    ("max_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports. A layer a workload does
/// not exercise reports 0: it did no work there.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("loadgen.read_p99_us.lo", "us"),
    ("loadgen.read_p99_us.hi", "us"),
    ("loadgen.write_p50_us.hi", "us"),
    ("loadgen.write_p99_us.hi", "us"),
    ("net.gap_p50_us.lo", "us"),
    ("net.gap_p50_us.hi", "us"),
    ("protocol.handle_p50_us.count", "us"),
    ("protocol.handle_p50_us.and", "us"),
    ("protocol.handle_p50_us.or", "us"),
    ("protocol.handle_p50_us.bool", "us"),
    ("protocol.handle_p50_us.add", "us"),
    ("protocol.handle_p50_us.del", "us"),
    ("protocol.self_p50_us", "us"),
    ("protocol.err", "count"),
    ("store.view_p50_us", "us"),
    ("store.read_p50_us", "us"),
    ("store.apply_p50_us", "us"),
    ("store.apply_p99_us", "us"),
    ("store.rebuilds", "count"),
    ("store.quiesce_ms", "ms"),
    ("snapshot.resolve_p50_ns", "ns"),
    ("snapshot.publishes", "count"),
    ("snapshot.retired", "count"),
    ("snapshot.pin_stall_max_us", "us"),
    ("dynamic.count_p50_us", "us"),
    ("dynamic.base_count_p50_us", "us"),
    ("dynamic.merge_share", "ratio"),
    ("dynamic.delta_len_mean", "count"),
    ("dynamic.rebuild_p50_ms", "ms"),
    ("plan.pair_p50_ns", "ns"),
    ("plan.mix.plain", "ratio"),
    ("plan.mix.pipelined", "ratio"),
    ("plan.mix.pruned", "ratio"),
    ("plan.mix.hash", "ratio"),
    ("plan.mix.gallop", "ratio"),
    ("plan.mix.compressed", "ratio"),
    ("plan.mix.container", "ratio"),
    ("plan.regret", "ratio"),
    ("intersect.step1_share", "ratio"),
    ("intersect.cycles_per_elem", "cycles"),
    ("intersect.survivor_ratio", "ratio"),
    ("intersect.false_positive_ratio", "ratio"),
    ("algebra.ns_per_out.union", "ns"),
    ("algebra.ns_per_out.xor", "ns"),
    ("algebra.ns_per_out.difference", "ns"),
    ("algebra.vs_merge.union", "ratio"),
    ("algebra.vs_merge.xor", "ratio"),
    ("algebra.vs_merge.difference", "ratio"),
    ("batch.pairs_per_s.1t", "1/s"),
    ("exec.scaling_2t", "ratio"),
    ("exec.worker_parks", "count"),
    ("simjoin.candidate_s", "s"),
    ("simjoin.candidates", "count"),
    ("simjoin.bitmap_rejected", "count"),
    ("simjoin.early_exited", "count"),
    ("simjoin.verified", "count"),
    ("simjoin.reject_ratio", "ratio"),
    ("set.bytes_per_elem", "B"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("analytics.pair_counts_per_s", "1/s"),
    ("analytics.algebra_elems_per_s", "1/s"),
    ("analytics.simjoin_s", "s"),
];

/// Largest tolerated share of the traced time that the per-layer spans
/// leave uncovered (the accounting check of every traced run).
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.25;

/// Repetitions per timed probe call; the minimum is kept, so one
/// preemption does not decide a plan comparison.
const REPS: usize = 3;

/// One pair's costs, measured call by call.
#[derive(Clone, Copy, Default)]
pub struct PairProbe {
    /// Dynamic count and the same count on the bases (serve only), µs.
    pub dyn_us: f64,
    pub base_us: f64,
    /// `IntersectPlanner::plan_pair`, summaries included, ns.
    pub plan_ns: f64,
    /// Planner-chosen count, µs and TSC cycles.
    pub auto_us: f64,
    pub auto_cycles: f64,
    /// Fastest forced plan, µs.
    pub best_us: f64,
    /// Step 1 alone (`survivor_segments`) and the plain two-phase count.
    pub step1_us: f64,
    pub plain_us: f64,
    pub elems: usize,
    pub survivors: usize,
    pub segments: usize,
    /// Bitmap false positives (equal-size bitmaps only).
    pub fp_segments: usize,
    pub fp_survivors: usize,
}

fn min_us<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            us(t0.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Every plan that can run on this pair (the tiered plans need both
/// sides to carry their tier).
fn plans_for(a: &SegmentedSet, b: &SegmentedSet, planner: &IntersectPlanner) -> Vec<IntersectPlan> {
    let d = planner.pipeline.prefetch_distance;
    let mut plans = vec![
        IntersectPlan::Plain,
        IntersectPlan::Pipelined {
            prefetch_distance: d,
        },
        IntersectPlan::Pruned {
            prefetch_distance: d,
        },
        IntersectPlan::HashProbe,
        IntersectPlan::GallopFallback,
    ];
    if a.packed().is_some() && b.packed().is_some() {
        plans.push(IntersectPlan::Compressed {
            prefetch_distance: d,
        });
    }
    if a.container().is_some() && b.container().is_some() {
        plans.push(IntersectPlan::Container);
    }
    plans
}

/// Probe one pair of built sets.
pub fn probe_pair(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> PairProbe {
    let plan_ns = min_us(|| planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b))) * 1e3;
    let auto_us = min_us(|| auto_count_with(a, b, table));
    let c0 = fesia_obs::now_cycles();
    std::hint::black_box(auto_count_with(a, b, table));
    let auto_cycles = fesia_obs::now_cycles().wrapping_sub(c0) as f64;
    let best_us = plans_for(a, b, planner)
        .into_iter()
        .map(|p| min_us(|| execute_plan_count(a, b, table, p)))
        .fold(f64::INFINITY, f64::min);
    let step1_us = min_us(|| survivor_segments(a, b));
    let plain_us = min_us(|| execute_plan_count(a, b, table, IntersectPlan::Plain));
    let (fp_segments, fp_survivors) = if a.bitmap_bits() == b.bitmap_bits() {
        let f = filter_stats(a, b);
        (f.false_positive_segments, f.survivors)
    } else {
        (0, 0)
    };
    PairProbe {
        plan_ns,
        auto_us,
        auto_cycles,
        best_us,
        step1_us,
        plain_us,
        elems: a.len() + b.len(),
        survivors: survivor_segments(a, b),
        segments: a.num_segments().max(b.num_segments()),
        fp_segments,
        fp_survivors,
        ..PairProbe::default()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `plan.*` and `intersect.*` metrics from a pair sample, with the
/// plan mix taken from the run's own planner decisions (`obs`, a delta
/// over the untraced traffic, so the probes' forced plans do not count).
pub fn put_pair_layers(o: &mut Outcome, probes: &[PairProbe], obs: &fesia_obs::MetricsSnapshot) {
    let mut plan_ns: Vec<f64> = probes.iter().map(|p| p.plan_ns).collect();
    o.put("plan.pair_p50_ns", median(&mut plan_ns), "ns");
    let mix = [
        ("plain", obs.plan_plain),
        ("pipelined", obs.plan_pipelined),
        ("pruned", obs.plan_pruned),
        ("hash", obs.plan_hash),
        ("gallop", obs.plan_gallop),
        ("compressed", obs.plan_compressed),
        ("container", obs.plan_container),
    ];
    let decisions: u64 = mix.iter().map(|(_, n)| n).sum();
    for (name, n) in mix {
        o.put(
            format!("plan.mix.{name}"),
            ratio(n as f64, decisions as f64),
            "ratio",
        );
    }
    let sum = |f: fn(&PairProbe) -> f64| probes.iter().map(f).sum::<f64>();
    o.put(
        "plan.regret",
        ratio(sum(|p| p.auto_us), sum(|p| p.best_us)),
        "ratio",
    );
    o.put(
        "intersect.step1_share",
        ratio(sum(|p| p.step1_us), sum(|p| p.plain_us)),
        "ratio",
    );
    o.put(
        "intersect.cycles_per_elem",
        ratio(sum(|p| p.auto_cycles), sum(|p| p.elems as f64)),
        "cycles",
    );
    o.put(
        "intersect.survivor_ratio",
        ratio(sum(|p| p.survivors as f64), sum(|p| p.segments as f64)),
        "ratio",
    );
    o.put(
        "intersect.false_positive_ratio",
        ratio(
            sum(|p| p.fp_segments as f64),
            sum(|p| p.fp_survivors as f64),
        ),
        "ratio",
    );
}
