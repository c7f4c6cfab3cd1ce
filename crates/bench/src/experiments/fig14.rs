//! Fig. 14 — performance breakdown over bitmap size `m` and segment size
//! `s`: cycles spent in step 1 (bitmap AND + extraction) vs step 2
//! (segment kernels), for 200 KB inputs at selectivity 0.
//!
//! Paper shape: shrinking `s` at constant `m` moves time from step 2 to
//! step 1 (more segments to scan, fewer elements per surviving segment);
//! growing `m` grows step 1 linearly while shrinking step 2's false-
//! positive verification.

use crate::harness::{f2, mcycles, measure_cycles, Scale, Table};
use fesia_core::{FesiaParams, IntersectPlan, KernelTable, LaneWidth, SegmentedSet};
use fesia_datagen::{pair_with_intersection, SplitMix64};

/// Full Fig. 14 report.
pub fn run(scale: Scale) -> String {
    // 200 kB of u32s = 50K elements (paper's input size), selectivity 0.
    let n = match scale {
        Scale::Smoke => 10_000,
        _ => 50_000,
    };
    let mut rng = SplitMix64::new(0x14);
    let (a, b) = pair_with_intersection(n, n, 0, &mut rng);
    let table = KernelTable::auto();
    let reps = scale.reps();

    let mut t = Table::new(vec![
        "m (bits/elem)",
        "s (bits)",
        "segments",
        "matched segs",
        "step1 (Mcyc)",
        "step2 (Mcyc)",
        "total (Mcyc)",
    ]);
    for &bits_per_elem in &[0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        for lane in [LaneWidth::U8, LaneWidth::U16] {
            let params = FesiaParams::auto()
                .with_bits_per_element(bits_per_elem)
                .with_segment(lane);
            let sa = SegmentedSet::build(&a, &params).unwrap();
            let sb = SegmentedSet::build(&b, &params).unwrap();
            let (_, bd) = measure_cycles(reps, || {
                fesia_core::intersect_count_breakdown(&sa, &sb, &table, IntersectPlan::Plain)
            });
            assert_eq!(bd.count, 0, "selectivity-0 workload must count 0");
            t.row(vec![
                format!("{bits_per_elem}"),
                lane.bits().to_string(),
                sa.num_segments().to_string(),
                bd.matched_segments.to_string(),
                f2(mcycles(bd.step1_cycles)),
                f2(mcycles(bd.step2_cycles)),
                f2(mcycles(bd.step1_cycles + bd.step2_cycles)),
            ]);
        }
    }
    format!(
        "## Fig. 14 — step-1 vs step-2 breakdown over (m, s) (n = {n}, selectivity 0)\n\n{}",
        t.render()
    )
}
