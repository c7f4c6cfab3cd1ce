//! Summary-pruning experiment (this repo's hierarchical-bitmap addition to
//! the paper's step 1).
//!
//! Two configurations bracket the design space:
//!
//! * **Memory-bound sparse** — large oversized bitmaps (1024 bits/element,
//!   16-bit segments, ~1% selectivity) where step 1 streams far more bitmap
//!   bytes than fit in cache. The summary AND skips empty 512-bit blocks,
//!   and the gate is a >=1.5x step-1 speedup over the unpruned scan.
//! * **Small dense** — a cache-resident pair under the default geometry,
//!   where every summary block is populated and pruning can only add
//!   overhead. The auto heuristic must decline, and the gate is <=2%
//!   dispatch overhead versus pruning forced off.
//!
//! Writes `BENCH_prune.json` (consumed by `scripts/tier1.sh --smoke`) and
//! returns a markdown report.

use crate::harness::{f2, measure_cycles, Scale, Table};
use fesia_core::{
    intersect_count_breakdown, intersect_count_with, prune_params, set_prune_params, should_prune,
    FesiaParams, IntersectPlan, KernelTable, LaneWidth, PruneParams, SegmentedSet,
};
use fesia_datagen::{pair_with_intersection, SplitMix64};

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0x9121E);
    let table = KernelTable::auto();

    // --- Memory-bound sparse pair -------------------------------------
    // 1024 bits/element leaves the expected occupancy at half an element
    // per 512-bit block, so ~61% of summary bits are zero per side and
    // ~85% of blocks die in the summary AND of the pair — enough that the
    // skipped runs span whole cache lines the hardware prefetcher would
    // otherwise stream in anyway.
    let n = match scale {
        Scale::Smoke => 1 << 17,
        Scale::Standard | Scale::Full => 1 << 21,
    };
    let r = n / 100; // 1% selectivity
    let sparse_params = FesiaParams::auto()
        .with_bits_per_element(1024.0)
        .with_segment(LaneWidth::U16);
    let (av, bv) = pair_with_intersection(n, n, r, &mut rng);
    let a = SegmentedSet::build(&av, &sparse_params).unwrap();
    let b = SegmentedSet::build(&bv, &sparse_params).unwrap();
    let auto_prunes_sparse = should_prune(&a, &b, &PruneParams::default());

    let reps = scale.reps().clamp(1, 3);
    // Both sweeps run without prefetch, so step 1 differs only in the scan.
    let plain = IntersectPlan::Plain;
    let prune = IntersectPlan::Pruned {
        prefetch_distance: 0,
    };
    let (unpruned_c, base) =
        measure_cycles(reps, || intersect_count_breakdown(&a, &b, &table, plain));
    let (pruned_c, pruned) =
        measure_cycles(reps, || intersect_count_breakdown(&a, &b, &table, prune));
    let _ = (unpruned_c, pruned_c); // step-1 cycles come from the breakdowns
    let stats = pruned.prune.expect("the pruned plan runs the pruned scan");
    let counts_match = base.count == pruned.count && base.count == r;
    let step1_speedup = base.step1_cycles as f64 / pruned.step1_cycles.max(1) as f64;

    // --- Small dense pair ---------------------------------------------
    // Default geometry (~22.6 bits/element) fills every block; the bitmaps
    // are far below the size floor, so the auto heuristic must route the
    // plain scan and cost nothing measurable over pruning forced off.
    let small_n = 4_096usize;
    let dense_params = FesiaParams::auto();
    let (sv, tv) = pair_with_intersection(small_n, small_n, small_n / 4, &mut rng);
    let s = SegmentedSet::build(&sv, &dense_params).unwrap();
    let t = SegmentedSet::build(&tv, &dense_params).unwrap();
    let auto_prunes_dense = should_prune(&s, &t, &PruneParams::default());

    // Alternate the two knob settings round-robin and keep the minimum of
    // each, so slow drift (frequency, interrupts) cannot masquerade as
    // dispatch overhead in the <=2% gate.
    let dense_rounds = 40;
    let saved = prune_params();
    let mut auto_c = u64::MAX;
    let mut off_c = u64::MAX;
    let mut auto_count = 0usize;
    let mut off_count = 0usize;
    for _ in 0..dense_rounds {
        set_prune_params(PruneParams::default());
        let (c, v) = measure_cycles(6, || intersect_count_with(&s, &t, &table));
        auto_c = auto_c.min(c);
        auto_count = v;
        set_prune_params(PruneParams::default().with_forced(Some(false)));
        let (c, v) = measure_cycles(6, || intersect_count_with(&s, &t, &table));
        off_c = off_c.min(c);
        off_count = v;
    }
    set_prune_params(saved);
    assert_eq!(auto_count, off_count, "dense dispatch forms disagreed");
    let overhead_pct = (auto_c as f64 / off_c.max(1) as f64 - 1.0) * 100.0;

    let mut t_md = Table::new(vec![
        "config",
        "step-1 (Mcycles)",
        "pruned (Mcycles)",
        "speedup",
    ]);
    t_md.row(vec![
        format!("sparse {n} x {n}"),
        f2(base.step1_cycles as f64 / 1e6),
        f2(pruned.step1_cycles as f64 / 1e6),
        f2(step1_speedup),
    ]);

    let json = format!(
        "{{\n  \"experiment\": \"prune\",\n  \"counts_match\": {counts_match},\n  \
         \"small_dense_overhead_pct\": {overhead_pct:.2},\n  \
         \"sparse\": {{\"elements\": {n}, \"bits_per_element\": 1024, \
         \"selectivity_pct\": 1.0, \"intersection\": {r}, \
         \"summary_density_a\": {:.4}, \"summary_density_b\": {:.4}, \
         \"auto_prunes\": {auto_prunes_sparse}, \
         \"step1_unpruned_cycles\": {}, \"step1_pruned_cycles\": {}, \
         \"step1_speedup\": {step1_speedup:.2}, \
         \"blocks\": {}, \"blocks_visited\": {}, \"blocks_skipped\": {}}},\n  \
         \"small_dense\": {{\"elements\": {small_n}, \"auto_prunes\": {auto_prunes_dense}, \
         \"auto_cycles\": {auto_c}, \"forced_off_cycles\": {off_c}, \
         \"overhead_pct\": {overhead_pct:.2}}}\n}}\n",
        a.summary_density(),
        b.summary_density(),
        base.step1_cycles,
        pruned.step1_cycles,
        stats.blocks,
        stats.visited,
        stats.skipped(),
    );
    let json_path = "BENCH_prune.json";
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("[prune] could not write {json_path}: {e}");
    }

    format!(
        "## Summary pruning — hierarchical bitmap step 1\n\n\
         Sparse pair: {n} x {n} elements at 1024 bits/element (16-bit segments),\n\
         1% selectivity; summary densities {:.2} / {:.2}, auto decision: {}.\n\
         Step-1 skipped {} of {} blocks. Counts match: {counts_match}.\n\n{}\n\
         Small dense pair ({small_n} x {small_n}, default geometry; auto declines: {}):\n\
         auto dispatch {auto_c} cycles vs forced-off {off_c} cycles \
         ({overhead_pct:+.2}% overhead). Series written to {json_path}.\n",
        a.summary_density(),
        b.summary_density(),
        if auto_prunes_sparse { "prune" } else { "plain" },
        stats.skipped(),
        stats.blocks,
        t_md.render(),
        !auto_prunes_dense,
    )
}
