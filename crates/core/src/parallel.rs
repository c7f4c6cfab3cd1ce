//! Multicore intersection (paper §VI, "Multicore parallelism").
//!
//! The bitmap AND has no cross-iteration dependency, so the segment space
//! is partitioned across threads: each worker scans its slice of the
//! bitmaps, runs the specialized kernels on its surviving segments, and the
//! per-worker counts are summed. Work runs on the persistent
//! [`fesia_exec::Executor`] — the unit of claiming is an aligned block
//! range, so a dense region of the bitmap (many survivors) no longer pins
//! one thread while the others idle.

use crate::intersect::default_table;
use crate::kernels::KernelTable;
use crate::plan::{IntersectPlan, IntersectPlanner, SetSummary};
use crate::set::SegmentedSet;
use fesia_exec::Executor;
use fesia_simd::mask::for_each_nonzero_lane;

/// |A ∩ B| computed on up to `num_threads` pool participants with an
/// explicit table.
///
/// Partitioning is over the byte range of the (larger) bitmap, aligned to
/// 64-byte blocks — and, when the bitmaps differ in size, to whole tiles of
/// the smaller bitmap so each chunk folds independently.
pub fn par_intersect_count_with(
    a: &SegmentedSet,
    b: &SegmentedSet,
    num_threads: usize,
    table: &KernelTable,
) -> usize {
    par_intersect_count_on(Executor::global(), a, b, num_threads, table)
}

/// [`par_intersect_count_with`] on an explicit executor (tests and
/// benches use dedicated pools to pin the worker count).
pub fn par_intersect_count_on(
    exec: &Executor,
    a: &SegmentedSet,
    b: &SegmentedSet,
    num_threads: usize,
    table: &KernelTable,
) -> usize {
    assert!(num_threads >= 1, "need at least one thread");
    fesia_obs::metrics().par_intersect_calls.inc();
    assert_eq!(
        a.lane(),
        b.lane(),
        "sets must be built with the same segment width to be intersected"
    );
    let planner = IntersectPlanner::current();
    if num_threads == 1 {
        let plan = planner.plan_merge(&SetSummary::of(a), &SetSummary::of(b));
        return crate::intersect::execute_plan_count(a, b, table, plan);
    }
    let (large, small) = if a.bitmap_bits() >= b.bitmap_bits() {
        (a, b)
    } else {
        (b, a)
    };
    let folded = large.bitmap_bits() != small.bitmap_bits();
    let large_bytes = large.bitmap_bytes();
    let small_bytes = small.bitmap_bytes();
    let lane = a.lane();
    let level = table.level();

    // Claim granularity: 64-byte SIMD blocks, and whole small-bitmap tiles
    // when folding (so `local_offset & small_mask` equals the global fold).
    // When the planner selects the pruned plan (equal sizes only — a
    // folded chunk's summary tiling is not slice-local), chunks align to
    // whole summary words instead: one u64 of summary covers 64 blocks =
    // 4096 bitmap bytes, so each worker ANDs its own summary slice.
    let prune = !folded
        && matches!(
            planner.plan_merge(&SetSummary::of(a), &SetSummary::of(b)),
            IntersectPlan::Pruned { .. }
        );
    let align = if folded {
        small_bytes.len().max(64)
    } else if prune {
        4096
    } else {
        64
    };
    let total = large_bytes.len();
    let blocks = (total / align).max(1);

    let seg_mask = small.num_segments() - 1;
    let lane_bytes = lane.bytes();

    let scan_blocks = |range: std::ops::Range<usize>| -> u64 {
        // Block range -> byte range; the final block absorbs the tail.
        let lo = (range.start * align).min(total);
        let hi = if range.end >= blocks {
            total
        } else {
            range.end * align
        };
        if lo >= hi {
            return 0;
        }
        let large_chunk = &large_bytes[lo..hi];
        let base_seg = lo / lane_bytes;
        let mut count = 0u64;
        let scan_small = if folded {
            small_bytes
        } else {
            &small_bytes[lo..hi]
        };
        let visit = |local: usize, count: &mut u64| {
            let i = base_seg + local;
            let j = if folded { i & seg_mask } else { i };
            // SAFETY: as in `intersect_count_with`; block alignment keeps
            // fold indices consistent with the global scan, and the folded
            // dispatch never block-loads the large side.
            *count += unsafe {
                if folded {
                    table.count_folded(
                        large.seg_ptr(i),
                        large.seg_size(i),
                        small.seg_ptr(j),
                        small.seg_size(j),
                    )
                } else {
                    table.count(
                        large.seg_ptr(i),
                        large.seg_size(i),
                        small.seg_ptr(j),
                        small.seg_size(j),
                    )
                }
            } as u64;
        };
        if folded {
            fesia_simd::mask::for_each_nonzero_lane_folded(
                level,
                lane,
                large_chunk,
                scan_small,
                |local| visit(local, &mut count),
            );
        } else if prune {
            let sum_words = large.summary_words().len();
            let w_lo = lo / 4096;
            let w_hi = if hi == total { sum_words } else { hi / 4096 };
            let stats = fesia_simd::mask::for_each_nonzero_lane_pruned(
                level,
                lane,
                large_chunk,
                scan_small,
                &large.summary_words()[w_lo..w_hi],
                &small.summary_words()[w_lo..w_hi],
                |local| visit(local, &mut count),
            );
            fesia_obs::metrics()
                .summary_blocks_skipped
                .add(stats.skipped() as u64);
        } else {
            for_each_nonzero_lane(level, lane, large_chunk, scan_small, |local| {
                visit(local, &mut count)
            });
        }
        count
    };

    exec.map_reduce(blocks, 1, num_threads, scan_blocks, |x, y| x + y)
        .unwrap_or(0) as usize
}

/// |A ∩ B| on `num_threads` threads with the process-default table.
pub fn par_intersect_count(a: &SegmentedSet, b: &SegmentedSet, num_threads: usize) -> usize {
    par_intersect_count_with(a, b, num_threads, default_table())
}

/// Materialize `op(A, B)` on up to `num_threads` pool participants.
///
/// Equal-size bitmaps partition exactly like [`par_intersect_count_with`]
/// — each worker runs the op's sound step-1 scan (AND for intersection,
/// OR for the rest) over its aligned block range and sweeps its survivors
/// through the visitor kernels into a private buffer; buffers are
/// concatenated and sorted once at the end. Folded pairs and
/// single-thread calls run the planner-driven sequential path
/// ([`crate::algebra::set_op`]): the folded ops' probe residuals are not
/// slice-local, and a wrong-but-parallel answer is worth less than a
/// correct sequential one.
pub fn par_set_op(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: crate::kernels::visit::SetOp,
    num_threads: usize,
) -> Vec<u32> {
    par_set_op_on(Executor::global(), a, b, op, num_threads)
}

/// [`par_set_op`] on an explicit executor.
pub fn par_set_op_on(
    exec: &Executor,
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: crate::kernels::visit::SetOp,
    num_threads: usize,
) -> Vec<u32> {
    use crate::kernels::visit::{segment_op_visit, EmitVisitor, SetOp};
    assert!(num_threads >= 1, "need at least one thread");
    assert_eq!(
        a.lane(),
        b.lane(),
        "sets must be built with the same segment width"
    );
    if num_threads == 1 || a.bitmap_bits() != b.bitmap_bits() {
        return crate::algebra::set_op(a, b, op);
    }
    let m = fesia_obs::metrics();
    m.par_intersect_calls.inc();
    match op {
        SetOp::Intersect => {}
        SetOp::Union => {
            m.algebra_union.inc();
        }
        SetOp::Difference => {
            m.algebra_difference.inc();
        }
        SetOp::Xor => {
            m.algebra_xor.inc();
        }
    }
    let table = default_table();
    let level = table.level();
    let lane = a.lane();
    let scan = op.scan_op();
    let a_bytes = a.bitmap_bytes();
    let b_bytes = b.bitmap_bytes();
    let total = a_bytes.len();
    let align = 64usize;
    let blocks = (total / align).max(1);
    let lane_bytes = lane.bytes();
    let map = |range: std::ops::Range<usize>| -> Vec<u32> {
        let lo = (range.start * align).min(total);
        let hi = if range.end >= blocks {
            total
        } else {
            range.end * align
        };
        let mut out = Vec::new();
        if lo < hi {
            let base_seg = lo / lane_bytes;
            fesia_simd::mask::for_each_nonzero_lane_op(
                level,
                scan,
                lane,
                &a_bytes[lo..hi],
                &b_bytes[lo..hi],
                |local| {
                    let i = base_seg + local;
                    segment_op_visit(
                        level,
                        op,
                        a.segment(i),
                        b.segment(i),
                        &mut EmitVisitor(&mut out),
                    );
                },
            );
        }
        out
    };
    let mut merged = exec
        .map_reduce(blocks, 1, num_threads, map, |mut x, mut y| {
            x.append(&mut y);
            x
        })
        .unwrap_or_default();
    m.algebra_emitted.add(merged.len() as u64);
    merged.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersect::intersect_count;
    use crate::params::FesiaParams;

    fn gen_sorted(n: usize, seed: u64, universe: u32) -> Vec<u32> {
        let mut state = seed | 1;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            set.insert((state % universe as u64) as u32);
        }
        set.into_iter().collect()
    }

    #[test]
    fn parallel_matches_sequential_equal_sizes() {
        let av = gen_sorted(20_000, 3, 300_000);
        let bv = gen_sorted(20_000, 19, 300_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let want = intersect_count(&a, &b);
        for threads in [1usize, 2, 3, 4, 8] {
            assert_eq!(
                par_intersect_count(&a, &b, threads),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_folded() {
        let av = gen_sorted(1_000, 5, 500_000);
        let bv = gen_sorted(60_000, 7, 500_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_ne!(a.bitmap_bits(), b.bitmap_bits());
        let want = intersect_count(&a, &b);
        for threads in [2usize, 4, 7] {
            assert_eq!(
                par_intersect_count(&a, &b, threads),
                want,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn dedicated_executors_match_serial() {
        let av = gen_sorted(8_000, 23, 200_000);
        let bv = gen_sorted(30_000, 29, 200_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let want = crate::intersect::intersect_count_with(&a, &b, &table);
        for n in [1usize, 2, 8] {
            let exec = Executor::new(n);
            assert_eq!(
                par_intersect_count_on(&exec, &a, &b, n, &table),
                want,
                "threads={n}"
            );
        }
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let av = gen_sorted(50, 11, 10_000);
        let bv = gen_sorted(50, 13, 10_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let want = intersect_count(&a, &b);
        assert_eq!(par_intersect_count(&a, &b, 64), want);
    }

    #[test]
    fn forced_prune_partitioning_matches_serial() {
        use crate::intersect::{prune_params, set_prune_params};
        use crate::params::PruneParams;
        let _guard = crate::plan::test_knob_lock();
        // Oversized bitmaps make most summary blocks empty, so the pruned
        // partitioning actually skips; forcing the knob on keeps the test
        // deterministic. (Counts are invariant across dispatch forms, so
        // flipping the global knob cannot break concurrent tests.)
        let av = gen_sorted(8_000, 33, 1 << 28);
        let bv = gen_sorted(8_000, 39, 1 << 28);
        let p = FesiaParams::auto().with_bits_per_element(256.0);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(a.bitmap_bits(), b.bitmap_bits());
        let table = KernelTable::auto();
        let want = crate::intersect::execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
        let saved = prune_params();
        set_prune_params(PruneParams::default().with_forced(Some(true)));
        let before = fesia_obs::metrics().snapshot();
        for threads in [2usize, 3, 8] {
            assert_eq!(
                par_intersect_count_with(&a, &b, threads, &table),
                want,
                "threads={threads}"
            );
        }
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert!(
            delta.summary_blocks_skipped > 0,
            "pruned partitioning should have skipped blocks"
        );
        set_prune_params(saved);
    }

    #[test]
    fn par_set_op_matches_sequential_all_ops() {
        use crate::kernels::visit::SetOp;
        let av = gen_sorted(15_000, 91, 250_000);
        let bv = gen_sorted(15_000, 97, 250_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(a.bitmap_bits(), b.bitmap_bits());
        for op in [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ] {
            let want = crate::algebra::set_op(&a, &b, op);
            for threads in [1usize, 2, 4, 8] {
                assert_eq!(
                    par_set_op(&a, &b, op, threads),
                    want,
                    "op={op:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_set_op_folded_falls_back_correctly() {
        use crate::kernels::visit::SetOp;
        let av = gen_sorted(800, 71, 400_000);
        let bv = gen_sorted(40_000, 73, 400_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_ne!(a.bitmap_bits(), b.bitmap_bits());
        for op in [
            SetOp::Intersect,
            SetOp::Union,
            SetOp::Difference,
            SetOp::Xor,
        ] {
            let want = crate::algebra::set_op(&a, &b, op);
            assert_eq!(par_set_op(&a, &b, op, 4), want, "op={op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1], &p).unwrap();
        let b = SegmentedSet::build(&[1], &p).unwrap();
        let _ = par_intersect_count(&a, &b, 0);
    }
}
