//! Planner-driven materializing set algebra: `intersect`, `union`,
//! `difference`, and `xor` over [`SegmentedSet`]s.
//!
//! Every operation asks [`IntersectPlanner::plan_materialize`] for an
//! explicit plan — the same cost model the count path uses, extended
//! with an output-size term — and runs it through the same plan engine
//! as the count path, with a materializing sink that feeds each surviving
//! segment pair to the visitor kernels of [`crate::kernels::visit`], so
//! counting, materializing, and callback consumers share one body per
//! operation.
//!
//! ## Soundness of the step-1 scans
//!
//! Intersection lanes must be non-zero on *both* sides, so it scans with
//! [`MaskOp::And`](fesia_simd::mask::MaskOp::And) exactly like the count
//! path. The other three ops scan with `MaskOp::Or`: an element of the
//! output can live in any segment that is non-empty on either side, and a
//! bitmap-level ANDNOT or XOR would be unsound — two distinct elements
//! (one per side) can hash to the same bit position, zeroing the lane
//! difference while the element-level difference is non-empty. Visiting
//! the Or-superset is harmless: a segment pair with nothing to emit emits
//! nothing.
//!
//! ## Folded bitmaps
//!
//! When the bitmaps differ in size, segment `i` of the larger side folds
//! onto segment `i & (n_small - 1)` of the smaller, and the hash
//! position of an element is identical modulo the fold
//! (`position(x, k') = position(x, k) & mask`). That makes the
//! large-driven per-segment sweep *exact* for intersection and for the
//! large-side difference; small-side residuals (union, xor, and the
//! small-side difference) are resolved with per-element
//! [`SegmentedSet::contains`] probes, because one small segment folds
//! under many large segments and cannot be swept pairwise.

use crate::intersect::{
    check_compatible, default_table, route, sweep, PairSink, Route, Sides, Sweep,
};
use crate::kernels::visit::{segment_op_visit, CountVisitor, EmitVisitor, SegmentVisitor, SetOp};
use crate::plan::{IntersectPlan, IntersectPlanner, PlanMode, SetSummary};
use crate::set::SegmentedSet;
use fesia_simd::SimdLevel;
use std::cell::RefCell;
use std::ops::ControlFlow;

thread_local! {
    /// Per-thread sorted copies for the galloping fallback (one per side).
    static SORT_SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> = const {
        RefCell::new((Vec::new(), Vec::new()))
    };
}

/// Materialize `A ∩ B`, sorted ascending (planner-driven).
pub fn intersect(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Intersect)
}

/// Materialize `A ∪ B`, sorted ascending (planner-driven).
pub fn union(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Union)
}

/// Materialize `A \ B`, sorted ascending (planner-driven).
pub fn difference(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Difference)
}

/// Materialize `A △ B` (symmetric difference), sorted ascending
/// (planner-driven).
pub fn xor(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    set_op(a, b, SetOp::Xor)
}

/// Materialize any [`SetOp`] with the process-wide planner state.
pub fn set_op(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> Vec<u32> {
    let planner = IntersectPlanner::current();
    set_op_planned(a, b, op, &planner)
}

/// `|op(A, B)|` without materializing: the same planned execution driving
/// a [`CountVisitor`] instead of a `Vec`.
pub fn set_op_count(a: &SegmentedSet, b: &SegmentedSet, op: SetOp) -> usize {
    let planner = IntersectPlanner::current();
    let plan = plan_and_record(a, b, op, &planner);
    let mut v = CountVisitor::default();
    execute_plan_op(a, b, op, plan, &mut v);
    fesia_obs::metrics().algebra_emitted.add(v.0 as u64);
    v.0
}

/// [`set_op`] against an explicit planner snapshot (batch and index runs
/// take one snapshot per run). Mirrors [`crate::auto_count_planned`]'s
/// counter discipline: one `strategy_*` increment per call, `plan_forced`
/// when the mode is an override, and the per-form `plan_*` counter inside
/// the executor.
pub fn set_op_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    planner: &IntersectPlanner,
) -> Vec<u32> {
    let plan = plan_and_record(a, b, op, planner);
    let mut out = Vec::new();
    execute_plan_op(a, b, op, plan, &mut EmitVisitor(&mut out));
    fesia_obs::metrics().algebra_emitted.add(out.len() as u64);
    // Scan and probe strategies discover elements in segment (hash)
    // order; every public materializing entry point returns ascending.
    out.sort_unstable();
    out
}

fn plan_and_record(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    planner: &IntersectPlanner,
) -> IntersectPlan {
    let m = fesia_obs::metrics();
    if planner.mode != PlanMode::Auto {
        m.plan_forced.inc();
    }
    let plan = planner.plan_materialize(&SetSummary::of(a), &SetSummary::of(b), op);
    match plan {
        IntersectPlan::HashProbe => m.strategy_hash.inc(),
        _ => m.strategy_merge.inc(),
    };
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
    plan
}

/// Execute an explicit [`IntersectPlan`] for a materializing `op`,
/// feeding every output element (in segment order, unsorted) to `v`.
///
/// Every plan form is handled for every op, so forced `FESIA_PLAN` modes
/// work uniformly. The plan engine resolves what cannot run and records
/// what did: the AND-only pruned scan runs as the buffered Or-scan for
/// the non-intersect ops, and the compressed plan runs as the pipelined
/// sweep over the raw segment runs (which every set retains — the packed
/// tier stores hash-domain residuals that cannot be emitted as element
/// values).
pub fn execute_plan_op<V: SegmentVisitor>(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    plan: IntersectPlan,
    v: &mut V,
) {
    check_compatible(a, b);
    let level = default_table().level();
    match route(a, b, plan, op.scan_op(), false) {
        Route::Sweep(shape) => sweep_op(a, b, op, shape, v),
        // Sound for every op — the directory's word bitmaps are exact
        // value-domain bitmaps, not hashed filters.
        Route::Containers(ca, cb) => {
            fesia_obs::metrics().intersect_container.inc();
            crate::container::op_visit(op, ca, cb, level, v);
        }
        Route::Probe => probe_materialize(a, b, op, v),
        Route::Gallop => gallop_materialize(a, b, op, v),
    }
}

/// The materializing sink: each surviving segment pair through the
/// visitor body of `op`.
struct Materialize<'v, V> {
    op: SetOp,
    v: &'v mut V,
}

impl<V: SegmentVisitor> PairSink for Materialize<'_, V> {
    #[inline(always)]
    fn prefetch(&self, s: Sides, i: usize, j: usize) {
        s.x.prefetch_seg_entry(i);
        s.y.prefetch_seg_entry(j);
    }

    #[inline]
    fn pair<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> ControlFlow<()> {
        let (xs, ys) = (s.x.segment(i), s.y.segment(j));
        segment_op_visit(s.t.level(), self.op, xs, ys, self.v);
        ControlFlow::Continue(())
    }
}

/// The merge-family execution. Equal bitmaps sweep pairwise under the
/// op's own body; folded bitmaps sweep large-driven where that is exact
/// and probe the small-side residuals (see the module docs).
fn sweep_op<V: SegmentVisitor>(
    a: &SegmentedSet,
    b: &SegmentedSet,
    op: SetOp,
    shape: Sweep,
    v: &mut V,
) {
    let s = Sides::of(default_table(), a, b);
    let (x, y) = (s.x, s.y);
    // `op`'s Or-scan is the sound scan for the difference body too.
    let run = |op: SetOp, v: &mut V| {
        sweep(s, shape, &mut Materialize { op, v });
    };
    if a.bitmap_bits() == b.bitmap_bits() {
        return run(op, v);
    }
    match op {
        SetOp::Intersect => run(op, v),
        // One small segment folds under many large segments, so the
        // pairwise sweep would emit small-side elements repeatedly.
        // Instead: every large-side element verbatim, plus the small-side
        // residual by membership probe.
        SetOp::Union => {
            v.visit_run(x.reordered_elements());
            probe_residual(y, x, v);
        }
        // A\B with A large is pairwise-exact.
        SetOp::Difference if std::ptr::eq(a, x) => run(op, v),
        SetOp::Difference => probe_residual(a, b, v),
        // large\small is pairwise-exact; small\large by probe. The two
        // parts are disjoint, so no dedup is needed.
        SetOp::Xor => {
            run(SetOp::Difference, v);
            probe_residual(y, x, v);
        }
    }
}

/// Emit the elements of `from` that `other` does not contain.
fn probe_residual<V: SegmentVisitor>(from: &SegmentedSet, other: &SegmentedSet, v: &mut V) {
    for &x in from.reordered_elements() {
        if !other.contains(x) {
            v.visit(x);
        }
    }
}

/// The probe (`FESIAhash`) execution: element-wise membership against the
/// other side's bitmap-plus-segment filter. Exact for every op and every
/// bitmap-size combination.
fn probe_materialize<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    let m = fesia_obs::metrics();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match op {
        SetOp::Intersect => {
            m.hash_probe_elements.add(small.len() as u64);
            for &x in small.reordered_elements() {
                if large.contains(x) {
                    v.visit(x);
                }
            }
        }
        SetOp::Union => {
            m.hash_probe_elements.add(small.len() as u64);
            v.visit_run(large.reordered_elements());
            probe_residual(small, large, v);
        }
        SetOp::Difference => {
            m.hash_probe_elements.add(a.len() as u64);
            probe_residual(a, b, v);
        }
        SetOp::Xor => {
            m.hash_probe_elements.add((a.len() + b.len()) as u64);
            probe_residual(a, b, v);
            probe_residual(b, a, v);
        }
    }
}

/// The galloping fallback: sorted copies in reusable per-thread scratch,
/// then a galloping probe (intersection) or a linear merge (the rest) —
/// this path's output is the only one already ascending, but callers
/// sort regardless.
fn gallop_materialize<V: SegmentVisitor>(a: &SegmentedSet, b: &SegmentedSet, op: SetOp, v: &mut V) {
    SORT_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        let (sa, sb) = &mut *scratch;
        sa.clear();
        sa.extend_from_slice(a.reordered_elements());
        sa.sort_unstable();
        sb.clear();
        sb.extend_from_slice(b.reordered_elements());
        sb.sort_unstable();
        match op {
            SetOp::Intersect => {
                let (small, large): (&[u32], &[u32]) = if sa.len() <= sb.len() {
                    (sa, sb)
                } else {
                    (sb, sa)
                };
                let mut lo = 0usize;
                for &x in small {
                    lo = crate::intersect::gallop_find(large, lo, x);
                    if lo == large.len() {
                        break;
                    }
                    if large[lo] == x {
                        v.visit(x);
                        lo += 1;
                    }
                }
            }
            _ => segment_op_visit(SimdLevel::Scalar, op, sa, sb, v),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;
    use crate::plan::test_knob_lock;

    fn build(v: &[u32]) -> SegmentedSet {
        SegmentedSet::build(v, &FesiaParams::auto()).unwrap()
    }

    fn ref_op(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = match op {
            SetOp::Intersect => a.iter().filter(|x| b.contains(x)).copied().collect(),
            SetOp::Union => {
                let mut u: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                u
            }
            SetOp::Difference => a.iter().filter(|x| !b.contains(x)).copied().collect(),
            SetOp::Xor => a
                .iter()
                .filter(|x| !b.contains(x))
                .chain(b.iter().filter(|x| !a.contains(x)))
                .copied()
                .collect(),
        };
        out.sort_unstable();
        out
    }

    const ALL_OPS: [SetOp; 4] = [
        SetOp::Intersect,
        SetOp::Union,
        SetOp::Difference,
        SetOp::Xor,
    ];

    #[test]
    fn paper_example_all_ops() {
        let a = build(&[1, 4, 15, 21, 32, 34]);
        let b = build(&[2, 6, 12, 16, 21, 23]);
        assert_eq!(intersect(&a, &b), vec![21]);
        assert_eq!(union(&a, &b), vec![1, 2, 4, 6, 12, 15, 16, 21, 23, 32, 34]);
        assert_eq!(difference(&a, &b), vec![1, 4, 15, 32, 34]);
        assert_eq!(xor(&a, &b), vec![1, 2, 4, 6, 12, 15, 16, 23, 32, 34]);
    }

    #[test]
    fn every_plan_matches_reference_including_folded() {
        let _guard = test_knob_lock();
        let va: Vec<u32> = (0..600u32).map(|i| i * 3).collect();
        let vb: Vec<u32> = (0..200u32).map(|i| i * 7 + 1).collect();
        // Different element counts force different auto bitmap sizes,
        // exercising the folded path on every op and plan.
        let a = build(&va);
        let b = build(&vb);
        assert_ne!(a.bitmap_bits(), b.bitmap_bits(), "want a folded pair");
        for op in ALL_OPS {
            let want = ref_op(op, &va, &vb);
            for plan in [
                IntersectPlan::Plain,
                IntersectPlan::Pipelined {
                    prefetch_distance: 4,
                },
                IntersectPlan::Pruned {
                    prefetch_distance: 4,
                },
                IntersectPlan::Compressed {
                    prefetch_distance: 4,
                },
                // Directory-less pair: exercises the container fallback.
                IntersectPlan::Container,
                IntersectPlan::HashProbe,
                IntersectPlan::GallopFallback,
            ] {
                let mut out = Vec::new();
                execute_plan_op(&a, &b, op, plan, &mut EmitVisitor(&mut out));
                out.sort_unstable();
                assert_eq!(out, want, "op={op:?} plan={plan:?} (a,b)");
                let mut rev = Vec::new();
                let rwant = ref_op(op, &vb, &va);
                execute_plan_op(&b, &a, op, plan, &mut EmitVisitor(&mut rev));
                rev.sort_unstable();
                assert_eq!(rev, rwant, "op={op:?} plan={plan:?} (b,a)");
            }
            assert_eq!(set_op(&a, &b, op), want, "auto op={op:?}");
            assert_eq!(set_op_count(&a, &b, op), want.len(), "count op={op:?}");
        }
    }

    #[test]
    fn empty_and_identical_inputs() {
        let e = build(&[]);
        let s = build(&[5, 9, 1000]);
        assert_eq!(union(&e, &s), vec![5, 9, 1000]);
        assert_eq!(union(&e, &e), Vec::<u32>::new());
        assert_eq!(difference(&s, &e), vec![5, 9, 1000]);
        assert_eq!(difference(&e, &s), Vec::<u32>::new());
        assert_eq!(xor(&s, &s), Vec::<u32>::new());
        assert_eq!(intersect(&s, &s), vec![5, 9, 1000]);
        assert_eq!(xor(&e, &s), vec![5, 9, 1000]);
    }

    #[test]
    fn algebra_counters_record_ops_and_emissions() {
        let _guard = test_knob_lock();
        let a = build(&[1, 2, 3, 4]);
        let b = build(&[3, 4, 5]);
        let before = fesia_obs::metrics().snapshot();
        let u = union(&a, &b);
        let d = difference(&a, &b);
        let x = xor(&a, &b);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert_eq!(delta.algebra_union, 1);
        assert_eq!(delta.algebra_difference, 1);
        assert_eq!(delta.algebra_xor, 1);
        assert_eq!(delta.algebra_emitted, (u.len() + d.len() + x.len()) as u64);
        assert_eq!(delta.strategy_hash + delta.strategy_merge, 3);
    }
}
