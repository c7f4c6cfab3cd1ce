//! The two-phase online intersection (paper §III-C, Algorithm 1) and the
//! strategy selection for skewed inputs (§VI).

use crate::container::ContainerTier;
use crate::kernels::{KernelTable, UnpackJob, OVERREAD};
use crate::params::{CompressParams, ContainerParams, PipelineParams, PruneParams};
use crate::plan::{IntersectPlan, IntersectPlanner, PlanMode, SetSummary, ThresholdPlan};
use crate::set::SegmentedSet;
use fesia_simd::mask::{
    for_each_nonzero_lane_folded_op, for_each_nonzero_lane_folded_pruned, for_each_nonzero_lane_op,
    for_each_nonzero_lane_pruned, summary_min_bound, MaskOp, PruneStats,
};
use fesia_simd::prefetch::prefetch_read;
use fesia_simd::timer::CycleTimer;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
/// The process-wide default kernel table (widest ISA, full table).
pub(crate) fn default_table() -> &'static KernelTable {
    static TABLE: OnceLock<KernelTable> = OnceLock::new();
    TABLE.get_or_init(KernelTable::auto)
}

static PIPE_ENABLED: AtomicBool = AtomicBool::new(true);
static PIPE_DISTANCE: AtomicUsize = AtomicUsize::new(8);
static PIPE_MIN_ELEMENTS: AtomicUsize = AtomicUsize::new(1 << 16);

/// Raw store of the pipeline knobs, with no initialization check.
/// `crate::plan::ensure_init` uses this from *inside* its `OnceLock`
/// closure (the ensuring setters below would re-enter it and deadlock).
pub(crate) fn store_pipeline(p: PipelineParams) {
    PIPE_ENABLED.store(p.enabled, Ordering::Relaxed);
    PIPE_DISTANCE.store(p.prefetch_distance, Ordering::Relaxed);
    PIPE_MIN_ELEMENTS.store(p.min_elements, Ordering::Relaxed);
}

/// The process-wide [`PipelineParams`] governing
/// [`intersect_count_with`]'s dispatch form (profile + env layering done
/// by the planner's one-shot initialization).
pub fn pipeline_params() -> PipelineParams {
    crate::plan::ensure_init();
    PipelineParams {
        enabled: PIPE_ENABLED.load(Ordering::Relaxed),
        prefetch_distance: PIPE_DISTANCE.load(Ordering::Relaxed),
        min_elements: PIPE_MIN_ELEMENTS.load(Ordering::Relaxed),
    }
}

/// Replace the process-wide [`PipelineParams`] (e.g. with a tuned
/// configuration from [`crate::tuning::tune_pipeline`]).
pub fn set_pipeline_params(p: PipelineParams) {
    crate::plan::ensure_init();
    store_pipeline(p);
}

/// `PruneParams::forced` packed into one atomic: 0 = auto (`None`),
/// 1 = forced on, 2 = forced off.
static PRUNE_MODE: AtomicUsize = AtomicUsize::new(0);
static PRUNE_MIN_BYTES: AtomicUsize = AtomicUsize::new(1 << 22);
static PRUNE_MAX_SURVIVOR: AtomicUsize = AtomicUsize::new(60);

fn prune_mode_encode(forced: Option<bool>) -> usize {
    match forced {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    }
}

/// Raw store of the prune knobs, with no initialization check (see
/// [`store_pipeline`]).
pub(crate) fn store_prune(p: PruneParams) {
    PRUNE_MODE.store(prune_mode_encode(p.forced), Ordering::Relaxed);
    PRUNE_MIN_BYTES.store(p.min_bitmap_bytes, Ordering::Relaxed);
    PRUNE_MAX_SURVIVOR.store(p.max_survivor_pct as usize, Ordering::Relaxed);
}

/// The process-wide [`PruneParams`] governing [`intersect_count_with`]'s
/// choice between the plain and summary-pruned step-1 scans.
pub fn prune_params() -> PruneParams {
    crate::plan::ensure_init();
    PruneParams {
        forced: match PRUNE_MODE.load(Ordering::Relaxed) {
            1 => Some(true),
            2 => Some(false),
            _ => None,
        },
        min_bitmap_bytes: PRUNE_MIN_BYTES.load(Ordering::Relaxed),
        max_survivor_pct: PRUNE_MAX_SURVIVOR.load(Ordering::Relaxed) as u32,
    }
}

/// Replace the process-wide [`PruneParams`].
pub fn set_prune_params(p: PruneParams) {
    crate::plan::ensure_init();
    store_prune(p);
}

/// `CompressParams::forced` packed like [`PRUNE_MODE`]: 0 = auto, 1 = on,
/// 2 = off.
static COMPRESS_MODE: AtomicUsize = AtomicUsize::new(0);
static COMPRESS_MIN_ELEMENTS: AtomicUsize = AtomicUsize::new(1 << 20);
static COMPRESS_DECODE_MC: AtomicU64 = AtomicU64::new(1000);
static COMPRESS_BW_MC: AtomicU64 = AtomicU64::new(600);

/// Raw store of the compress knobs, with no initialization check (see
/// [`store_pipeline`]).
pub(crate) fn store_compress(p: CompressParams) {
    COMPRESS_MODE.store(prune_mode_encode(p.forced), Ordering::Relaxed);
    COMPRESS_MIN_ELEMENTS.store(p.min_elements, Ordering::Relaxed);
    COMPRESS_DECODE_MC.store(p.decode_millicycles_per_elem, Ordering::Relaxed);
    COMPRESS_BW_MC.store(p.bandwidth_millicycles_per_byte, Ordering::Relaxed);
}

/// The process-wide [`CompressParams`] governing the planner's choice of
/// the compressed-tier step 2 (decode bitpacked residuals into
/// cache-resident scratch instead of streaming the raw element array).
pub fn compress_params() -> CompressParams {
    crate::plan::ensure_init();
    CompressParams {
        forced: match COMPRESS_MODE.load(Ordering::Relaxed) {
            1 => Some(true),
            2 => Some(false),
            _ => None,
        },
        min_elements: COMPRESS_MIN_ELEMENTS.load(Ordering::Relaxed),
        decode_millicycles_per_elem: COMPRESS_DECODE_MC.load(Ordering::Relaxed),
        bandwidth_millicycles_per_byte: COMPRESS_BW_MC.load(Ordering::Relaxed),
    }
}

/// Replace the process-wide [`CompressParams`].
pub fn set_compress_params(p: CompressParams) {
    crate::plan::ensure_init();
    store_compress(p);
}

/// `ContainerParams::forced` packed like [`PRUNE_MODE`]: 0 = auto,
/// 1 = on, 2 = off.
static CONTAINER_MODE: AtomicUsize = AtomicUsize::new(0);
static CONTAINER_MIN_ELEMENTS: AtomicUsize = AtomicUsize::new(1 << 15);
static CONTAINER_DENSE_PCT: AtomicUsize = AtomicUsize::new(40);

/// Raw store of the container knobs, with no initialization check (see
/// [`store_pipeline`]).
pub(crate) fn store_container(p: ContainerParams) {
    CONTAINER_MODE.store(prune_mode_encode(p.forced), Ordering::Relaxed);
    CONTAINER_MIN_ELEMENTS.store(p.min_elements, Ordering::Relaxed);
    CONTAINER_DENSE_PCT.store(p.min_dense_pct as usize, Ordering::Relaxed);
}

/// The process-wide [`ContainerParams`] governing the planner's choice of
/// the per-range container dispatch (word kernels over exact value-domain
/// bitmaps instead of the hashed segment merge).
pub fn container_params() -> ContainerParams {
    crate::plan::ensure_init();
    ContainerParams {
        forced: match CONTAINER_MODE.load(Ordering::Relaxed) {
            1 => Some(true),
            2 => Some(false),
            _ => None,
        },
        min_elements: CONTAINER_MIN_ELEMENTS.load(Ordering::Relaxed),
        min_dense_pct: CONTAINER_DENSE_PCT.load(Ordering::Relaxed) as u32,
    }
}

/// Replace the process-wide [`ContainerParams`].
pub fn set_container_params(p: ContainerParams) {
    crate::plan::ensure_init();
    store_container(p);
}

thread_local! {
    /// Per-thread survivor buffer reused by every buffered sweep this
    /// thread runs — the batch layer gets cross-pair reuse for free
    /// because a pool worker keeps its thread alive.
    static PIPELINE_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };

    /// Per-thread decode destinations for the compressed step 2, one per
    /// operand side so a segment pair can be unpacked without aliasing.
    /// Side A pads with `u32::MAX`, side B with `u32::MAX - 1`: both above
    /// every decodable hash (the builder refuses to pack a set containing
    /// `fmix32(x) >= u32::MAX - 1`), and distinct from each other, so the
    /// kernels' over-read lanes can never manufacture a match.
    static DECODE_SCRATCH: RefCell<(DecodeScratch, DecodeScratch)> = const {
        RefCell::new((
            DecodeScratch::new(u32::MAX),
            DecodeScratch::new(u32::MAX - 1),
        ))
    };

    /// Reusable sorted-probe target for the galloping fallback: the
    /// smaller side's elements, sorted. Allocated once per thread and
    /// grown to the largest small side seen, so steady-state calls
    /// allocate nothing.
    static GALLOP_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// One side's decode destination: a buffer whose tail past the last
/// decoded element is always sentinel-filled, maintained with a
/// high-water mark so steady-state reuse writes nothing but the decoded
/// elements themselves.
struct DecodeScratch {
    buf: Vec<u32>,
    /// Invariant: `buf[high..]` is entirely `sentinel`.
    high: usize,
    sentinel: u32,
}

impl DecodeScratch {
    const fn new(sentinel: u32) -> Self {
        DecodeScratch {
            buf: Vec::new(),
            high: 0,
            sentinel,
        }
    }

    /// Destination pointer for a `k`-element decode, writable for `k`
    /// elements with [`OVERREAD`] sentinel slack behind them.
    ///
    /// Growing only sentinel-fills the new tail (the decode overwrites
    /// `[0, k)`); shrinking refills the now-exposed `[k, high)` span.
    #[inline]
    fn prepare(&mut self, k: usize) -> *mut u32 {
        if self.buf.len() < k + OVERREAD {
            self.buf.resize(k + OVERREAD, self.sentinel);
        } else if k < self.high {
            self.buf[k..self.high].fill(self.sentinel);
        }
        self.high = k;
        self.buf.as_mut_ptr()
    }
}

pub(crate) fn check_compatible(a: &SegmentedSet, b: &SegmentedSet) {
    assert_eq!(
        a.lane(),
        b.lane(),
        "sets must be built with the same segment width to be intersected"
    );
}

// ---------------------------------------------------------------------------
// The plan engine. Every `IntersectPlan` resolves once, in `route`, to what
// actually runs; every merge-family shape runs through `sweep`, which is
// Algorithm 1 written once: step 1 scans the bitmaps, step 2 hands each
// surviving segment pair to a `PairSink`. The sinks are `Count` (the
// specialised kernels over raw or packed segments), `Bounded` (threshold
// early exit) and the materializing sink in `crate::algebra`.
// ---------------------------------------------------------------------------

/// How a merge-family plan runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sweep {
    /// Step-1 bitmap combiner: `And` for intersection, `Or` for the other
    /// set operations.
    pub(crate) scan: MaskOp,
    /// Step 1 ANDs the block summaries first (sound only under `And`).
    pub(crate) pruned: bool,
    /// `Some(prefetch_distance)`: buffer the survivors, then sweep them
    /// with lookahead prefetch. `None`: run each survivor's step 2 the
    /// moment step 1 finds it.
    pub(crate) buffered: Option<usize>,
    /// Step 2 decodes the packed tiers (counting sinks only).
    pub(crate) packed: bool,
    /// Split the cycle count at the step-1/step-2 boundary (buffered only).
    pub(crate) timed: bool,
}

/// What a plan runs once [`route`] has resolved its fallbacks.
pub(crate) enum Route<'s> {
    /// A merge-family sweep.
    Sweep(Sweep),
    /// The per-range container word kernels.
    Containers(&'s ContainerTier, &'s ContainerTier),
    /// Element-wise membership probes (`FESIAhash`).
    Probe,
    /// The galloping sorted-merge fallback.
    Gallop,
}

/// Resolve `plan` for a sink whose step 1 scans with `scan` (`decode`:
/// the sink can count decoded packed segments), and record in the
/// `plan_*` counters the plan that will actually run. Plans a pair cannot
/// run degrade: `Pruned` under an `Or` scan, and `Compressed` without
/// packed tiers or for a sink that emits values (the packed tier stores
/// hash residuals), run `Pipelined`; `Container` without directories runs
/// `Plain`.
pub(crate) fn route<'s>(
    a: &'s SegmentedSet,
    b: &'s SegmentedSet,
    plan: IntersectPlan,
    scan: MaskOp,
    decode: bool,
) -> Route<'s> {
    let m = fesia_obs::metrics();
    let sweep = |pruned, buffered, packed| {
        Route::Sweep(Sweep {
            scan,
            pruned,
            buffered,
            packed,
            timed: false,
        })
    };
    match plan {
        IntersectPlan::Plain => {
            m.plan_plain.inc();
            sweep(false, None, false)
        }
        IntersectPlan::Pruned { prefetch_distance } if scan == MaskOp::And => {
            m.plan_pruned.inc();
            sweep(true, Some(prefetch_distance), false)
        }
        IntersectPlan::Compressed { prefetch_distance }
            if decode && a.packed().is_some() && b.packed().is_some() =>
        {
            m.plan_compressed.inc();
            sweep(false, Some(prefetch_distance), true)
        }
        IntersectPlan::Pipelined { prefetch_distance }
        | IntersectPlan::Pruned { prefetch_distance }
        | IntersectPlan::Compressed { prefetch_distance } => {
            m.plan_pipelined.inc();
            sweep(false, Some(prefetch_distance), false)
        }
        IntersectPlan::Container => match (a.container(), b.container()) {
            (Some(ca), Some(cb)) => {
                m.plan_container.inc();
                Route::Containers(ca, cb)
            }
            _ => {
                m.plan_plain.inc();
                sweep(false, None, false)
            }
        },
        IntersectPlan::HashProbe => {
            m.plan_hash.inc();
            Route::Probe
        }
        IntersectPlan::GallopFallback => {
            m.plan_gallop.inc();
            Route::Gallop
        }
    }
}

/// The table and the two sets a sweep runs over, `x` the larger bitmap
/// ([`Sides::of`]). The engine hands it to every sink hook instead of
/// letting sinks hold it: built from the sweep's own shared-reference
/// arguments, its fields stay in registers across the opaque kernel calls.
#[derive(Clone, Copy)]
pub(crate) struct Sides<'s> {
    pub(crate) t: &'s KernelTable,
    pub(crate) x: &'s SegmentedSet,
    pub(crate) y: &'s SegmentedSet,
}

impl<'s> Sides<'s> {
    /// Check that `(a, b)` can be intersected and order them for the
    /// engine: `x` is the larger-bitmap side, or `a` when the bitmaps are
    /// equal.
    pub(crate) fn of(t: &'s KernelTable, a: &'s SegmentedSet, b: &'s SegmentedSet) -> Sides<'s> {
        check_compatible(a, b);
        let (x, y) = if a.bitmap_bits() >= b.bitmap_bits() {
            (a, b)
        } else {
            (b, a)
        };
        Sides { t, x, y }
    }
}

/// Step 2's consumer. A surviving pair `(i, j)` is segment `i` of `x` and
/// its folded partner `j = i & (n_y - 1)` of `y` (`j == i` when the
/// bitmaps are equal).
pub(crate) trait PairSink {
    /// Whether the buffered sweep also calls [`PairSink::prefetch_far`],
    /// a second lookahead window further out.
    const FAR: bool = false;
    /// Hint the memory pair `(i, j)`'s step 2 will read.
    fn prefetch(&self, s: Sides, i: usize, j: usize);
    /// Hint what [`PairSink::prefetch`] itself reads.
    #[inline(always)]
    fn prefetch_far(&self, _s: Sides, _i: usize, _j: usize) {}
    /// Step 1 buffered survivor `(i, j)` (buffered sweeps only).
    #[inline(always)]
    fn found(&mut self, _s: Sides, _i: usize, _j: usize) {}
    /// Step 1 is done (buffered sweeps only); `Break` skips step 2.
    #[inline(always)]
    fn step1_done(&mut self) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
    /// Step 2 on one pair of a `FOLDED` (different-size) or equal-size
    /// pair of bitmaps; `Break` ends a buffered sweep. The interleaved
    /// form cannot stop its scan, so a sink that breaks runs buffered.
    fn pair<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> ControlFlow<()>;
}

/// What one sweep did.
#[derive(Debug, Default)]
pub(crate) struct Swept {
    survivors: usize,
    prune: Option<PruneStats>,
    step1_cycles: u64,
    step2_cycles: u64,
}

/// Step 1: visit the surviving segment indices of `x` (the larger bitmap)
/// combined with `y` under the `Or` combiner if `OR`, else `And`, through
/// the summary filter when `PRUNED`. Bitmaps of different sizes
/// (`FOLDED`) fold: segment `i` of `x` pairs with `i mod n_y` of `y`. The
/// shape is a compile-time parameter so that each caller's closure
/// reaches exactly one scanner with a constant combiner, which keeps it
/// inlined into the per-ISA scan loops.
#[inline(always)]
fn scan_survivors<const OR: bool, const PRUNED: bool, const FOLDED: bool, F: FnMut(usize)>(
    s: Sides,
    f: F,
) -> Option<PruneStats> {
    let (level, x, y) = (s.t.level(), s.x, s.y);
    let (lane, xb, yb) = (x.lane(), x.bitmap_bytes(), y.bitmap_bytes());
    let (xs, ys) = (x.summary_words(), y.summary_words());
    let op = if OR { MaskOp::Or } else { MaskOp::And };
    match (PRUNED, FOLDED) {
        (false, false) => {
            for_each_nonzero_lane_op(level, op, lane, xb, yb, f);
            None
        }
        (false, true) => {
            for_each_nonzero_lane_folded_op(level, op, lane, xb, yb, f);
            None
        }
        (true, false) => Some(for_each_nonzero_lane_pruned(level, lane, xb, yb, xs, ys, f)),
        (true, true) => Some(for_each_nonzero_lane_folded_pruned(
            level, lane, xb, yb, xs, ys, f,
        )),
    }
}

/// Run a merge-family plan of the given shape over `s`, feeding every
/// surviving segment pair to `sink`.
pub(crate) fn sweep<S: PairSink>(s: Sides, shape: Sweep, sink: &mut S) -> Swept {
    let or = shape.scan == MaskOp::Or;
    match (or, shape.pruned, s.x.bitmap_bits() != s.y.bitmap_bits()) {
        (false, false, false) => sweep_as::<S, false, false, false>(s, shape, sink),
        (false, false, true) => sweep_as::<S, false, false, true>(s, shape, sink),
        (false, true, false) => sweep_as::<S, false, true, false>(s, shape, sink),
        (false, true, true) => sweep_as::<S, false, true, true>(s, shape, sink),
        // `route` never prunes an `Or` scan.
        (true, _, false) => sweep_as::<S, true, false, false>(s, shape, sink),
        (true, _, true) => sweep_as::<S, true, false, true>(s, shape, sink),
    }
}

fn sweep_as<S: PairSink, const OR: bool, const PRUNED: bool, const FOLDED: bool>(
    s: Sides,
    shape: Sweep,
    sink: &mut S,
) -> Swept {
    let Some(dist) = shape.buffered else {
        let seg_mask = s.y.num_segments() - 1;
        let scan = |i| {
            let _ = sink.pair::<FOLDED>(s, i, partner::<FOLDED>(i, seg_mask));
        };
        let prune = scan_survivors::<OR, PRUNED, FOLDED, _>(s, scan);
        // The interleaved form keeps no survivor list, so it counts none.
        return Swept {
            prune,
            ..Swept::default()
        };
    };
    let mut run =
        |list: &mut Vec<u32>| sweep_buffered::<S, OR, PRUNED, FOLDED>(s, shape, dist, list, sink);
    PIPELINE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut list) => {
            if list.capacity() != 0 {
                fesia_obs::metrics().scratch_reused.inc();
            }
            run(&mut list)
        }
        // A visitor running another buffered sweep from inside this one.
        Err(_) => run(&mut Vec::new()),
    })
}

/// The buffered form. Step 1 pushes each surviving segment index into
/// `list`, hinting only the first `dist` — the window step 2 touches
/// before its own lookahead takes over (hinting *every* survivor at push
/// time costs issue slots, and the lines are evicted again before a long
/// sweep reaches them). Step 2 ([`sweep_list`]) then sweeps the list.
fn sweep_buffered<S: PairSink, const OR: bool, const PRUNED: bool, const FOLDED: bool>(
    s: Sides,
    shape: Sweep,
    dist: usize,
    list: &mut Vec<u32>,
    sink: &mut S,
) -> Swept {
    let seg_mask = s.y.num_segments() - 1;
    let timer = shape.timed.then(CycleTimer::start);
    list.clear();
    let push = |i| {
        let j = partner::<FOLDED>(i, seg_mask);
        if list.len() < dist {
            sink.prefetch(s, i, j);
        }
        sink.found(s, i, j);
        list.push(i as u32);
    };
    let prune = scan_survivors::<OR, PRUNED, FOLDED, _>(s, push);
    let mut swept = Swept {
        survivors: list.len(),
        prune,
        step1_cycles: timer.map_or(0, |t| t.elapsed_cycles()),
        step2_cycles: 0,
    };
    let m = fesia_obs::metrics();
    m.survivor_segments.add(list.len() as u64);
    if let Some(st) = prune {
        m.summary_blocks_skipped.add(st.skipped() as u64);
    }
    let timer = shape.timed.then(CycleTimer::start);
    if sink.step1_done().is_continue() {
        sweep_list::<S, FOLDED>(s.t, s.x, s.y, list, dist, sink);
    }
    swept.step2_cycles = timer.map_or(0, |t| t.elapsed_cycles());
    swept
}

/// Step 2 of the buffered form: sweep the survivor list keeping `dist`
/// pairs in flight, so the kernels' dependent loads overlap with compute
/// instead of serializing on cache misses. A function of its own, taking
/// the sides as separate shared references and the sink unescaped, so
/// that both stay in registers.
#[inline(never)]
fn sweep_list<S: PairSink, const FOLDED: bool>(
    t: &KernelTable,
    x: &SegmentedSet,
    y: &SegmentedSet,
    list: &[u32],
    dist: usize,
    sink: &mut S,
) {
    let s = Sides { t, x, y };
    let seg_mask = y.num_segments() - 1;
    // Steady state: the lookahead index is in bounds, so the window check
    // stays out of the loop. The tail runs with no prefetch — its lines
    // are already in flight.
    let n = list.len();
    let steady = if dist == 0 { 0 } else { n.saturating_sub(dist) };
    let j = |i: u32| partner::<FOLDED>(i as usize, seg_mask);
    for k in 0..steady {
        let ahead = list[k + dist];
        sink.prefetch(s, ahead as usize, j(ahead));
        if S::FAR && k + 2 * dist < n {
            let far = list[k + 2 * dist];
            sink.prefetch_far(s, far as usize, j(far));
        }
        let i = list[k];
        if sink.pair::<FOLDED>(s, i as usize, j(i)).is_break() {
            return;
        }
    }
    for &i in &list[steady..] {
        if sink.pair::<FOLDED>(s, i as usize, j(i)).is_break() {
            return;
        }
    }
}

/// Segment `i`'s partner on the smaller bitmap: `i mod n_y` when the
/// bitmaps fold, `i` itself when they are equal.
#[inline(always)]
fn partner<const FOLDED: bool>(i: usize, seg_mask: usize) -> usize {
    if FOLDED {
        i & seg_mask
    } else {
        i
    }
}

/// Step 2's per-pair count kernel: the compiled jump table over raw
/// segment runs ([`RawKernels`]) or decode-then-count over the packed
/// tiers ([`CompressedSweep`]).
trait SegmentCounter {
    /// As [`PairSink::FAR`].
    const FAR: bool = false;
    fn prefetch(&self, s: Sides, i: usize, j: usize);
    #[inline(always)]
    fn prefetch_far(&self, _s: Sides, _i: usize, _j: usize) {}
    fn count<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> u32;
}

/// The specialised kernels over raw segment runs. Folded pairs use the
/// A-broadcast-only family.
struct RawKernels;

impl SegmentCounter for RawKernels {
    #[inline(always)]
    fn prefetch(&self, s: Sides, i: usize, j: usize) {
        prefetch_read(s.x.seg_ptr(i));
        prefetch_read(s.y.seg_ptr(j));
    }

    #[inline(always)]
    fn count<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> u32 {
        let (t, x, y) = (s.t, s.x, s.y);
        // SAFETY: segment pointers carry PAD_LEN over-read slack and the
        // segmented layout upholds the kernel over-read contract. The
        // folded family never block-loads the large side `x` (whose
        // over-read may span a whole period of the small bitmap), and
        // small-side over-read elements belong to other folded segments.
        unsafe {
            if FOLDED {
                t.count_folded(x.seg_ptr(i), x.seg_size(i), y.seg_ptr(j), y.seg_size(j))
            } else {
                t.count(x.seg_ptr(i), x.seg_size(i), y.seg_ptr(j), y.seg_size(j))
            }
        }
    }
}

/// Prefetch the packed word segment `i`'s residual run starts in.
#[inline]
fn prefetch_packed(s: &SegmentedSet, words: *const u64, width: u32, i: usize) {
    let word = (s.seg_entry(i).0 as u64 * u64::from(width)) / 64;
    // SAFETY: the run start is inside the stream, which `words` spans.
    prefetch_read(unsafe { words.add(word as usize) });
}

/// Decode-then-count over the packed tiers. Each surviving pair is
/// unpacked into per-thread sentinel-padded scratch (the SIMD decode
/// prologue, [`KernelTable::unpack_segment`]) and counted by the ordinary
/// compare kernels. Because `fmix32` is a bijection and the decode
/// reconstructs the full 32-bit hash, the per-segment hash-domain counts
/// equal the element-domain counts — on folded pairs too, where both
/// sides decode to the same `fmix32(x)` regardless of their different
/// geometries — while step 2 streams `width/32` of the raw bytes.
struct CompressedSweep<'a> {
    xw: *const u64,
    yw: *const u64,
    wx: u32,
    wy: u32,
    log2_s: u32,
    da: &'a mut DecodeScratch,
    db: &'a mut DecodeScratch,
    pairs: u64,
    kx_total: u64,
    ky_total: u64,
}

impl CompressedSweep<'_> {
    /// Decode statistics for the pairs counted so far.
    fn stats(&self) -> CompressStats {
        CompressStats {
            segments_decoded: 2 * self.pairs,
            bytes_saved: 4 * (self.kx_total + self.ky_total)
                - (self.kx_total * u64::from(self.wx) + self.ky_total * u64::from(self.wy)) / 8,
        }
    }
}

/// Run `f` with a [`CompressedSweep`] over `(x, y)`'s packed tiers, which
/// both sides must carry ([`SegmentedSet::packed`]).
fn with_packed<T>(
    x: &SegmentedSet,
    y: &SegmentedSet,
    f: impl FnOnce(CompressedSweep<'_>) -> T,
) -> T {
    let px = x.packed().expect("compressed form needs packed tiers");
    let py = y.packed().expect("compressed form needs packed tiers");
    DECODE_SCRATCH.with(|ds| {
        let (da, db) = &mut *ds.borrow_mut();
        f(CompressedSweep {
            xw: px.words().as_ptr(),
            yw: py.words().as_ptr(),
            wx: px.width(),
            wy: py.width(),
            log2_s: x.lane().bits().trailing_zeros(),
            da,
            db,
            pairs: 0,
            kx_total: 0,
            ky_total: 0,
        })
    })
}

impl SegmentCounter for CompressedSweep<'_> {
    /// The packed-word address depends on the metadata entry, so the
    /// entry itself is hinted a window further out: by the time it is
    /// read to compute the stream word it is cache-resident, and the only
    /// in-flight misses are the asynchronous hints.
    const FAR: bool = true;

    #[inline(always)]
    fn prefetch(&self, s: Sides, i: usize, j: usize) {
        prefetch_packed(s.x, self.xw, self.wx, i);
        prefetch_packed(s.y, self.yw, self.wy, j);
    }

    #[inline(always)]
    fn prefetch_far(&self, s: Sides, i: usize, j: usize) {
        s.x.prefetch_seg_entry(i);
        s.y.prefetch_seg_entry(j);
    }

    #[inline]
    fn count<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> u32 {
        let (xo, kx) = s.x.seg_entry(i);
        let (yo, ky) = s.y.seg_entry(j);
        let dx = self.da.prepare(kx);
        let dy = self.db.prepare(ky);
        // SAFETY: the jobs describe real segments of streams packed at
        // these parameters; the scratch destinations are writable for
        // the decoded element counts (with OVERREAD sentinel slack
        // behind them); both decoded runs are ascending, sentinel-padded
        // with distinct above-range values, and OVERREAD-readable.
        let c = unsafe {
            s.t.unpack_segment(
                self.xw,
                UnpackJob {
                    bit_base: xo as u64 * u64::from(self.wx),
                    k: kx,
                    width: self.wx,
                    log2_m: s.x.log2_m(),
                    log2_s: self.log2_s,
                    seg_index: i as u32,
                },
                dx,
            );
            s.t.unpack_segment(
                self.yw,
                UnpackJob {
                    bit_base: yo as u64 * u64::from(self.wy),
                    k: ky,
                    width: self.wy,
                    log2_m: s.y.log2_m(),
                    log2_s: self.log2_s,
                    seg_index: j as u32,
                },
                dy,
            );
            s.t.count(dx as *const u32, kx, dy as *const u32, ky)
        };
        self.pairs += 1;
        self.kx_total += kx as u64;
        self.ky_total += ky as u64;
        c
    }
}

/// What the compressed step 2 did: how many segments it unpacked and how
/// much memory traffic the packed streams avoided versus reading the raw
/// element arrays (`4*(ka+kb) - (ka*wa + kb*wb)/8` bytes per surviving
/// pair).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressStats {
    /// Segments decoded from the packed streams (two per surviving pair).
    pub segments_decoded: u64,
    /// Bytes of raw-element traffic the packed streams replaced.
    pub bytes_saved: u64,
}

/// The counting sink.
struct Count<C> {
    kernels: C,
    n: u64,
}

impl<C: SegmentCounter> PairSink for Count<C> {
    const FAR: bool = C::FAR;

    #[inline(always)]
    fn prefetch(&self, s: Sides, i: usize, j: usize) {
        self.kernels.prefetch(s, i, j);
    }

    #[inline(always)]
    fn prefetch_far(&self, s: Sides, i: usize, j: usize) {
        self.kernels.prefetch_far(s, i, j);
    }

    #[inline(always)]
    fn pair<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> ControlFlow<()> {
        self.n += u64::from(self.kernels.count::<FOLDED>(s, i, j));
        ControlFlow::Continue(())
    }
}

/// The threshold sink: a [`Count`] under a residual budget. Step 1 sums
/// the budget `Σ min(|seg_x|, |seg_y|)` over the survivors — sound
/// because a zero AND lane implies an empty segment intersection, so only
/// survivors can contribute, each at most its smaller side's population.
/// A budget already below the threshold rejects with zero segment
/// compares. Step 2 keeps `count + budget >= threshold` and breaks the
/// moment it fails (reject) or, with `accept_early`, the moment the count
/// reaches the threshold (accept). The budget is zero when the sweep
/// completes, so completion itself proves `count >= threshold`.
struct Bounded<C> {
    count: Count<C>,
    budget: u64,
    threshold: u64,
    accept_early: bool,
    rejected: bool,
}

#[inline(always)]
fn cap(s: Sides, i: usize, j: usize) -> u64 {
    s.x.seg_size(i).min(s.y.seg_size(j)) as u64
}

impl<C: SegmentCounter> PairSink for Bounded<C> {
    const FAR: bool = C::FAR;

    #[inline(always)]
    fn prefetch(&self, s: Sides, i: usize, j: usize) {
        self.count.prefetch(s, i, j);
    }

    #[inline(always)]
    fn prefetch_far(&self, s: Sides, i: usize, j: usize) {
        self.count.prefetch_far(s, i, j);
    }

    #[inline(always)]
    fn found(&mut self, s: Sides, i: usize, j: usize) {
        self.budget += cap(s, i, j);
    }

    fn step1_done(&mut self) -> ControlFlow<()> {
        self.rejected = self.budget < self.threshold;
        if self.rejected {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    #[inline(always)]
    fn pair<const FOLDED: bool>(&mut self, s: Sides, i: usize, j: usize) -> ControlFlow<()> {
        self.budget -= cap(s, i, j);
        let _ = self.count.pair::<FOLDED>(s, i, j);
        let n = self.count.n;
        self.rejected = n + self.budget < self.threshold;
        if self.rejected || (self.accept_early && n >= self.threshold) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Order `(a, b)` for the engine and run `shape` over it with the counting
/// sink: the count, what the sweep did, and the decode statistics when
/// step 2 ran over the packed tiers.
fn count_sweep(
    a: &SegmentedSet,
    b: &SegmentedSet,
    t: &KernelTable,
    shape: Sweep,
) -> (usize, Swept, Option<CompressStats>) {
    let s = Sides::of(t, a, b);
    if shape.packed {
        with_packed(s.x, s.y, |kernels| {
            let mut sink = Count { kernels, n: 0 };
            let swept = sweep(s, shape, &mut sink);
            (sink.n as usize, swept, Some(sink.kernels.stats()))
        })
    } else {
        let mut sink = Count {
            kernels: RawKernels,
            n: 0,
        };
        let swept = sweep(s, shape, &mut sink);
        (sink.n as usize, swept, None)
    }
}

/// Run `f`, recording its cycle cost in `intersect_cycles` on 1 in 64
/// increments of the per-form counter `form`.
fn sampled<T>(form: &fesia_obs::Counter, f: impl FnOnce() -> T) -> T {
    let timer = (form.inc() & fesia_obs::SAMPLE_MASK == 0).then(CycleTimer::start);
    let out = f();
    if let Some(t) = timer {
        fesia_obs::metrics()
            .intersect_cycles
            .record(t.elapsed_cycles());
    }
    out
}

/// The counting face of the engine: run what [`route`] resolved,
/// recording the per-form dispatch counters.
fn count_route(a: &SegmentedSet, b: &SegmentedSet, table: &KernelTable, route: Route) -> usize {
    let m = fesia_obs::metrics();
    match route {
        Route::Sweep(shape) => {
            let form = if shape.packed {
                &m.intersect_compressed
            } else if shape.pruned {
                &m.intersect_pruned
            } else if shape.buffered.is_some() {
                &m.intersect_pipelined
            } else {
                &m.intersect_interleaved
            };
            sampled(form, || {
                let (n, _, decode) = count_sweep(a, b, table, shape);
                if let Some(d) = decode {
                    m.compressed_segments_decoded.add(d.segments_decoded);
                    m.compressed_bytes_saved.add(d.bytes_saved);
                }
                n
            })
        }
        Route::Containers(ca, cb) => sampled(&m.intersect_container, || {
            crate::container::intersect_count(ca, cb, table.level())
        }),
        Route::Probe => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            m.hash_probe_elements.add(small.len() as u64);
            hash_probe_count(small.reordered_elements(), large)
        }
        // A zero threshold never rejects.
        Route::Gallop => bounded_gallop(a, b, 0, false).unwrap_or(0) as usize,
    }
}

/// The threshold face of the engine: `Some(count)` when |A ∩ B| reaches
/// `threshold` (`count` is exact unless `accept_early`, in which case it
/// is merely `>= threshold`), `None` when it does not, established with
/// as little work as the residual bound allowed. The planner's threshold
/// term settles trivial pairs first; every other route short-circuits:
/// the merge family via the per-survivor budget, containers via
/// per-range cardinalities, and the probe family via the
/// remaining-element count.
fn threshold_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
    threshold: usize,
    accept_early: bool,
) -> Option<usize> {
    let (sa, sb) = (SetSummary::of(a), SetSummary::of(b));
    let plan = match planner.plan_pair_threshold(&sa, &sb, threshold) {
        ThresholdPlan::TrivialAccept if accept_early => return Some(threshold),
        ThresholdPlan::TrivialAccept => {
            return Some(execute_plan_count(a, b, table, planner.plan_pair(&sa, &sb)))
        }
        ThresholdPlan::TrivialReject => return None,
        ThresholdPlan::Run(plan) => plan,
    };
    let threshold = threshold as u64;
    let n = match route(a, b, plan, MaskOp::And, true) {
        Route::Sweep(shape) => {
            let s = Sides::of(table, a, b);
            // The budget exists only once step 1 is done, so this sink
            // always buffers.
            let shape = Sweep {
                buffered: Some(shape.buffered.unwrap_or(0)),
                ..shape
            };
            if shape.packed {
                with_packed(s.x, s.y, |k| {
                    bounded_sweep(s, shape, k, threshold, accept_early)
                })
            } else {
                bounded_sweep(s, shape, RawKernels, threshold, accept_early)
            }
        }
        Route::Containers(ca, cb) => {
            crate::container::and_total_bounded(ca, cb, table.level(), threshold, accept_early)
        }
        Route::Probe => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            bounded_probe(
                small.reordered_elements().iter().copied(),
                small.len(),
                |x| large.contains(x),
                threshold,
                accept_early,
            )
        }
        Route::Gallop => bounded_gallop(a, b, threshold, accept_early),
    };
    n.map(|n| n as usize)
}

fn bounded_sweep<C: SegmentCounter>(
    s: Sides,
    shape: Sweep,
    kernels: C,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    let mut sink = Bounded {
        count: Count { kernels, n: 0 },
        budget: 0,
        threshold,
        accept_early,
        rejected: false,
    };
    sweep(s, shape, &mut sink);
    (!sink.rejected).then_some(sink.count.n)
}

/// |A ∩ B| via FESIA's two-phase algorithm with an explicit kernel table.
///
/// Phase 1 ANDs the bitmaps at `table.level()` width and extracts non-zero
/// segments; phase 2 dispatches each surviving segment pair to a
/// specialized kernel. Bitmaps of different sizes fold onto one another
/// (segment `i` of the larger pairs with `i mod N2` of the smaller).
///
/// The process-wide planner picks among the merge-family plans only (the
/// caller has committed to the two-phase algorithm; a planner forced to
/// hash or gallop falls back to auto selection here): the interleaved
/// form (kernel dispatched the moment a survivor is found), the pipelined
/// form (survivors buffered with software prefetch, then swept) once the
/// pair reaches [`pipeline_params`]`().min_elements`, the summary-pruned
/// step 1 on large sparse pairs ([`crate::tuning::should_prune`] under
/// [`prune_params`]), and the compressed or container tiers when both
/// sets carry them. All forms count identically.
pub fn intersect_count_with(a: &SegmentedSet, b: &SegmentedSet, table: &KernelTable) -> usize {
    let planner = IntersectPlanner::current();
    if matches!(
        planner.mode,
        PlanMode::Plain | PlanMode::Pipelined | PlanMode::Pruned
    ) {
        fesia_obs::metrics().plan_forced.inc();
    }
    let plan = planner.plan_merge(&SetSummary::of(a), &SetSummary::of(b));
    execute_plan_count(a, b, table, plan)
}

/// Execute an explicit [`IntersectPlan`] on a pair, recording the per-form
/// dispatch counters and the `plan_*` decision counters. All plans return
/// the identical count. A plan the pair cannot run degrades and is
/// recorded as what ran: `Compressed` without packed tiers runs
/// `Pipelined`, `Container` without directories runs `Plain`.
pub fn execute_plan_count(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    plan: IntersectPlan,
) -> usize {
    count_route(a, b, table, route(a, b, plan, MaskOp::And, true))
}

// ---------------------------------------------------------------------------
// Threshold-aware (early-exit) counting: the kernels behind tiers 2 and 3
// of the similarity-join filter cascade (see `crate::simjoin`).
// ---------------------------------------------------------------------------

/// Tier-2 filter of the similarity-join cascade: a sound upper bound on
/// |A ∩ B| from the summary bitmaps and per-block populations alone.
///
/// Returns `Some(bound)` with `bound < threshold` when the pair is
/// **rejectable** without touching bitmaps, segments, or elements;
/// `None` when the bound reaches `threshold` (the pair may still fail —
/// this tier only ever proves absence, never presence).
///
/// Soundness: a common element sets the same bit *position* on both
/// sides (the smaller bitmap tiles the larger one under the power-of-two
/// folding rule), so it lands in block `b` of the large side and block
/// `b mod small_blocks` of the small side — each common element is
/// charged to exactly one block pair in the summary AND, and a block
/// pair's contribution is capped by the `min` of its two exact
/// populations ([`SegmentedSet::block_pop`]). Note the bound is *not*
/// `popcount(AND)` of the bitmaps: two distinct common elements may
/// collide onto one bit via `h mod m`, so a raw popcount could
/// under-count and wrongly reject.
pub fn summary_overlap_bound(a: &SegmentedSet, b: &SegmentedSet, threshold: usize) -> Option<u64> {
    let Sides { x, y, .. } = Sides::of(default_table(), a, b);
    summary_min_bound(
        x.summary_words(),
        y.summary_words(),
        y.summary_blocks(),
        threshold as u64,
        |bx, by| x.block_pop(bx).min(y.block_pop(by)) as u64,
    )
}

/// `Some(|A ∩ B|)` if the intersection reaches `threshold`, else `None`
/// — the cascade's tier-3 early-exit counting kernel with the
/// process-default table and planner. See
/// [`intersect_count_bounded_planned`] for the exact contract.
pub fn intersect_count_bounded(
    a: &SegmentedSet,
    b: &SegmentedSet,
    threshold: usize,
) -> Option<usize> {
    let planner = IntersectPlanner::current();
    intersect_count_bounded_planned(a, b, default_table(), &planner, threshold)
}

/// Does |A ∩ B| reach `threshold`? Early-exits in both directions: on
/// success the sweep stops the moment the running count reaches
/// `threshold`, on failure the moment the residual upper bound
/// (matched-so-far plus what the unswept remainder could still
/// contribute) drops below it.
///
/// ```
/// use fesia_core::{intersect_count_at_least, FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 5, 9, 12], &p).unwrap();
/// let b = SegmentedSet::build(&[5, 9, 20], &p).unwrap();
/// assert!(intersect_count_at_least(&a, &b, 2));
/// assert!(!intersect_count_at_least(&a, &b, 3));
/// ```
pub fn intersect_count_at_least(a: &SegmentedSet, b: &SegmentedSet, threshold: usize) -> bool {
    let planner = IntersectPlanner::current();
    intersect_count_at_least_planned(a, b, default_table(), &planner, threshold)
}

/// [`intersect_count_bounded`] against an explicit table and planner
/// snapshot. `Some(n)` implies `n == |A ∩ B|` and `n >= threshold`;
/// `None` implies `|A ∩ B| < threshold`. A zero threshold always returns
/// the exact count (the residual-bound check can never fire), so
/// `intersect_count_bounded(a, b, 0)` is a drop-in for the unbounded
/// count. The planner's threshold term resolves trivial pairs first:
/// `threshold > min(|A|, |B|)` rejects with no work at all.
pub fn intersect_count_bounded_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
    threshold: usize,
) -> Option<usize> {
    threshold_planned(a, b, table, planner, threshold, false)
}

/// [`intersect_count_at_least`] against an explicit table and planner
/// snapshot.
pub fn intersect_count_at_least_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
    threshold: usize,
) -> bool {
    threshold_planned(a, b, table, planner, threshold, true).is_some()
}

/// Probe-style early exit shared by the hash and gallop plans: `n`
/// candidate elements tested one at a time, with the residual bound
/// `count + remaining`. Completion implies `count >= threshold` (the
/// final iteration's bound is `count` itself).
fn bounded_probe<I: Iterator<Item = u32>, F: FnMut(u32) -> bool>(
    elems: I,
    n: usize,
    mut hit: F,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    if (n as u64) < threshold {
        return None;
    }
    let mut count = 0u64;
    for (idx, x) in elems.enumerate() {
        if hit(x) {
            count += 1;
            if accept_early && count >= threshold {
                return Some(count);
            }
        }
        if count + ((n - idx - 1) as u64) < threshold {
            return None;
        }
    }
    Some(count)
}

/// The galloping sorted-merge fallback under [`bounded_probe`]:
/// `O(n_large · log n_small)` with no bitmap work at all — only
/// profitable on tiny pairs, which is why auto mode gates it behind the
/// calibrated `gallop_max_len` ceiling. Only the search *target* needs to
/// be sorted, and only the smaller side needs to be the target: it is
/// copied sorted into reusable per-thread scratch, and the larger side's
/// elements are probed as stored (hash order).
fn bounded_gallop(
    a: &SegmentedSet,
    b: &SegmentedSet,
    threshold: u64,
    accept_early: bool,
) -> Option<u64> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    GALLOP_SCRATCH.with(|s| {
        let mut scratch = s.borrow_mut();
        scratch.clear();
        scratch.extend_from_slice(small.reordered_elements());
        scratch.sort_unstable();
        let hay = &*scratch;
        bounded_probe(
            large.reordered_elements().iter().copied(),
            large.len(),
            |x| {
                let lo = gallop_find(hay, 0, x);
                lo < hay.len() && hay[lo] == x
            },
            threshold,
            accept_early,
        )
    })
}

/// |A ∩ B| with the process-default kernel table (widest available ISA).
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let p = FesiaParams::auto();
/// let a = SegmentedSet::build(&[1, 5, 9, 12], &p).unwrap();
/// let b = SegmentedSet::build(&[5, 9, 20], &p).unwrap();
/// assert_eq!(fesia_core::intersect_count(&a, &b), 2);
/// ```
pub fn intersect_count(a: &SegmentedSet, b: &SegmentedSet) -> usize {
    intersect_count_with(a, b, default_table())
}

/// Materialize `A ∩ B`, sorted ascending.
///
/// FESIA discovers matches in segment (hash) order; the small result is
/// sorted before returning. This is the materializing face of the same
/// planner that drives [`auto_count`]: the pair is costed by
/// [`IntersectPlanner::plan_materialize`] and executed through the
/// visitor kernels ([`crate::kernels::visit`]), so the pruned scan, the
/// hash probe, and the galloping fallback all apply here too (the seed's
/// version bypassed the planner entirely and always ran the plain scan).
pub fn intersect(a: &SegmentedSet, b: &SegmentedSet) -> Vec<u32> {
    crate::algebra::intersect(a, b)
}

/// `FESIAhash` (paper §VI, "Input with dramatically different sizes"):
/// probe each element of `probe` against `target`'s bitmap, comparing
/// against the segment list only when the bit is set. `O(|probe|)`.
///
/// ```
/// use fesia_core::{FesiaParams, SegmentedSet};
/// let big = SegmentedSet::build(&(0..10_000).collect::<Vec<_>>(), &FesiaParams::auto()).unwrap();
/// assert_eq!(fesia_core::hash_probe_count(&[3, 9_999, 50_000], &big), 2);
/// ```
pub fn hash_probe_count(probe: &[u32], target: &SegmentedSet) -> usize {
    probe.iter().filter(|&&x| target.contains(x)).count()
}

/// Ratio of set sizes below which [`auto_count`] switches from the merge
/// strategy to hash probing (the crossover Fig. 11 locates near `1/4`).
pub const SKEW_HASH_THRESHOLD: f64 = 0.25;

/// |A ∩ B| with automatic strategy selection (paper Fig. 11): the two-phase
/// merge algorithm for comparable sizes, hash probing of the smaller set's
/// elements when the skew `min(n1,n2) / max(n1,n2)` falls below
/// [`SKEW_HASH_THRESHOLD`].
pub fn auto_count(a: &SegmentedSet, b: &SegmentedSet) -> usize {
    auto_count_with(a, b, default_table())
}

/// [`auto_count`] with an explicit kernel table for the merge strategy.
///
/// Measured note: probing element-by-element is *not* profitable merely
/// because both sets are tiny — with the minimum 512-bit bitmap, the merge
/// path touches a single cache line per side and ties the probe path — so
/// the switch follows the paper's size-*ratio* rule only.
pub fn auto_count_with(a: &SegmentedSet, b: &SegmentedSet, table: &KernelTable) -> usize {
    let planner = IntersectPlanner::current();
    auto_count_planned(a, b, table, &planner)
}

/// [`auto_count`] against an explicit planner snapshot: the full-family
/// entry point every adaptive call site (pairwise, batch, parallel,
/// dynamic, k-way two-set case, graph) routes through. Exactly one of
/// `strategy_hash` / `strategy_merge` is recorded per call (hash for the
/// probe plan, merge for everything else, including the gallop fallback),
/// so the strategy counters keep summing to the pair count.
pub fn auto_count_planned(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    planner: &IntersectPlanner,
) -> usize {
    let m = fesia_obs::metrics();
    if planner.mode != PlanMode::Auto {
        m.plan_forced.inc();
    }
    let plan = planner.plan_pair(&SetSummary::of(a), &SetSummary::of(b));
    match plan {
        IntersectPlan::HashProbe => m.strategy_hash.inc(),
        _ => m.strategy_merge.inc(),
    };
    execute_plan_count(a, b, table, plan)
}

/// First index `>= from` whose element is `>= x` (exponential search +
/// binary finish), assuming `hay[from..]` is sorted.
pub(crate) fn gallop_find(hay: &[u32], from: usize, x: u32) -> usize {
    let n = hay.len();
    if from >= n || hay[from] >= x {
        return from;
    }
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && hay[lo + step] < x {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step).min(n);
    lo + hay[lo..hi].partition_point(|&v| v < x)
}

/// Per-phase timing of one intersection (paper Fig. 14's breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// Cycles spent in phase 1 (bitmap AND + non-zero segment extraction).
    pub step1_cycles: u64,
    /// Cycles spent in phase 2 (specialized kernels on surviving segments).
    pub step2_cycles: u64,
    /// Number of segment pairs that survived the bitmap filter.
    pub matched_segments: usize,
    /// The intersection size.
    pub count: usize,
    /// Block-level summary statistics, when step 1 ran the pruned scan.
    pub prune: Option<PruneStats>,
    /// Decode statistics, when step 2 ran over the packed tiers.
    pub decode: Option<CompressStats>,
}

/// Run `plan` on one pair with per-phase timing, through the same engine
/// as [`execute_plan_count`]. Merge-family plans run buffered: step 1
/// materializes the surviving segment list (as Algorithm 1 is written), so
/// its cost is observable on its own, and `Plain` sweeps it without
/// prefetch. Plans with no segment sweep (container, hash probe, gallop)
/// book their whole cost as step 2 and report no matched segments.
pub fn intersect_count_breakdown(
    a: &SegmentedSet,
    b: &SegmentedSet,
    table: &KernelTable,
    plan: IntersectPlan,
) -> Breakdown {
    let shape = match route(a, b, plan, MaskOp::And, true) {
        Route::Sweep(shape) => shape,
        other => {
            let t = CycleTimer::start();
            let count = count_route(a, b, table, other);
            return Breakdown {
                step1_cycles: 0,
                step2_cycles: t.elapsed_cycles(),
                matched_segments: 0,
                count,
                prune: None,
                decode: None,
            };
        }
    };
    let shape = Sweep {
        buffered: Some(shape.buffered.unwrap_or(0)),
        timed: true,
        ..shape
    };
    let (count, swept, decode) = count_sweep(a, b, table, shape);
    Breakdown {
        step1_cycles: swept.step1_cycles,
        step2_cycles: swept.step2_cycles,
        matched_segments: swept.survivors,
        count,
        prune: swept.prune,
        decode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::FesiaParams;
    use fesia_simd::SimdLevel;

    fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
        let bs: std::collections::HashSet<u32> = b.iter().copied().collect();
        let mut v: Vec<u32> = a.iter().copied().filter(|x| bs.contains(x)).collect();
        v.sort_unstable();
        v
    }

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
    fn paper_example_counts_one() {
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1, 4, 15, 21, 32, 34], &p).unwrap();
        let b = SegmentedSet::build(&[2, 6, 12, 16, 21, 23], &p).unwrap();
        assert_eq!(intersect_count(&a, &b), 1);
        assert_eq!(intersect(&a, &b), vec![21]);
    }

    #[test]
    fn all_levels_and_strides_agree_with_reference() {
        let av = gen_sorted(5_000, 42, 100_000);
        let bv = gen_sorted(5_000, 99, 100_000);
        let want = reference(&av, &bv);
        for level in SimdLevel::available_levels() {
            let p = FesiaParams::for_level(level);
            let a = SegmentedSet::build(&av, &p).unwrap();
            let b = SegmentedSet::build(&bv, &p).unwrap();
            for stride in [1usize, 2, 4, 8] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want.len(),
                    "level={level} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn materialize_matches_reference() {
        let av = gen_sorted(2_000, 7, 50_000);
        let bv = gen_sorted(3_000, 13, 50_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(intersect(&a, &b), reference(&av, &bv));
    }

    #[test]
    fn folded_bitmap_sizes_work() {
        // Very different sizes -> different bitmap sizes -> folded path.
        let av = gen_sorted(100, 5, 1_000_000);
        let bv = gen_sorted(50_000, 11, 1_000_000);
        let want = reference(&av, &bv);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_ne!(a.bitmap_bits(), b.bitmap_bits());
        assert_eq!(intersect_count(&a, &b), want.len());
        assert_eq!(intersect_count(&b, &a), want.len());
        assert_eq!(intersect(&a, &b), want);
    }

    #[test]
    fn hash_probe_matches_merge() {
        let av = gen_sorted(200, 3, 500_000);
        let bv = gen_sorted(20_000, 17, 500_000);
        let want = reference(&av, &bv).len();
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert_eq!(hash_probe_count(&av, &b), want);
        assert_eq!(auto_count(&a, &b), want);
        assert_eq!(auto_count(&b, &a), want);
    }

    #[test]
    fn gallop_fallback_matches_reference() {
        let p = FesiaParams::auto();
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (gen_sorted(200, 3, 5_000), gen_sorted(300, 17, 5_000)),
            (gen_sorted(50, 7, 500_000), gen_sorted(5_000, 11, 500_000)),
            (vec![], gen_sorted(100, 13, 1_000)),
            (gen_sorted(64, 19, 1_000), gen_sorted(64, 19, 1_000)),
            (
                (0..100).map(|i| i * 2).collect(),
                (0..100).map(|i| i * 2 + 1).collect(),
            ),
        ];
        for (av, bv) in &cases {
            let a = SegmentedSet::build(av, &p).unwrap();
            let b = SegmentedSet::build(bv, &p).unwrap();
            let want = reference(av, bv).len();
            let gallop = IntersectPlan::GallopFallback;
            assert_eq!(execute_plan_count(&a, &b, default_table(), gallop), want);
            assert_eq!(execute_plan_count(&b, &a, default_table(), gallop), want);
        }
    }

    #[test]
    fn empty_and_disjoint_sets() {
        let p = FesiaParams::auto();
        let e = SegmentedSet::build(&[], &p).unwrap();
        let a = SegmentedSet::build(&[1, 2, 3], &p).unwrap();
        let b = SegmentedSet::build(&[4, 5, 6], &p).unwrap();
        assert_eq!(intersect_count(&e, &a), 0);
        assert_eq!(intersect_count(&a, &e), 0);
        assert_eq!(intersect_count(&a, &b), 0);
        assert_eq!(auto_count(&e, &a), 0);
        assert!(intersect(&a, &b).is_empty());
    }

    #[test]
    fn identical_sets_count_everything() {
        let v = gen_sorted(1_000, 21, 10_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&v, &p).unwrap();
        let b = SegmentedSet::build(&v, &p).unwrap();
        assert_eq!(intersect_count(&a, &b), v.len());
        assert_eq!(intersect(&a, &b), v);
    }

    #[test]
    fn breakdown_is_consistent() {
        let av = gen_sorted(4_000, 31, 60_000);
        let bv = gen_sorted(4_000, 37, 60_000);
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let bd = intersect_count_breakdown(&a, &b, &table, IntersectPlan::Plain);
        assert_eq!(bd.count, reference(&av, &bv).len());
        assert!(bd.matched_segments >= bd.count);
        // True matches always survive the filter.
        assert!(bd.matched_segments <= a.num_segments());

        // Every merge-family plan, on an equal-bitmap and a folded pair
        // (both packed, so `Compressed` runs the decode sweep), in both
        // argument orders: the breakdown counts what the executor counts
        // and reports exactly the survivors of the offline scan.
        let folded_small = gen_sorted(300, 5, 1_000_000);
        let folded_big = gen_sorted(50_000, 11, 1_000_000);
        let c = SegmentedSet::build(&folded_small, &p).unwrap();
        let d = SegmentedSet::build(&folded_big, &p).unwrap();
        assert_ne!(c.bitmap_bits(), d.bitmap_bits());
        let plans = [
            IntersectPlan::Plain,
            IntersectPlan::Pipelined {
                prefetch_distance: 8,
            },
            IntersectPlan::Pruned {
                prefetch_distance: 8,
            },
            IntersectPlan::Compressed {
                prefetch_distance: 8,
            },
        ];
        for (x, y) in [(&a, &b), (&b, &a), (&c, &d), (&d, &c)] {
            assert!(x.packed().is_some() && y.packed().is_some());
            for plan in plans {
                let bd = intersect_count_breakdown(x, y, &table, plan);
                assert_eq!(bd.count, execute_plan_count(x, y, &table, plan), "{plan:?}");
                assert_eq!(
                    bd.matched_segments,
                    crate::stats::survivor_segments(x, y),
                    "{plan:?}"
                );
                let pruned = matches!(plan, IntersectPlan::Pruned { .. });
                let packed = matches!(plan, IntersectPlan::Compressed { .. });
                assert_eq!(bd.prune.is_some(), pruned, "{plan:?}");
                assert_eq!(bd.decode.is_some(), packed, "{plan:?}");
            }
        }
    }

    #[test]
    fn dense_collision_segments_still_correct() {
        // Tiny bitmap -> many collisions per segment -> exercises the
        // large-by-large kernels and the merge fallback.
        let av = gen_sorted(3_000, 51, 30_000);
        let bv = gen_sorted(3_000, 53, 30_000);
        let want = reference(&av, &bv).len();
        let p = FesiaParams::auto().with_bits_per_element(0.5);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        for level in SimdLevel::available_levels() {
            for stride in [1usize, 4] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want,
                    "level={level} stride={stride}"
                );
            }
        }
    }

    /// Regression: folded intersection must never block-load the large
    /// side. With sparse segments, a 16-lane load from the large set can
    /// span more than one full period of a 512-bit small bitmap and reach
    /// an element that folds back into the probed segment — a value that
    /// legitimately occurs in both sets' *other* segments and must not be
    /// counted here. Inputs are a real adjacency-list pair (RMAT graph)
    /// that produced `got = 3, want = 2` before the fix.
    #[test]
    fn folded_overread_cannot_double_count() {
        let nu: Vec<u32> = vec![
            258, 288, 546, 568, 656, 672, 832, 1024, 1032, 1296, 4132, 6144,
        ];
        let nv: Vec<u32> = vec![
            0, 1, 2, 4, 8, 10, 16, 17, 24, 25, 32, 40, 48, 64, 65, 82, 104, 130, 264, 272, 290,
            386, 512, 515, 548, 576, 896, 1024, 1025, 1026, 1032, 1040, 1184, 1282, 2052, 2065,
            2072, 2081, 2096, 2144, 2176, 2368, 2560, 2562, 2568, 2576, 3584, 4098, 4112, 4128,
            4384, 4612, 5121, 5632,
        ];
        let want = reference(&nu, &nv).len();
        assert_eq!(want, 2); // {1024, 1032}
        for level in SimdLevel::available_levels() {
            // AVX-512 sizing (m = 22.6 bits/element) reproduces the original
            // 512- vs 2048-bit bitmap pair regardless of the scan level.
            let params = FesiaParams::for_level(SimdLevel::Avx512);
            let a = SegmentedSet::build(&nu, &params).unwrap();
            let b = SegmentedSet::build(&nv, &params).unwrap();
            assert_ne!(
                a.bitmap_bits(),
                b.bitmap_bits(),
                "must exercise the folded path"
            );
            for stride in [1usize, 2, 4, 8] {
                let table = KernelTable::new(level, stride);
                assert_eq!(
                    intersect_count_with(&a, &b, &table),
                    want,
                    "level={level} stride={stride}"
                );
                assert_eq!(
                    intersect_count_with(&b, &a, &table),
                    want,
                    "level={level} stride={stride} swapped"
                );
                let bd = intersect_count_breakdown(&a, &b, &table, IntersectPlan::Plain);
                assert_eq!(bd.count, want, "breakdown level={level} stride={stride}");
            }
        }
    }

    #[test]
    fn pipelined_equals_interleaved_on_random_folded_and_dense_inputs() {
        let table = KernelTable::auto();
        // (params, a, b) triples covering equal bitmaps, folded bitmaps,
        // and dense collision-heavy segments.
        let cases: Vec<(FesiaParams, Vec<u32>, Vec<u32>)> = vec![
            (
                FesiaParams::auto(),
                gen_sorted(5_000, 42, 100_000),
                gen_sorted(5_000, 99, 100_000),
            ),
            (
                FesiaParams::auto(),
                gen_sorted(100, 5, 1_000_000),
                gen_sorted(50_000, 11, 1_000_000),
            ),
            (
                FesiaParams::auto().with_bits_per_element(0.5),
                gen_sorted(3_000, 51, 30_000),
                gen_sorted(3_000, 53, 30_000),
            ),
            (FesiaParams::auto(), vec![], gen_sorted(500, 3, 10_000)),
        ];
        for (p, av, bv) in &cases {
            let a = SegmentedSet::build(av, p).unwrap();
            let b = SegmentedSet::build(bv, p).unwrap();
            let want = execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
            assert_eq!(want, reference(av, bv).len());
            for dist in [0usize, 1, 4, 8, 64] {
                let plan = IntersectPlan::Pipelined {
                    prefetch_distance: dist,
                };
                assert_eq!(
                    execute_plan_count(&a, &b, &table, plan),
                    want,
                    "dist={dist}"
                );
                assert_eq!(
                    execute_plan_count(&b, &a, &table, plan),
                    want,
                    "dist={dist} swapped"
                );
            }
        }
    }

    #[test]
    fn pipeline_knob_round_trips_and_dispatch_is_equivalent() {
        let _guard = crate::plan::test_knob_lock();
        let p = FesiaParams::auto();
        let av = gen_sorted(2_000, 61, 40_000);
        let bv = gen_sorted(2_000, 67, 40_000);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let saved = pipeline_params();
        let want = execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
        set_pipeline_params(PipelineParams::default().with_enabled(false));
        assert!(!pipeline_params().enabled);
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_pipeline_params(
            PipelineParams::default()
                .with_prefetch_distance(16)
                .with_min_elements(0),
        );
        assert_eq!(pipeline_params().prefetch_distance, 16);
        assert_eq!(pipeline_params().min_elements, 0);
        assert!(pipeline_params().enabled);
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        // Above the floor the dispatcher falls back to interleaved.
        set_pipeline_params(PipelineParams::default().with_min_elements(usize::MAX));
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_pipeline_params(saved);
    }

    /// The compressed step 2 must count identically to the raw kernels on
    /// random, folded, dense-collision, sparse, disjoint, and identical
    /// inputs — across every available SIMD level and both strides the
    /// dense test exercises.
    #[test]
    fn compressed_equals_interleaved_across_shapes() {
        let random_a = gen_sorted(5_000, 42, 100_000);
        let random_b = gen_sorted(5_000, 99, 100_000);
        let identical = gen_sorted(2_000, 7, 50_000);
        let disjoint_a: Vec<u32> = (0..2_000u32).map(|i| i * 2).collect();
        let disjoint_b: Vec<u32> = (0..2_000u32).map(|i| i * 2 + 1).collect();
        // 300 elements keeps the residual width under the packing ceiling
        // even at the scalar level's 8 bits/element (smaller sets round up
        // to bitmaps too small for a <= 24-bit residual).
        let folded_small = gen_sorted(300, 5, 1_000_000);
        let folded_big = gen_sorted(50_000, 11, 1_000_000);
        // (bits_per_element override, a, b); every set is above the
        // packing floor so all of them carry a tier.
        let cases: Vec<(Option<f64>, &[u32], &[u32])> = vec![
            (None, &random_a, &random_b),
            (None, &folded_small, &folded_big),
            (Some(0.5), &random_a, &random_b),
            (Some(64.0), &random_a, &random_b),
            (None, &disjoint_a, &disjoint_b),
            (None, &identical, &identical),
        ];
        for level in SimdLevel::available_levels() {
            for (bits, av, bv) in &cases {
                let mut p = FesiaParams::for_level(level);
                if let Some(bits) = bits {
                    p = p.with_bits_per_element(*bits);
                }
                let a = SegmentedSet::build(av, &p).unwrap();
                let b = SegmentedSet::build(bv, &p).unwrap();
                assert!(a.packed().is_some() && b.packed().is_some());
                for stride in [1usize, 4] {
                    let table = KernelTable::new(level, stride);
                    let want = execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
                    assert_eq!(want, reference(av, bv).len());
                    for dist in [0usize, 8, 64] {
                        let plan = IntersectPlan::Compressed {
                            prefetch_distance: dist,
                        };
                        let bd = intersect_count_breakdown(&a, &b, &table, plan);
                        assert_eq!(bd.count, want, "level={level} stride={stride} dist={dist}");
                        let stats = bd.decode.expect("both sides carry packed tiers");
                        assert_eq!(stats.segments_decoded, 2 * bd.matched_segments as u64);
                        if bd.matched_segments > 0 {
                            assert!(stats.bytes_saved > 0, "width <= 24 always saves bytes");
                        }
                        assert_eq!(execute_plan_count(&a, &b, &table, plan), want);
                        assert_eq!(execute_plan_count(&b, &a, &table, plan), want, "swapped");
                    }
                }
            }
        }
    }

    #[test]
    fn compressed_plan_falls_back_without_tiers() {
        // Below the packing floor no tier (and no container directory) is
        // built; an explicit Compressed or Container plan must still count
        // correctly, and must run — so record — the fallback plan.
        let p = FesiaParams::auto();
        let a = SegmentedSet::build(&[1, 4, 15, 21, 32, 34], &p).unwrap();
        let b = SegmentedSet::build(&[2, 6, 12, 16, 21, 23], &p).unwrap();
        assert!(a.packed().is_none() && a.container().is_none());
        let compressed = IntersectPlan::Compressed {
            prefetch_distance: 8,
        };
        for plan in [compressed, IntersectPlan::Container] {
            assert_eq!(execute_plan_count(&a, &b, default_table(), plan), 1);
        }
        let ran = |plan| match route(&a, &b, plan, MaskOp::And, true) {
            Route::Sweep(shape) => Some((shape.packed, shape.pruned, shape.buffered)),
            _ => None,
        };
        // Pipelined, then Plain.
        assert_eq!(ran(compressed), Some((false, false, Some(8))));
        assert_eq!(ran(IntersectPlan::Container), Some((false, false, None)));
    }

    #[test]
    fn compress_knob_round_trips_and_dispatch_is_equivalent() {
        let _guard = crate::plan::test_knob_lock();
        let p = FesiaParams::auto();
        let av = gen_sorted(4_000, 81, 80_000);
        let bv = gen_sorted(4_000, 83, 80_000);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert!(a.packed().is_some() && b.packed().is_some());
        let table = KernelTable::auto();
        let saved = compress_params();
        let want = execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
        let before = fesia_obs::metrics().snapshot();
        set_compress_params(CompressParams::default().with_forced(Some(true)));
        assert_eq!(compress_params().forced, Some(true));
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert!(delta.intersect_compressed >= 1);
        assert!(delta.compressed_segments_decoded >= 2);
        set_compress_params(CompressParams::default().with_forced(Some(false)));
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_compress_params(
            CompressParams::default()
                .with_min_elements(9)
                .with_decode_millicycles(1234)
                .with_bandwidth_millicycles(567),
        );
        assert_eq!(compress_params().forced, None);
        assert_eq!(compress_params().min_elements, 9);
        assert_eq!(compress_params().decode_millicycles_per_elem, 1234);
        assert_eq!(compress_params().bandwidth_millicycles_per_byte, 567);
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_compress_params(saved);
    }

    #[test]
    #[should_panic(expected = "segment width")]
    fn mixed_lane_widths_panic() {
        use fesia_simd::mask::LaneWidth;
        let a = SegmentedSet::build(&[1, 2], &FesiaParams::auto()).unwrap();
        let b = SegmentedSet::build(&[1, 2], &FesiaParams::auto().with_segment(LaneWidth::U16))
            .unwrap();
        let _ = intersect_count(&a, &b);
    }

    /// Satellite 3: the pruned step 1 must count identically to the
    /// unpruned scan on random, folded, dense-collision, disjoint, and
    /// identical inputs — across every available SIMD level, both
    /// segment widths, and all kernel strides.
    #[test]
    fn pruned_equals_unpruned_across_levels_and_strides() {
        use fesia_simd::mask::LaneWidth;
        let random_a = gen_sorted(5_000, 42, 100_000);
        let random_b = gen_sorted(5_000, 99, 100_000);
        let identical = gen_sorted(2_000, 7, 50_000);
        let disjoint_a: Vec<u32> = (0..2_000u32).map(|i| i * 2).collect();
        let disjoint_b: Vec<u32> = (0..2_000u32).map(|i| i * 2 + 1).collect();
        // (bits_per_element override, a, b) — None keeps the level default.
        let cases: Vec<(Option<f64>, &[u32], &[u32])> = vec![
            (None, &random_a, &random_b),
            // Folded: very different sizes -> different bitmap sizes.
            (None, &identical, &random_a),
            // Dense collisions: coarse bitmap packs many elements per lane.
            (Some(0.5), &random_a, &random_b),
            // Sparse: oversized bitmaps, where pruning actually skips.
            (Some(64.0), &random_a, &random_b),
            (None, &disjoint_a, &disjoint_b),
            (None, &identical, &identical),
            (None, &[], &random_a),
        ];
        for level in SimdLevel::available_levels() {
            for lane in [LaneWidth::U8, LaneWidth::U16] {
                for (bits, av, bv) in &cases {
                    let mut p = FesiaParams::for_level(level).with_segment(lane);
                    if let Some(bits) = bits {
                        p = p.with_bits_per_element(*bits);
                    }
                    let a = SegmentedSet::build(av, &p).unwrap();
                    let b = SegmentedSet::build(bv, &p).unwrap();
                    for stride in [1usize, 2, 4, 8] {
                        let table = KernelTable::new(level, stride);
                        let plain = intersect_count_breakdown(&a, &b, &table, IntersectPlan::Plain);
                        let want = plain.count;
                        assert_eq!(want, reference(av, bv).len());
                        for dist in [0usize, 8] {
                            let plan = IntersectPlan::Pruned {
                                prefetch_distance: dist,
                            };
                            assert_eq!(
                                execute_plan_count(&a, &b, &table, plan),
                                want,
                                "level={level} lane={lane:?} stride={stride} dist={dist}"
                            );
                            assert_eq!(execute_plan_count(&b, &a, &table, plan), want);
                            let bd = intersect_count_breakdown(&a, &b, &table, plan);
                            assert_eq!(bd.count, want);
                            // Pruning skips only blocks with no surviving lane.
                            assert_eq!(bd.matched_segments, plain.matched_segments);
                            let stats = bd.prune.expect("the pruned scan reports its blocks");
                            assert!(stats.visited <= stats.blocks);
                            assert_eq!(stats.skipped(), stats.blocks - stats.visited);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_scan_skips_blocks_on_sparse_disjoint_inputs() {
        // 512 bits/element spreads ~2k elements over a 2^20-bit bitmap:
        // most summary bits are clear, so disjoint halves of the hash
        // space must leave blocks unvisited.
        let av = gen_sorted(2_000, 3, 1 << 30);
        let bv = gen_sorted(2_000, 5, 1 << 30);
        let p = FesiaParams::auto().with_bits_per_element(512.0);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let pruned = IntersectPlan::Pruned {
            prefetch_distance: 8,
        };
        let bd = intersect_count_breakdown(&a, &b, &table, pruned);
        assert_eq!(
            bd.count,
            execute_plan_count(&a, &b, &table, IntersectPlan::Plain)
        );
        let stats = bd.prune.expect("the pruned scan reports its blocks");
        assert!(
            stats.skipped() > stats.blocks / 4,
            "sparse pair should skip a sizable fraction: {stats:?}"
        );
    }

    #[test]
    fn prune_knob_round_trips_and_dispatch_is_equivalent() {
        let _guard = crate::plan::test_knob_lock();
        let p = FesiaParams::auto().with_bits_per_element(64.0);
        let av = gen_sorted(2_000, 71, 40_000);
        let bv = gen_sorted(2_000, 73, 40_000);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        let table = KernelTable::auto();
        let saved = prune_params();
        let want = execute_plan_count(&a, &b, &table, IntersectPlan::Plain);
        let before = fesia_obs::metrics().snapshot();
        set_prune_params(PruneParams::default().with_forced(Some(true)));
        assert_eq!(prune_params().forced, Some(true));
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        let delta = fesia_obs::metrics().snapshot().delta(&before);
        assert!(delta.intersect_pruned >= 1);
        set_prune_params(PruneParams::default().with_forced(Some(false)));
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_prune_params(
            PruneParams::default()
                .with_min_bitmap_bytes(7)
                .with_max_survivor_pct(33),
        );
        assert_eq!(prune_params().forced, None);
        assert_eq!(prune_params().min_bitmap_bytes, 7);
        assert_eq!(prune_params().max_survivor_pct, 33);
        assert_eq!(intersect_count_with(&a, &b, &table), want);
        set_prune_params(saved);
    }

    /// The threshold kernels' contract, under every forced plan: for any
    /// pair and any threshold `t`, `intersect_count_bounded` returns
    /// `Some(exact)` exactly when `exact >= t` or `t == 0`, and
    /// `intersect_count_at_least` returns `exact >= t` — including the
    /// hostile thresholds 0, 1, `exact ± 1`, and past the smaller side.
    #[test]
    fn threshold_kernels_agree_with_exact_on_every_forced_plan() {
        use crate::plan::{plan_mode, set_plan_mode, PlanMode};
        let _guard = crate::plan::test_knob_lock();
        let saved = plan_mode();

        let random_a = gen_sorted(3_000, 42, 60_000);
        let random_b = gen_sorted(3_000, 99, 60_000);
        let folded_small = gen_sorted(300, 5, 1_000_000);
        let folded_big = gen_sorted(20_000, 11, 1_000_000);
        let skew_small = gen_sorted(64, 21, 1 << 20);
        let skew_big = gen_sorted(20_000, 23, 1 << 20);
        let identical = gen_sorted(1_000, 7, 50_000);
        let disjoint_a: Vec<u32> = (0..1_000u32).map(|i| i * 2).collect();
        let disjoint_b: Vec<u32> = (0..1_000u32).map(|i| i * 2 + 1).collect();
        let empty: Vec<u32> = Vec::new();
        let cases: Vec<(&str, &[u32], &[u32])> = vec![
            ("random", &random_a, &random_b),
            ("folded", &folded_small, &folded_big),
            ("skewed", &skew_small, &skew_big),
            ("identical", &identical, &identical),
            ("disjoint", &disjoint_a, &disjoint_b),
            ("empty", &empty, &random_a),
        ];
        let p = FesiaParams::auto();
        let table = KernelTable::auto();
        for mode in PlanMode::FORCED {
            set_plan_mode(mode);
            let planner = IntersectPlanner::current();
            for (name, av, bv) in &cases {
                let a = SegmentedSet::build(av, &p).unwrap();
                let b = SegmentedSet::build(bv, &p).unwrap();
                let want = reference(av, bv).len();
                let min_len = av.len().min(bv.len());
                for t in [
                    0,
                    1,
                    want.saturating_sub(1),
                    want,
                    want + 1,
                    min_len,
                    min_len + 1,
                    min_len * 2 + 3,
                ] {
                    let expect = (t == 0 || want >= t).then_some(want);
                    assert_eq!(
                        intersect_count_bounded_planned(&a, &b, &table, &planner, t),
                        expect,
                        "mode={mode:?} case={name} t={t}"
                    );
                    assert_eq!(
                        intersect_count_at_least_planned(&a, &b, &table, &planner, t),
                        want >= t,
                        "mode={mode:?} case={name} t={t}"
                    );
                    // Symmetry: the kernels order sides internally.
                    assert_eq!(
                        intersect_count_bounded_planned(&b, &a, &table, &planner, t),
                        expect,
                        "mode={mode:?} case={name} t={t} swapped"
                    );
                }
            }
        }
        set_plan_mode(saved);
    }

    /// Same contract over the packed (compressed step 2) and container
    /// tiers, forced on through their knobs so the bounded sweep runs the
    /// tier paths rather than the raw segment kernels.
    #[test]
    fn threshold_kernels_agree_on_forced_compress_and_container_tiers() {
        use crate::plan::SetSummary;
        let _guard = crate::plan::test_knob_lock();
        let p = FesiaParams::auto();
        let table = KernelTable::auto();

        // Packed tier: sets above the packing floor.
        let av = gen_sorted(4_000, 81, 80_000);
        let bv = gen_sorted(4_000, 83, 80_000);
        let a = SegmentedSet::build(&av, &p).unwrap();
        let b = SegmentedSet::build(&bv, &p).unwrap();
        assert!(a.packed().is_some() && b.packed().is_some());
        let saved_compress = compress_params();
        set_compress_params(CompressParams::default().with_forced(Some(true)));
        let planner = IntersectPlanner::current();
        assert!(matches!(
            planner.plan_pair(&SetSummary::of(&a), &SetSummary::of(&b)),
            IntersectPlan::Compressed { .. }
        ));
        let want = reference(&av, &bv).len();
        for t in [0, 1, want, want + 1, av.len() + 7] {
            let expect = (t == 0 || want >= t).then_some(want);
            assert_eq!(
                intersect_count_bounded_planned(&a, &b, &table, &planner, t),
                expect,
                "compressed t={t}"
            );
            assert_eq!(
                intersect_count_at_least_planned(&a, &b, &table, &planner, t),
                want >= t,
                "compressed t={t}"
            );
        }
        set_compress_params(saved_compress);

        // Container tier: run-heavy value domains.
        let run_a: Vec<u32> = (0..6_000u32).collect();
        let run_b: Vec<u32> = (3_000..9_000u32).collect();
        let ca = SegmentedSet::build(&run_a, &p).unwrap();
        let cb = SegmentedSet::build(&run_b, &p).unwrap();
        assert!(ca.container().is_some() && cb.container().is_some());
        let saved_container = container_params();
        set_container_params(ContainerParams::default().with_forced(Some(true)));
        let planner = IntersectPlanner::current();
        assert!(matches!(
            planner.plan_pair(&SetSummary::of(&ca), &SetSummary::of(&cb)),
            IntersectPlan::Container
        ));
        let want = 3_000usize;
        for t in [0, 1, want, want + 1, run_a.len() + 7] {
            let expect = (t == 0 || want >= t).then_some(want);
            assert_eq!(
                intersect_count_bounded_planned(&ca, &cb, &table, &planner, t),
                expect,
                "container t={t}"
            );
            assert_eq!(
                intersect_count_at_least_planned(&ca, &cb, &table, &planner, t),
                want >= t,
                "container t={t}"
            );
        }
        set_container_params(saved_container);
    }
}
