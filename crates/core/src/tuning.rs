//! Parameter auto-tuning (paper §III-A: "The m and s are chosen to
//! minimize the total time"; Fig. 14 sweeps exactly these knobs).
//!
//! The theoretical optimum `m = n·sqrt(w)` balances the two phases
//! asymptotically, but constants (cache behaviour, segment-population
//! distribution, selectivity of the actual workload) shift the best point
//! in practice. [`tune`] measures a small grid of `(bits_per_element,
//! segment width)` candidates on caller-supplied representative workloads
//! and returns the fastest configuration.

use crate::intersect::execute_plan_count;
use crate::kernels::{KernelTable, UnpackJob, OVERREAD};
use crate::params::{CompressParams, FesiaParams, PipelineParams, PruneParams};
use crate::plan::IntersectPlan;
use crate::set::SegmentedSet;
use fesia_simd::mask::LaneWidth;
use fesia_simd::timer::CycleTimer;

/// One candidate's measurement.
#[derive(Debug, Clone, Copy)]
pub struct TuneResult {
    /// The candidate parameters.
    pub params: FesiaParams,
    /// Total cycles over the sample workload (build excluded).
    pub cycles: u64,
    /// Total encoded bytes for the sample sets.
    pub memory_bytes: usize,
}

/// The default `bits_per_element` grid (powers of two around `sqrt(w)`).
pub const DEFAULT_GRID: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 23.0, 32.0];

/// Measure every candidate on the given sample pairs and return all
/// results, fastest first. Each pair is intersected `reps` times per
/// candidate; counts are cross-checked across candidates.
///
/// # Panics
/// Panics if `samples` is empty or any sample is not sorted/unique.
pub fn tune_grid(
    samples: &[(Vec<u32>, Vec<u32>)],
    table: &KernelTable,
    reps: usize,
) -> Vec<TuneResult> {
    assert!(!samples.is_empty(), "need at least one sample pair");
    let mut results = Vec::new();
    let mut reference: Option<Vec<usize>> = None;
    for lane in [LaneWidth::U8, LaneWidth::U16] {
        for &bits in &DEFAULT_GRID {
            let params = FesiaParams::auto()
                .with_bits_per_element(bits)
                .with_segment(lane);
            let built: Vec<(SegmentedSet, SegmentedSet)> = samples
                .iter()
                .map(|(a, b)| {
                    (
                        SegmentedSet::build(a, &params).expect("valid sample"),
                        SegmentedSet::build(b, &params).expect("valid sample"),
                    )
                })
                .collect();
            let memory_bytes = built
                .iter()
                .map(|(a, b)| a.memory_bytes() + b.memory_bytes())
                .sum();
            // Warm-up + correctness capture.
            let counts: Vec<usize> = built
                .iter()
                .map(|(a, b)| crate::intersect::intersect_count_with(a, b, table))
                .collect();
            match &reference {
                None => reference = Some(counts),
                Some(want) => assert_eq!(&counts, want, "candidate {params:?} disagreed"),
            }
            let mut best = u64::MAX;
            for _ in 0..reps.max(1) {
                let t = CycleTimer::start();
                let mut acc = 0usize;
                for (a, b) in &built {
                    acc += crate::intersect::intersect_count_with(a, b, table);
                }
                std::hint::black_box(acc);
                best = best.min(t.elapsed_cycles());
            }
            results.push(TuneResult {
                params,
                cycles: best,
                memory_bytes,
            });
        }
    }
    results.sort_by_key(|r| r.cycles);
    results
}

/// Pick the fastest `(bits_per_element, segment)` configuration for the
/// sample workload (3 repetitions per candidate).
pub fn tune(samples: &[(Vec<u32>, Vec<u32>)]) -> FesiaParams {
    tune_grid(samples, &KernelTable::auto(), 3)[0].params
}

/// The phase-2 prefetch distances [`tune_pipeline`] measures (besides the
/// interleaved form itself).
pub const PIPELINE_DISTANCE_GRID: [usize; 4] = [4, 8, 16, 32];

/// Measure the pipelined dispatch against the interleaved form on the
/// sample workload and return the fastest [`PipelineParams`]: either
/// `enabled = false` (interleaved won) or the best prefetch distance from
/// [`PIPELINE_DISTANCE_GRID`]. Counts are cross-checked between every
/// candidate. Sets are built with the default [`FesiaParams`]; the result
/// is *not* installed — pass it to [`crate::set_pipeline_params`] to
/// adopt it.
///
/// # Panics
/// Panics if `samples` is empty or any sample is not sorted/unique.
pub fn tune_pipeline(
    samples: &[(Vec<u32>, Vec<u32>)],
    table: &KernelTable,
    reps: usize,
) -> PipelineParams {
    assert!(!samples.is_empty(), "need at least one sample pair");
    let params = FesiaParams::auto();
    let built: Vec<(SegmentedSet, SegmentedSet)> = samples
        .iter()
        .map(|(a, b)| {
            (
                SegmentedSet::build(a, &params).expect("valid sample"),
                SegmentedSet::build(b, &params).expect("valid sample"),
            )
        })
        .collect();
    let reference: Vec<usize> = built
        .iter()
        .map(|(a, b)| execute_plan_count(a, b, table, IntersectPlan::Plain))
        .collect();
    let measure = |f: &dyn Fn(&SegmentedSet, &SegmentedSet) -> usize| -> u64 {
        let counts: Vec<usize> = built.iter().map(|(a, b)| f(a, b)).collect();
        assert_eq!(counts, reference, "pipeline candidate disagreed");
        let mut best = u64::MAX;
        for _ in 0..reps.max(1) {
            let t = CycleTimer::start();
            let mut acc = 0usize;
            for (a, b) in &built {
                acc += f(a, b);
            }
            std::hint::black_box(acc);
            best = best.min(t.elapsed_cycles());
        }
        best
    };
    let mut best = PipelineParams::default().with_enabled(false);
    let mut best_cycles = measure(&|a, b| execute_plan_count(a, b, table, IntersectPlan::Plain));
    for &dist in &PIPELINE_DISTANCE_GRID {
        let plan = IntersectPlan::Pipelined {
            prefetch_distance: dist,
        };
        let cycles = measure(&|a, b| execute_plan_count(a, b, table, plan));
        if cycles < best_cycles {
            best_cycles = cycles;
            // Tuned on a representative sample, so the size heuristic is
            // superseded: apply the winning distance unconditionally.
            best = PipelineParams::default()
                .with_prefetch_distance(dist)
                .with_min_elements(0);
        }
    }
    best
}

/// Decide whether the summary-pruned step-1 scan should run for this
/// pair under `p` (the auto-selection half of the tentpole; forced
/// overrides short-circuit it).
///
/// Two conditions must hold for pruning to pay:
///
/// 1. **Size** — the combined bitmaps must exceed `p.min_bitmap_bytes`.
///    Below that they are cache-resident and the summary pass plus the
///    survivor indirection is pure overhead.
/// 2. **Sparsity** — summary bits are (near-)independent across the two
///    sets, so the expected fraction of blocks surviving the summary AND
///    is the product of the two summary densities. Only when that
///    product, as a percentage, is at most `p.max_survivor_pct` does
///    skipping the dead blocks outweigh the extra pass.
///
/// The estimate is intentionally cheap: both densities come from
/// popcounts cached at build time ([`SegmentedSet::summary_density`]),
/// so the decision costs a few multiplies per intersection.
pub fn should_prune(a: &SegmentedSet, b: &SegmentedSet, p: &PruneParams) -> bool {
    crate::plan::should_prune_summaries(
        &crate::plan::SetSummary::of(a),
        &crate::plan::SetSummary::of(b),
        p,
    )
}

/// Deterministic sorted-unique sample generator for [`calibrate`]
/// (xorshift64; no external randomness so profiles are reproducible).
fn calibration_sample(n: usize, seed: u64, universe: u32) -> Vec<u32> {
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

fn min_cycles(reps: usize, mut f: impl FnMut() -> usize) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = CycleTimer::start();
        std::hint::black_box(f());
        best = best.min(t.elapsed_cycles());
    }
    best
}

/// Fit a [`crate::plan::MachineProfile`] by running the existing
/// microbenchmarks on this machine (the measurement half of
/// `fesia tune`):
///
/// 1. **Pipeline** — [`tune_pipeline`] on comparable mid-size pairs
///    picks the interleaved-vs-pipelined winner and its prefetch
///    distance; the winning distance keeps the default `min_elements`
///    crossover floor (the sweep in `repro batch` locates it; a quick
///    calibration cannot beat that resolution).
/// 2. **Prune** — a sparse oversized pair (where pruning should win) is
///    timed pruned vs interleaved; if the pruned scan wins, the
///    `min_bitmap_bytes` floor is lowered to half that pair's combined
///    size, otherwise the defaults stand.
/// 3. **Gallop** — tiny pairs are timed galloping vs interleaved; the
///    ceiling is the largest combined size where galloping won (0 when
///    it never does, which keeps auto mode on the segmented merge).
///
/// `quick` shrinks sizes and repetitions (~10x less work) for smoke
/// runs. The result is *not* installed or persisted — callers pass it to
/// [`crate::plan::MachineProfile::save`] and/or apply it with the knob
/// setters.
pub fn calibrate(quick: bool) -> crate::plan::MachineProfile {
    let table = KernelTable::auto();
    let reps = if quick { 2 } else { 5 };
    let mut profile = crate::plan::MachineProfile::default();

    // 1. Pipeline crossover.
    let n = if quick { 20_000 } else { 200_000 };
    let samples: Vec<(Vec<u32>, Vec<u32>)> = (0..2u64)
        .map(|i| {
            (
                calibration_sample(n, 1 + i, (n as u32) * 20),
                calibration_sample(n, 100 + i, (n as u32) * 20),
            )
        })
        .collect();
    let tuned = tune_pipeline(&samples, &table, reps);
    profile.pipeline = if tuned.enabled {
        PipelineParams::default().with_prefetch_distance(tuned.prefetch_distance)
    } else {
        PipelineParams::default().with_enabled(false)
    };

    // 2. Prune crossover on a sparse, oversized pair.
    let pn = if quick { 4_000 } else { 20_000 };
    let sparse = FesiaParams::auto().with_bits_per_element(256.0);
    let pa = SegmentedSet::build(&calibration_sample(pn, 7, u32::MAX), &sparse).unwrap();
    let pb = SegmentedSet::build(&calibration_sample(pn, 13, u32::MAX), &sparse).unwrap();
    let plain = min_cycles(reps, || {
        execute_plan_count(&pa, &pb, &table, IntersectPlan::Plain)
    });
    let pruned = min_cycles(reps, || {
        execute_plan_count(
            &pa,
            &pb,
            &table,
            IntersectPlan::Pruned {
                prefetch_distance: 8,
            },
        )
    });
    if pruned < plain {
        let combined = pa.bitmap_bytes().len() + pb.bitmap_bytes().len();
        profile.prune = PruneParams::default().with_min_bitmap_bytes(combined / 2);
    }

    // 3. Gallop admission ceiling.
    let mut ceiling = 0usize;
    for n in [64usize, 256, 1024] {
        let ga = calibration_sample(n, 17, (n as u32) * 16);
        let gb = calibration_sample(n, 23, (n as u32) * 16);
        let params = FesiaParams::auto();
        let sa = SegmentedSet::build(&ga, &params).unwrap();
        let sb = SegmentedSet::build(&gb, &params).unwrap();
        let merge = min_cycles(reps, || {
            execute_plan_count(&sa, &sb, &table, IntersectPlan::Plain)
        });
        let gallop = min_cycles(reps, || {
            execute_plan_count(&sa, &sb, &table, IntersectPlan::GallopFallback)
        });
        if gallop < merge {
            ceiling = 2 * n;
        }
    }
    profile.gallop_max_len = ceiling;

    // 4. Compressed-tier cost constants. Decode speed: unpack every
    // segment of a dense built set (small bits/element keeps most
    // segments populated, so the per-segment dispatch overhead is
    // amortized the way real survivor sweeps amortize it). Bandwidth:
    // stream an out-of-cache buffer — the traffic the packed tier saves.
    let cn = if quick { 50_000 } else { 400_000 };
    let dense = FesiaParams::auto().with_bits_per_element(2.0);
    let cset = SegmentedSet::build(&calibration_sample(cn, 29, u32::MAX), &dense).unwrap();
    if let Some(tier) = cset.packed() {
        let words = tier.words().as_ptr();
        let width = tier.width();
        let log2_s = cset.lane().bits().trailing_zeros();
        let mut out = vec![0u32; cn + OVERREAD];
        let cycles = min_cycles(reps, || {
            for i in 0..cset.num_segments() {
                let (off, k) = cset.seg_entry(i);
                if k == 0 {
                    continue;
                }
                let job = UnpackJob {
                    bit_base: off as u64 * u64::from(width),
                    k,
                    width,
                    log2_m: cset.log2_m(),
                    log2_s,
                    seg_index: i as u32,
                };
                // SAFETY: the job describes a real segment of this set's
                // stream; `out` holds the whole reordered array + slack.
                unsafe { table.unpack_segment(words, job, out.as_mut_ptr().add(off)) };
            }
            out[0] as usize
        });
        let decode_mc = (cycles * 1000 / cn as u64).clamp(50, 20_000);
        let bytes: usize = if quick { 8 << 20 } else { 32 << 20 };
        let buf: Vec<u32> = (0..bytes / 4).map(|i| i as u32).collect();
        let bw_cycles = min_cycles(reps, || {
            let mut acc = 0u64;
            for &v in &buf {
                acc = acc.wrapping_add(u64::from(v));
            }
            acc as usize
        });
        let bw_mc = (bw_cycles * 1000 / bytes as u64).clamp(10, 5_000);
        profile.compress = CompressParams::default()
            .with_decode_millicycles(decode_mc)
            .with_bandwidth_millicycles(bw_mc);
    }

    profile
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tuner_measures_all_candidates_and_orders_them() {
        let samples = vec![
            (gen_sorted(3_000, 1, 80_000), gen_sorted(3_000, 2, 80_000)),
            (gen_sorted(2_000, 3, 80_000), gen_sorted(2_000, 4, 80_000)),
        ];
        let results = tune_grid(&samples, &KernelTable::auto(), 2);
        assert_eq!(results.len(), 2 * DEFAULT_GRID.len());
        assert!(results.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        // Memory grows with bits_per_element for a fixed lane.
        let small = results
            .iter()
            .find(|r| r.params.bits_per_element == 2.0)
            .unwrap();
        let big = results
            .iter()
            .find(|r| r.params.bits_per_element == 32.0)
            .unwrap();
        assert!(big.memory_bytes > small.memory_bytes);
    }

    #[test]
    fn tuned_params_round_trip_into_builds() {
        let samples = vec![(gen_sorted(1_000, 5, 40_000), gen_sorted(1_000, 6, 40_000))];
        let params = tune(&samples);
        let a = SegmentedSet::build(&samples[0].0, &params).unwrap();
        let b = SegmentedSet::build(&samples[0].1, &params).unwrap();
        let want = {
            let bs: std::collections::HashSet<u32> = samples[0].1.iter().copied().collect();
            samples[0].0.iter().filter(|x| bs.contains(x)).count()
        };
        assert_eq!(crate::intersect::intersect_count(&a, &b), want);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = tune(&[]);
    }

    #[test]
    fn pipeline_tuner_returns_a_measured_candidate() {
        let samples = vec![(gen_sorted(2_000, 9, 60_000), gen_sorted(2_000, 10, 60_000))];
        let p = tune_pipeline(&samples, &KernelTable::auto(), 2);
        // Either interleaved won, or a grid distance won — nothing else.
        assert!(!p.enabled || PIPELINE_DISTANCE_GRID.contains(&p.prefetch_distance));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn pipeline_tuner_rejects_empty_samples() {
        let _ = tune_pipeline(&[], &KernelTable::auto(), 1);
    }

    #[test]
    fn quick_calibration_produces_a_loadable_profile() {
        let p = calibrate(true);
        assert_eq!(p.version, crate::plan::PROFILE_VERSION);
        let back = crate::plan::MachineProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        // Phase 4 always measures on a packable calibration set.
        assert!((50..=20_000).contains(&p.compress.decode_millicycles_per_elem));
        assert!((10..=5_000).contains(&p.compress.bandwidth_millicycles_per_byte));
    }

    #[test]
    fn should_prune_honours_force_size_and_density() {
        // Small dense pair: every summary block populated, tiny bitmaps.
        let small = gen_sorted(2_000, 21, 60_000);
        let a = SegmentedSet::build(&small, &FesiaParams::auto()).unwrap();
        let b = SegmentedSet::build(&small, &FesiaParams::auto()).unwrap();
        let auto = PruneParams::default();
        assert!(!should_prune(&a, &b, &auto), "small dense must not prune");
        assert!(should_prune(&a, &b, &auto.with_forced(Some(true))));
        assert!(!should_prune(&a, &b, &auto.with_forced(Some(false))));

        // Oversized bitmaps (512 bits/element) leave most summary blocks
        // empty: once past the size floor, density admits pruning.
        let sparse_params = FesiaParams::auto().with_bits_per_element(512.0);
        let sa = SegmentedSet::build(&small, &sparse_params).unwrap();
        let sb = SegmentedSet::build(&small, &sparse_params).unwrap();
        assert!(sa.summary_density() < 0.7);
        let floor = sa.bitmap_bytes().len() + sb.bitmap_bytes().len();
        assert!(should_prune(&sa, &sb, &auto.with_min_bitmap_bytes(floor)));
        assert!(
            !should_prune(&sa, &sb, &auto.with_min_bitmap_bytes(floor + 1)),
            "below the size floor auto mode declines"
        );
        assert!(
            !should_prune(
                &sa,
                &sb,
                &auto.with_min_bitmap_bytes(floor).with_max_survivor_pct(0)
            ),
            "a zero survivor ceiling rejects any populated pair"
        );
    }
}
