//! Differential SIMD testing: every ISA path in the workspace must produce
//! bit-identical results to its scalar twin on the same inputs, across the
//! regimes that stress different code paths (dense segments, folded
//! bitmaps, ragged tails, sentinel-adjacent values).

use fesia_baselines::{bmiss, shuffling, simd_galloping};
use fesia_core::{FesiaParams, KernelTable, SegmentedSet, SimdLevel, MAX_ELEMENT};
use fesia_datagen::{pair_with_intersection, sorted_distinct, SplitMix64};

fn regimes() -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rng = SplitMix64::new(0x51D);
    let mut out = Vec::new();
    // Controlled-overlap pairs across sizes.
    for (n, r) in [
        (64usize, 8usize),
        (1_000, 10),
        (10_000, 100),
        (10_000, 5_000),
    ] {
        out.push(pair_with_intersection(n, n, r, &mut rng));
    }
    // Dense universes (heavy per-segment collisions).
    let a = sorted_distinct(5_000, 20_000, &mut rng);
    let b = sorted_distinct(5_000, 20_000, &mut rng);
    out.push((a, b));
    // Values at the very top of the element domain.
    let top: Vec<u32> = (0..2_000).map(|i| MAX_ELEMENT - 2 * i).rev().collect();
    let top2: Vec<u32> = (0..2_000).map(|i| MAX_ELEMENT - 3 * i).rev().collect();
    out.push((top, top2));
    // Ragged lengths that are not multiples of any vector width.
    out.push(pair_with_intersection(1_003, 977, 31, &mut rng));
    out
}

#[test]
fn fesia_levels_are_bit_identical() {
    for (i, (av, bv)) in regimes().into_iter().enumerate() {
        let mut answers = Vec::new();
        for level in SimdLevel::available_levels() {
            let params = FesiaParams::for_level(level);
            let a = SegmentedSet::build(&av, &params).unwrap();
            let b = SegmentedSet::build(&bv, &params).unwrap();
            for stride in [1usize, 2, 4, 8] {
                let t = KernelTable::new(level, stride);
                answers.push((
                    format!("{level}/s{stride}"),
                    fesia_core::intersect_count_with(&a, &b, &t),
                ));
            }
        }
        let first = answers[0].1;
        for (name, got) in &answers {
            assert_eq!(*got, first, "regime {i}: {name} diverged");
        }
    }
}

#[test]
fn baseline_simd_paths_match_their_scalar_twins() {
    for (i, (a, b)) in regimes().into_iter().enumerate() {
        let scalar = fesia_baselines::merge::scalar_count(&a, &b);
        for level in SimdLevel::available_levels() {
            assert_eq!(
                shuffling::count_at(&a, &b, level),
                scalar,
                "regime {i}: shuffling {level}"
            );
            assert_eq!(
                bmiss::count_at(&a, &b, level),
                scalar,
                "regime {i}: bmiss {level}"
            );
            assert_eq!(
                simd_galloping::count_at(&a, &b, level),
                scalar,
                "regime {i}: simd-galloping {level}"
            );
        }
    }
}

#[test]
fn bitmap_scan_levels_agree_via_breakdown() {
    // The number of surviving segments is a property of the bitmaps, not
    // of the scan ISA: every level must report the same value.
    let mut rng = SplitMix64::new(0xB17);
    let (av, bv) = pair_with_intersection(20_000, 20_000, 200, &mut rng);
    let params = FesiaParams::auto();
    let a = SegmentedSet::build(&av, &params).unwrap();
    let b = SegmentedSet::build(&bv, &params).unwrap();
    let mut survivors = Vec::new();
    for level in SimdLevel::available_levels() {
        let t = KernelTable::new(level, 1);
        let bd =
            fesia_core::intersect_count_breakdown(&a, &b, &t, fesia_core::IntersectPlan::Plain);
        assert_eq!(bd.count, 200, "level={level}");
        survivors.push(bd.matched_segments);
    }
    assert!(
        survivors.windows(2).all(|w| w[0] == w[1]),
        "survivor counts diverged across levels: {survivors:?}"
    );
}
