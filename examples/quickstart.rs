//! Quickstart: encode two sets, intersect them, and inspect the machinery.
//!
//! ```text
//! cargo run --release -p fesia-bench --example quickstart
//! ```

use fesia_core::{FesiaParams, KernelTable, SegmentedSet, SimdLevel};
use fesia_datagen::{pair_with_intersection, SplitMix64};

fn main() {
    // --- The paper's Example 1 ------------------------------------------
    let params = FesiaParams::auto();
    let a = SegmentedSet::build(&[1, 4, 15, 21, 32, 34], &params).unwrap();
    let b = SegmentedSet::build(&[2, 6, 12, 16, 21, 23], &params).unwrap();
    println!("Example 1: A ∩ B = {:?}", fesia_core::intersect(&a, &b));
    println!(
        "           |A ∩ B| = {}",
        fesia_core::intersect_count(&a, &b)
    );

    // --- A larger workload ----------------------------------------------
    let mut rng = SplitMix64::new(42);
    let n = 100_000;
    let r = 1_000; // selectivity 1%, the regime FESIA is built for
    let (xs, ys) = pair_with_intersection(n, n, r, &mut rng);
    let x = SegmentedSet::build(&xs, &params).unwrap();
    let y = SegmentedSet::build(&ys, &params).unwrap();

    println!("\nDetected SIMD level: {}", SimdLevel::detect());
    println!(
        "Encoded {n} elements into a {} KiB structure ({} segments of {} bits)",
        x.memory_bytes() / 1024,
        x.num_segments(),
        x.lane().bits(),
    );

    let count = fesia_core::intersect_count(&x, &y);
    assert_eq!(count, r);
    println!("|X ∩ Y| = {count} (exactly the generated overlap)");

    // --- Phase breakdown (what makes FESIA O(n/sqrt(w) + r)) -------------
    let table = KernelTable::auto();
    let bd =
        fesia_core::intersect_count_breakdown(&x, &y, &table, fesia_core::IntersectPlan::Plain);
    println!(
        "\nBreakdown: step1 (bitmap AND) = {} cycles, step2 (kernels) = {} cycles",
        bd.step1_cycles, bd.step2_cycles
    );
    println!(
        "Of {} segments, only {} survived the bitmap filter ({:.2}% survival rate)",
        x.num_segments(),
        bd.matched_segments,
        100.0 * bd.matched_segments as f64 / x.num_segments() as f64
    );

    // --- k-way ------------------------------------------------------------
    let z = SegmentedSet::build(&xs, &params).unwrap();
    let k = fesia_core::kway_count(&[&x, &y, &z]);
    println!("\n3-way |X ∩ Y ∩ X'| = {k}");

    // --- Multicore ---------------------------------------------------------
    let par = fesia_core::par_intersect_count(&x, &y, 4);
    assert_eq!(par, count);
    println!("Parallel (4 threads) agrees: {par}");
}
