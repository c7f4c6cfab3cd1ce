//! Batch-throughput experiment for the persistent executor and the
//! pipelined dispatch (this repo's execution-layer additions; the paper's
//! Fig. 13 parallelizes across intersections the same way).
//!
//! Measures pairs/second of [`fesia_core::batch_count_pairs_on`] at
//! 1/2/4/8 pool threads with the pipelined dispatch on and off, against a
//! copy of the pre-executor implementation (one `std::thread::scope`
//! spawn per call, static chunking) — plus the single-pair
//! pipelined-vs-interleaved cycle counts. Writes the machine-readable
//! series to `BENCH_batch.json` in the working directory and returns a
//! markdown report.

use crate::harness::{f2, measure_cycles, Scale, Table};
use fesia_core::{
    batch_count_pairs_on, execute_plan_count, pipeline_params, set_pipeline_params, FesiaParams,
    IntersectPlan, KernelTable, PipelineParams, SegmentedSet,
};
use fesia_datagen::{sorted_distinct, SplitMix64};
use fesia_exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

static EMBED_METRICS: AtomicBool = AtomicBool::new(false);

/// When enabled (the `repro --metrics` flag), the batch experiment embeds
/// the fesia-obs metrics delta of its own run into `BENCH_batch.json`.
pub fn set_embed_metrics(on: bool) {
    EMBED_METRICS.store(on, Ordering::Relaxed);
}

/// The seed's `batch_count_pairs`: fresh scoped threads per call, one
/// static chunk per thread. Kept verbatim as the baseline the executor
/// must beat (or tie, on a single-core host).
fn legacy_scoped_batch(
    sets: &[SegmentedSet],
    pairs: &[(u32, u32)],
    table: &KernelTable,
    threads: usize,
) -> Vec<usize> {
    let run = |chunk: &[(u32, u32)], out: &mut [usize]| {
        for (slot, &(ai, bi)) in out.iter_mut().zip(chunk) {
            *slot = fesia_core::auto_count_with(&sets[ai as usize], &sets[bi as usize], table);
        }
    };
    let mut results = vec![0usize; pairs.len()];
    if threads == 1 || pairs.len() < 2 {
        run(pairs, &mut results);
        return results;
    }
    let chunk_len = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let mut remaining_pairs = pairs;
        let mut remaining_out: &mut [usize] = &mut results;
        let mut handles = Vec::new();
        while !remaining_pairs.is_empty() {
            let take = chunk_len.min(remaining_pairs.len());
            let (p_chunk, p_rest) = remaining_pairs.split_at(take);
            let (o_chunk, o_rest) = remaining_out.split_at_mut(take);
            remaining_pairs = p_rest;
            remaining_out = o_rest;
            handles.push(scope.spawn(move || run(p_chunk, o_chunk)));
        }
        for h in handles {
            h.join().expect("batch worker panicked");
        }
    });
    results
}

fn pairs_per_sec(pairs: usize, reps: usize, mut f: impl FnMut() -> Vec<usize>) -> f64 {
    let _ = f(); // warm-up
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    pairs as f64 / best.max(1e-12)
}

pub fn run(scale: Scale) -> String {
    let mut rng = SplitMix64::new(0xBA7C);
    let n = scale.size(20_000);
    let universe = (n as u32) * 20;
    let num_sets = 24usize;
    let num_pairs = match scale {
        Scale::Smoke => 128,
        Scale::Standard => 512,
        Scale::Full => 2_048,
    };
    let params = FesiaParams::auto();
    let sets: Vec<SegmentedSet> = (0..num_sets)
        .map(|i| {
            // Mix of sizes so per-pair cost is uneven (the dynamic-chunking
            // case the executor exists for).
            let size = n / 4 + (i * n) / num_sets;
            SegmentedSet::build(&sorted_distinct(size, universe, &mut rng), &params).unwrap()
        })
        .collect();
    let pairs: Vec<(u32, u32)> = (0..num_pairs)
        .map(|_| {
            (
                rng.below(num_sets as u64) as u32,
                rng.below(num_sets as u64) as u32,
            )
        })
        .collect();
    let table = KernelTable::auto();
    let reps = scale.reps();

    let metrics_before = EMBED_METRICS
        .load(Ordering::Relaxed)
        .then(|| fesia_obs::metrics().snapshot());
    let saved = pipeline_params();
    let want = {
        set_pipeline_params(PipelineParams::default().with_enabled(false));
        legacy_scoped_batch(&sets, &pairs, &table, 1)
    };

    let mut t = Table::new(vec![
        "threads",
        "pipelined (pairs/s)",
        "interleaved (pairs/s)",
        "legacy scoped (pairs/s)",
    ]);
    let mut json_rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let exec = Executor::new(threads);
        set_pipeline_params(PipelineParams::default().with_min_elements(0));
        let got = batch_count_pairs_on(&exec, &sets, &pairs, &table, threads);
        assert_eq!(got, want, "pipelined batch disagreed at {threads} threads");
        let piped = pairs_per_sec(pairs.len(), reps, || {
            batch_count_pairs_on(&exec, &sets, &pairs, &table, threads)
        });
        set_pipeline_params(PipelineParams::default().with_enabled(false));
        let inter = pairs_per_sec(pairs.len(), reps, || {
            batch_count_pairs_on(&exec, &sets, &pairs, &table, threads)
        });
        let legacy = pairs_per_sec(pairs.len(), reps, || {
            legacy_scoped_batch(&sets, &pairs, &table, threads)
        });
        t.row(vec![threads.to_string(), f2(piped), f2(inter), f2(legacy)]);
        json_rows.push(format!(
            "    {{\"threads\": {threads}, \"pipelined_pairs_per_sec\": {piped:.2}, \
             \"interleaved_pairs_per_sec\": {inter:.2}, \"legacy_scoped_pairs_per_sec\": {legacy:.2}}}"
        ));
    }

    // Single-pair pipelined vs interleaved on a uniform workload. Two
    // sizes: the batch-set size (cache-resident — here the shipped
    // dispatcher routes interleaved, because it sits below the
    // `min_elements` floor) and a memory-bound size above the floor,
    // which is where the dispatcher actually picks the pipelined form
    // and where it must not lose.
    let a = SegmentedSet::build(&sorted_distinct(n, universe, &mut rng), &params).unwrap();
    let b = SegmentedSet::build(&sorted_distinct(n, universe, &mut rng), &params).unwrap();
    let dist = PipelineParams::default().prefetch_distance;
    let plain = IntersectPlan::Plain;
    let pipelined = IntersectPlan::Pipelined {
        prefetch_distance: dist,
    };
    let (inter_c, want1) = measure_cycles(reps * 5, || execute_plan_count(&a, &b, &table, plain));
    let (pipe_c, got1) = measure_cycles(reps * 5, || execute_plan_count(&a, &b, &table, pipelined));
    assert_eq!(got1, want1, "single-pair forms disagreed");

    let n_big = 1usize << 21; // fixed memory-bound size, decoupled from the knob
    let universe_big = (n_big as u32).saturating_mul(8);
    let big_a =
        SegmentedSet::build(&sorted_distinct(n_big, universe_big, &mut rng), &params).unwrap();
    let big_b =
        SegmentedSet::build(&sorted_distinct(n_big, universe_big, &mut rng), &params).unwrap();
    let big_reps = reps.clamp(1, 3);
    let (big_inter_c, big_want) = measure_cycles(big_reps, || {
        execute_plan_count(&big_a, &big_b, &table, plain)
    });
    let (big_pipe_c, big_got) = measure_cycles(big_reps, || {
        execute_plan_count(&big_a, &big_b, &table, pipelined)
    });
    assert_eq!(
        big_got, big_want,
        "memory-bound single-pair forms disagreed"
    );

    // Crossover sweep: the smallest per-side size where the pipelined
    // form stops losing to the interleaved scan. This is the measurement
    // behind `PipelineParams::min_elements`; the dispatcher's default
    // should sit at or above the observed crossover.
    let sweep_sizes: &[usize] = match scale {
        Scale::Smoke => &[2_048, 8_192, 32_768],
        _ => &[2_048, 8_192, 32_768, 131_072, 524_288],
    };
    let mut sweep_rows = Vec::new();
    let mut sweep_md = Table::new(vec![
        "elements/side",
        "interleaved (cycles)",
        "pipelined (cycles)",
        "pipelined/interleaved",
    ]);
    let mut crossover: Option<usize> = None;
    for &sz in sweep_sizes {
        let u = (sz as u32).saturating_mul(8);
        let ca = SegmentedSet::build(&sorted_distinct(sz, u, &mut rng), &params).unwrap();
        let cb = SegmentedSet::build(&sorted_distinct(sz, u, &mut rng), &params).unwrap();
        let sweep_reps = if sz >= 1 << 17 {
            reps.clamp(1, 3)
        } else {
            reps * 3
        };
        let (ic, iw) = measure_cycles(sweep_reps, || execute_plan_count(&ca, &cb, &table, plain));
        let (pc, pw) = measure_cycles(sweep_reps, || {
            execute_plan_count(&ca, &cb, &table, pipelined)
        });
        assert_eq!(pw, iw, "crossover sweep forms disagreed at {sz}");
        let ratio = pc as f64 / ic.max(1) as f64;
        if crossover.is_none() && ratio <= 1.0 {
            crossover = Some(sz);
        }
        sweep_md.row(vec![
            sz.to_string(),
            ic.to_string(),
            pc.to_string(),
            f2(ratio),
        ]);
        sweep_rows.push(format!(
            "    {{\"elements\": {sz}, \"interleaved_cycles\": {ic}, \"pipelined_cycles\": {pc}}}"
        ));
    }
    let crossover_json = match crossover {
        Some(sz) => sz.to_string(),
        None => "null".to_string(),
    };
    let min_elements_default = PipelineParams::default().min_elements;
    set_pipeline_params(saved);

    let metrics_field = match metrics_before {
        Some(before) => {
            let delta = fesia_obs::metrics().snapshot().delta(&before);
            format!(",\n  \"metrics\": {}", delta.to_json())
        }
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"experiment\": \"batch\",\n  \"pairs\": {},\n  \"set_elements\": {n},\n  \
         \"threads\": [\n{}\n  ],\n  \"single_pair_small\": {{\"elements\": {n}, \
         \"pipelined_cycles\": {pipe_c}, \"interleaved_cycles\": {inter_c}, \
         \"prefetch_distance\": {dist}, \"default_dispatch\": \"interleaved\"}},\n  \
         \"single_pair_memory_bound\": {{\"elements\": {n_big}, \
         \"pipelined_cycles\": {big_pipe_c}, \"interleaved_cycles\": {big_inter_c}, \
         \"prefetch_distance\": {dist}, \"default_dispatch\": \"pipelined\"}},\n  \
         \"crossover\": {{\"observed_elements\": {crossover_json}, \
         \"default_min_elements\": {min_elements_default}, \"rows\": [\n{}\n  ]}}{metrics_field}\n}}\n",
        pairs.len(),
        json_rows.join(",\n"),
        sweep_rows.join(",\n"),
    );
    let json_path = "BENCH_batch.json";
    if let Err(e) = std::fs::write(json_path, &json) {
        eprintln!("[batch] could not write {json_path}: {e}");
    }

    format!(
        "## Batch throughput — persistent executor + pipelined dispatch\n\n\
         {num_sets} sets ({n} elements nominal), {} random pairs; pool threads\n\
         timeshare whatever cores the host exposes. Series written to {json_path}.\n\n{}\n\
         Single pair, cache-resident ({n} x {n}; default dispatch is interleaved at this\n\
         size): pipelined {pipe_c} cycles vs interleaved {inter_c} cycles (distance {dist}).\n\
         Single pair, memory-bound ({n_big} x {n_big}; default dispatch is pipelined):\n\
         pipelined {big_pipe_c} cycles vs interleaved {big_inter_c} cycles.\n\n\
         Pipelined/interleaved crossover sweep (dispatcher floor is\n\
         min_elements = {min_elements_default}; observed crossover: {}):\n\n{}",
        pairs.len(),
        t.render(),
        crossover
            .map(|sz| format!("{sz} elements/side"))
            .unwrap_or_else(|| "not reached in sweep".to_string()),
        sweep_md.render()
    )
}
