//! Snapshot isolation under concurrent write churn.
//!
//! A writer thread churns one set with adds, deletes, and (via a tiny
//! rebuild fraction) constant rebuild traffic, following a schedule
//! where the intersection count against a fixed probe set *uniquely
//! identifies* the published version: version `v` counts exactly
//! `base + v`. Reader threads continuously intersect through pinned
//! views and assert every observed count maps to a version inside the
//! window of publishes adjacent to their read — which rules out torn
//! reads (a count that is no version's count), time travel (a version
//! older than the window), and reads of unpublished state (newer than
//! the window). The whole episode repeats under every forced plan mode,
//! so each planner-driven execution shape crosses the dynamic read path.
//!
//! The harness paces the writer: before each batch it waits until every
//! reader has finished a read since the previous batch, so each reader
//! overlaps the whole churn however the scheduler splits 3 readers and
//! a writer over few cores. Only the test's writer waits; the store
//! itself never makes writers wait on readers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fesia_core::{KernelTable, PlanMode};
use fesia_serve::{ServeConfig, ServeStore, WriteOp};

const DATA: u32 = 7;
const PROBE: u32 = 8;
const ROUNDS: u64 = 200;
const READERS: usize = 3;
/// How long the writer waits for a reader to finish one read.
const PACE_TIMEOUT: Duration = Duration::from_secs(10);

/// One writer-vs-readers episode under the plan mode currently forced.
fn episode(table: &KernelTable) {
    let store = ServeStore::new(ServeConfig::from_env().with_shards(2));
    let evens: Vec<u32> = (0..ROUNDS as u32).map(|i| 2 * i).collect();
    store.seed(DATA, &evens);
    store.seed(PROBE, &(0..4 * ROUNDS as u32 + 2).collect::<Vec<_>>());
    let base = ROUNDS; // |DATA ∩ PROBE| at version 0

    // Publishes completed so far, bumped by the writer *after* each
    // batch's version is live. A reader observing state of version `u`
    // therefore sees `published` ∈ {u-1, u} at pin time, giving the
    // assertion window below.
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // Reads completed by each reader, bumped after every read.
    let progress: [AtomicU64; READERS] = std::array::from_fn(|_| AtomicU64::new(0));

    std::thread::scope(|scope| {
        for progress in &progress {
            let store = &store;
            let published = &published;
            let done = &done;
            scope.spawn(move || {
                let mut reads = 0u64;
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let v0 = published.load(Ordering::Acquire);
                    let c = match reads % 3 {
                        0 => store.read(|v| v.count(DATA, PROBE, table)),
                        1 => store.read(|v| v.kway_count(&[DATA, PROBE], table)),
                        _ => store.read(|v| v.boolean(&[DATA, PROBE], &[], &[], table).len()),
                    } as u64;
                    let v1 = published.load(Ordering::Acquire);
                    assert!(
                        c >= base && c <= base + ROUNDS,
                        "count {c} is no published version's count"
                    );
                    let u = c - base;
                    assert!(
                        v0 <= u && u <= v1 + 1,
                        "torn read: count {c} implies version {u}, \
                         but the read ran inside publish window [{v0}, {}]",
                        v1 + 1
                    );
                    reads += 1;
                    progress.store(reads, Ordering::Release);
                    if stop {
                        break;
                    }
                }
                // Every reader overlapped the churn, not just its tail.
                assert!(reads >= 5, "reader starved: only {reads} reads");
            });
        }

        // Writer: each batch deletes one remaining even and adds two
        // fresh odds — all inside the probe's range — so the count
        // advances by exactly one per published batch.
        let mut seen = [0u64; READERS];
        for v in 0..ROUNDS as u32 {
            // Pace: every reader has read since the previous batch.
            for (r, progress) in progress.iter().enumerate() {
                let start = Instant::now();
                loop {
                    let now = progress.load(Ordering::Acquire);
                    if now > seen[r] {
                        seen[r] = now;
                        break;
                    }
                    if start.elapsed() >= PACE_TIMEOUT {
                        // Stop the other readers so the scope can join.
                        done.store(true, Ordering::Release);
                        panic!(
                            "reader {r} made no read in {PACE_TIMEOUT:?} before batch {v} \
                             (stuck, or panicked: see its message above)"
                        );
                    }
                    std::thread::yield_now();
                }
            }
            store.apply_batch(&[
                WriteOp::Del {
                    set: DATA,
                    elem: 2 * v,
                },
                WriteOp::Add {
                    set: DATA,
                    elem: 4 * v + 1,
                },
                WriteOp::Add {
                    set: DATA,
                    elem: 4 * v + 3,
                },
            ]);
            published.fetch_add(1, Ordering::Release);
        }
        done.store(true, Ordering::Release);
    });

    store.quiesce();
    let v = store.view();
    assert_eq!(v.card(DATA) as u64, 2 * ROUNDS);
    assert_eq!(v.count(DATA, PROBE, table) as u64, base + ROUNDS);
}

#[test]
fn reads_stay_isolated_under_churn_for_every_forced_plan() {
    let table = KernelTable::auto();
    let prev = fesia_core::dynamic_params();
    // Tiny fraction (the 64-op floor still applies) → rebuilds fire
    // throughout the episode instead of only at the end.
    fesia_core::set_dynamic_params(prev.with_rebuild_fraction(1e-9));
    for mode in PlanMode::FORCED {
        fesia_core::set_plan_mode(mode);
        episode(&table);
    }
    fesia_core::set_plan_mode(PlanMode::Auto);
    fesia_core::set_dynamic_params(prev);
}
