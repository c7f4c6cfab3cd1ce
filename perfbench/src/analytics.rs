//! The `analytics` workload: an in-process library job, closed loop, on
//! a pair corpus larger than the last-level cache.
//!
//! Each request is one step of the job: batched pair counts
//! (`batch_count_pairs` on the global exec pool) over uniform-sparse,
//! clustered and 1:100-skew pairs, one materialising `union` / `xor` /
//! `difference`, and an exact `self_join` over one partition of a
//! clustered join corpus. The `lo` phase caps the exec pool at one
//! thread, the `hi` phase gives it `nproc`; a request's latency is the
//! time of its library calls. Every output is checked, outside the timed
//! calls, against `fesia_baselines::merge` (counts and algebra) and a
//! naive all-pairs join (similarity join).

use std::time::{Duration, Instant};

use fesia_baselines::merge;
use fesia_core::{
    batch_count_pairs, batch_count_pairs_on, candidate_pairs_self, difference, execute_plan_count,
    self_join_with, simjoin_params, union, xor, IntersectPlanner, KernelTable, SegmentedSet,
    SetSummary, Threshold,
};
use fesia_datagen::{clustered_pair, join_corpus_clustered, SplitMix64};
use fesia_exec::Executor;

use crate::common::{median, quantile, timed, uniform_sorted, us, windowed_quantile, Outcome};
use crate::layers::{self, PairProbe, UNATTRIBUTED_TOLERANCE};

/// Uniform-sparse sets: `UNI_SETS` × `UNI_LEN` over `[0, 2^31)`.
const UNI_SETS: usize = 12;
const UNI_LEN: usize = 1_000_000;
const UNI_SPAN: u32 = 1 << 31;
/// Clustered pairs (dense ranges, so the container tier applies).
const CLU_PAIRS: usize = 2;
const CLU_LEN: usize = 1_000_000;
/// Small sides of the 1:100 skew pairs, each sharing half its elements
/// with its large partner.
const SKEW_SETS: usize = UNI_SETS;
const SKEW_LEN: usize = UNI_LEN / 100;
/// Materialising algebra pairs.
const ALG_PAIRS: usize = 3;
const ALG_LEN: usize = 50_000;
const ALG_SPAN: u32 = 1 << 19;
/// Similarity-join partitions: clustered groups plus unrelated
/// background sets, joined at an overlap between the two levels.
const JOIN_PARTS: usize = 8;
const JOIN_GROUPS: usize = 4;
const JOIN_PER_GROUP: usize = 4;
const JOIN_BACKGROUND: usize = 16;
const JOIN_LEN: usize = 400;
const JOIN_CORE: f64 = 0.6;
const JOIN_UNIVERSE: u32 = 1 << 20;
const JOIN_OVERLAP: usize = 160;

/// Share of `--seconds` each phase runs for.
const WARMUP_SHARE: f64 = 0.2;
const LO_SHARE: f64 = 0.4;
const HI_SHARE: f64 = 0.4;
/// Corpus builds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// One request: a step of the analytics job. It counts pairs from each
/// pool in one batch, materialises one algebra op and runs one join
/// partition, so every request does the same kinds of work and the
/// latency distribution has one mode.
struct Step {
    /// `(pool, index)` of each pair counted.
    pairs: Vec<(usize, usize)>,
    /// Algebra pair and op (0 union, 1 xor, 2 difference).
    alg: usize,
    op: usize,
    /// Join partition.
    part: usize,
}

struct Corpus {
    /// Every set the pair pools index, built.
    sets: Vec<SegmentedSet>,
    /// Their elements (the oracle's input).
    lists: Vec<Vec<u32>>,
    /// Pair pools by count kind, as indices into `sets`.
    pools: [Vec<(u32, u32)>; 3],
    /// How many leading `sets` form the pair corpus.
    pair_sets: usize,
    /// Algebra pairs (indices into `sets`).
    alg: Vec<(u32, u32)>,
    /// Join partitions: elements and built sets.
    join_lists: Vec<Vec<Vec<u32>>>,
    join_sets: Vec<Vec<SegmentedSet>>,
}

fn build_all(lists: &[Vec<u32>]) -> Vec<SegmentedSet> {
    let p = fesia_core::FesiaParams::auto();
    lists
        .iter()
        .map(|l| SegmentedSet::build(l, &p).expect("generated lists are valid"))
        .collect()
}

/// Generate and build the corpus.
fn corpus(seed: u64) -> Corpus {
    let mut rng = SplitMix64::new(seed ^ 0x0a7a_17c5);
    let mut lists: Vec<Vec<u32>> = (0..UNI_SETS)
        .map(|_| uniform_sorted(UNI_LEN, 0, UNI_SPAN, &mut rng))
        .collect();
    let uniform: Vec<(u32, u32)> = (0..UNI_SETS as u32)
        .flat_map(|i| (i + 1..UNI_SETS as u32).map(move |j| (i, j)))
        .collect();
    let clu0 = lists.len() as u32;
    for _ in 0..CLU_PAIRS {
        let (a, b) = clustered_pair(CLU_LEN, CLU_LEN / 3, 16, 0.9, &mut rng);
        lists.push(a);
        lists.push(b);
    }
    // Only the generated pairs: their overlap is fixed, while two sets
    // from different pairs overlap by where the seed put their clusters.
    let clustered: Vec<(u32, u32)> = (0..CLU_PAIRS as u32)
        .map(|k| (clu0 + 2 * k, clu0 + 2 * k + 1))
        .collect();
    let skew0 = lists.len() as u32;
    for k in 0..SKEW_SETS {
        let partner = &lists[k];
        let mut small: Vec<u32> = (0..SKEW_LEN / 2)
            .map(|_| partner[rng.below(partner.len() as u64) as usize])
            .collect();
        small.extend(uniform_sorted(SKEW_LEN / 2, 0, UNI_SPAN, &mut rng));
        small.sort_unstable();
        small.dedup();
        lists.push(small);
    }
    let skew: Vec<(u32, u32)> = (0..SKEW_SETS as u32)
        .flat_map(|k| [(skew0 + k, k), (skew0 + k, (k + 1) % UNI_SETS as u32)])
        .collect();
    let pair_sets = lists.len();
    let mut alg = Vec::new();
    for _ in 0..ALG_PAIRS {
        let a = lists.len() as u32;
        lists.push(uniform_sorted(ALG_LEN, 0, ALG_SPAN, &mut rng));
        lists.push(uniform_sorted(ALG_LEN, 0, ALG_SPAN, &mut rng));
        alg.push((a, a + 1));
    }
    let join_lists: Vec<Vec<Vec<u32>>> = (0..JOIN_PARTS)
        .map(|_| {
            join_corpus_clustered(
                JOIN_GROUPS,
                JOIN_PER_GROUP,
                JOIN_BACKGROUND,
                JOIN_LEN,
                JOIN_CORE,
                JOIN_UNIVERSE,
                &mut rng,
            )
        })
        .collect();
    let sets = build_all(&lists);
    let join_sets = join_lists.iter().map(|p| build_all(p)).collect();
    Corpus {
        sets,
        lists,
        pools: [uniform, clustered, skew],
        pair_sets,
        alg,
        join_lists,
        join_sets,
    }
}

fn setup(seed: u64) -> (f64, Corpus) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        drop(last.take());
        let (c, d) = timed(|| corpus(seed));
        times.push(d.as_secs_f64());
        last = Some(c);
    }
    (median(&mut times), last.expect("at least one setup round"))
}

/// What every request must return.
struct Oracle {
    /// Exact count per pool pair.
    counts: [Vec<usize>; 3],
    /// `[union, xor, difference]` per algebra pair.
    algebra: Vec<[Vec<u32>; 3]>,
    /// Qualifying pairs per join partition.
    joins: Vec<Vec<(u32, u32)>>,
}

fn oracle(c: &Corpus) -> Oracle {
    let count =
        |&(a, b): &(u32, u32)| merge::scalar_count(&c.lists[a as usize], &c.lists[b as usize]);
    let joins = c
        .join_lists
        .iter()
        .map(|lists| {
            let mut out = Vec::new();
            for i in 0..lists.len() {
                for j in i + 1..lists.len() {
                    if merge::scalar_count(&lists[i], &lists[j]) >= JOIN_OVERLAP {
                        out.push((i as u32, j as u32));
                    }
                }
            }
            out
        })
        .collect();
    Oracle {
        counts: [0, 1, 2].map(|k| c.pools[k].iter().map(count).collect()),
        algebra: c
            .alg
            .iter()
            .map(|&(a, b)| {
                let (a, b) = (&c.lists[a as usize], &c.lists[b as usize]);
                [
                    merge::union(a, b),
                    merge::xor(a, b),
                    merge::difference(a, b),
                ]
            })
            .collect(),
        joins,
    }
}

/// Pairs per step from each pool: uniform, clustered, skew.
const STEP_PAIRS: [usize; 3] = [1, 1, 1];

/// Draw the request sequence.
fn sequence(c: &Corpus, seed: u64, len: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed ^ 0x5e9_57e9);
    let mut pick = |n: usize| rng.below(n as u64) as usize;
    (0..len)
        .map(|i| {
            let mut pairs = Vec::new();
            for (k, &n) in STEP_PAIRS.iter().enumerate() {
                for _ in 0..n {
                    pairs.push((k, pick(c.pools[k].len())));
                }
            }
            Step {
                pairs,
                alg: pick(c.alg.len()),
                op: i % 3,
                part: pick(c.join_sets.len()),
            }
        })
        .collect()
}

/// A request's measured outcome.
struct Done {
    us: f64,
    ok: bool,
}

/// Run one step, timing only library calls; check the outputs after.
fn execute(c: &Corpus, o: &Oracle, r: &Step, table: &KernelTable, threads: usize) -> Done {
    let pairs: Vec<(u32, u32)> = r.pairs.iter().map(|&(k, i)| c.pools[k][i]).collect();
    let (counts, d_count) = timed(|| batch_count_pairs(&c.sets, &pairs, table, threads));
    let (a, b) = c.alg[r.alg];
    let (a, b) = (&c.sets[a as usize], &c.sets[b as usize]);
    let (out, d_alg) = timed(|| match r.op {
        0 => union(a, b),
        1 => xor(a, b),
        _ => difference(a, b),
    });
    let planner = IntersectPlanner::current();
    let (join, d_join) = timed(|| {
        self_join_with(
            &c.join_sets[r.part],
            &c.join_lists[r.part],
            Threshold::Overlap(JOIN_OVERLAP),
            table,
            &planner,
            &simjoin_params(),
            threads,
        )
    });
    let ok = r
        .pairs
        .iter()
        .zip(&counts)
        .all(|(&(k, i), &n)| o.counts[k][i] == n)
        && out == o.algebra[r.alg][r.op]
        && join.pairs == o.joins[r.part];
    Done {
        us: us(d_count) + us(d_alg) + us(d_join),
        ok,
    }
}

/// Closed loop: one client runs its sequence until `secs` elapse, each
/// step on at most `threads` exec-pool threads.
fn phase(c: &Corpus, o: &Oracle, seq: &[Step], secs: f64, threads: usize) -> Vec<Done> {
    let table = KernelTable::auto();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut done = Vec::new();
    for r in seq.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        done.push(execute(c, o, r, &table, threads));
    }
    done
}

fn tally(o: &mut Outcome, runs: &[Done]) {
    o.attempted += runs.len() as u64;
    o.failed += runs.iter().filter(|d| !d.ok).count() as u64;
}

fn shape_check(o: &mut Outcome, c: &Corpus) -> usize {
    let bytes: usize = c.sets[..c.pair_sets].iter().map(|s| s.memory_bytes()).sum();
    let l3 = crate::common::cache_bytes(3) as usize;
    o.require(
        bytes > l3,
        format!("analytics pair corpus ({bytes} B) must exceed the L3 ({l3} B)"),
    );
    bytes
}

/// The three phases: warm-up, `lo` (one exec thread), `hi` (`nproc`).
fn phases(c: &Corpus, o: &Oracle, seed: u64, secs: f64) -> [Vec<Done>; 3] {
    let seq = sequence(c, seed, 4096);
    let nproc = Executor::global().parallelism();
    [
        phase(c, o, &seq, secs * WARMUP_SHARE, nproc),
        phase(c, o, &seq, secs * LO_SHARE, 1),
        phase(c, o, &seq, secs * HI_SHARE, nproc),
    ]
}

/// The end-to-end run.
pub fn run(seed: u64, secs: f64) -> Outcome {
    let (setup_s, c) = setup(seed);
    let o_ = oracle(&c);
    let mut o = Outcome::default();
    shape_check(&mut o, &c);
    let [warm, lo, hi] = phases(&c, &o_, seed, secs);
    for runs in [&warm, &lo, &hi] {
        tally(&mut o, runs);
    }
    o.put("setup_s", setup_s, "s");
    for (name, runs) in [("lo", &lo), ("hi", &hi)] {
        let mut lat: Vec<f64> = runs.iter().map(|d| d.us).collect();
        o.put(format!("read_p50_us.{name}"), quantile(&mut lat, 0.5), "us");
    }
    // Closed loop, one client: throughput is one over the mean latency.
    let lat_sum: f64 = hi.iter().map(|d| d.us).sum();
    o.put("max_rps", hi.len() as f64 / (lat_sum / 1e6), "req/s");
    o
}

/// The traced run: the phases again for the checks and the planner's
/// decision mix, then each layer probed on its own.
pub fn trace(seed: u64, secs: f64) -> Outcome {
    let (_, c) = setup(seed);
    let o_ = oracle(&c);
    let mut o = Outcome::default();
    let bytes = shape_check(&mut o, &c);
    let table = KernelTable::auto();
    let planner = IntersectPlanner::current();

    let obs0 = fesia_obs::metrics().snapshot();
    let runs = phases(&c, &o_, seed, secs);
    let obs = fesia_obs::metrics().snapshot().delta(&obs0);
    for r in &runs {
        tally(&mut o, r);
    }
    for (name, r) in [("lo", &runs[1]), ("hi", &runs[2])] {
        let lat: Vec<f64> = r.iter().map(|d| d.us).collect();
        o.put(
            format!("loadgen.read_p99_us.{name}"),
            windowed_quantile(&lat, 0.99),
            "us",
        );
    }

    // Plan and intersect on a fixed sample: the first pairs of each pool.
    let sample: Vec<(u32, u32)> = c
        .pools
        .iter()
        .flat_map(|p| p.iter().take(4).copied())
        .collect();
    let probes: Vec<PairProbe> = sample
        .iter()
        .map(|&(a, b)| {
            layers::probe_pair(&c.sets[a as usize], &c.sets[b as usize], &table, &planner)
        })
        .collect();
    layers::put_pair_layers(&mut o, &probes, &obs);

    library_layers(&mut o, &c, &table, &planner);

    // Accounting: the one-thread batch against its pairs planned and
    // executed one call at a time.
    let all: Vec<(u32, u32)> = c.pools.iter().flatten().copied().collect();
    let exec = Executor::global();
    let t_traced = Instant::now();
    let mut spans_us = 0.0;
    for &(a, b) in &all {
        let (sa, sb) = (&c.sets[a as usize], &c.sets[b as usize]);
        let (plan, dp) = timed(|| planner.plan_pair(&SetSummary::of(sa), &SetSummary::of(sb)));
        let (_, de) = timed(|| execute_plan_count(sa, sb, &table, plan));
        spans_us += us(dp) + us(de);
    }
    let traced = t_traced.elapsed();
    let (_, untraced) = timed(|| batch_count_pairs_on(exec, &c.sets, &all, &table, 1));
    let batch_us = us(untraced);
    let unattributed = (batch_us - spans_us) / batch_us;
    o.put("trace.unattributed_share", unattributed, "ratio");
    o.require(
        unattributed.abs() <= UNATTRIBUTED_TOLERANCE,
        format!(
            "per-pair spans leave {:.1}% of the batch unattributed (tolerance {:.0}%)",
            unattributed * 100.0,
            UNATTRIBUTED_TOLERANCE * 100.0
        ),
    );
    o.put(
        "trace.overhead_pct",
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
        "%",
    );

    let elems: usize = c.sets[..c.pair_sets].iter().map(|s| s.len()).sum();
    o.put("set.bytes_per_elem", bytes as f64 / elems as f64, "B");
    o
}

/// The library layers a request path does not isolate: materialising
/// algebra against the merge baseline, the batch at one and `nproc`
/// exec threads over every pool pair, and the similarity-join cascade
/// over every join partition.
fn library_layers(o: &mut Outcome, c: &Corpus, table: &KernelTable, planner: &IntersectPlanner) {
    // Algebra against the merge baseline.
    let (mut all_out, mut all_us) = (0usize, 0.0);
    for (op, name) in ["union", "xor", "difference"].iter().enumerate() {
        let (mut fesia_us, mut merge_us, mut outs) = (0.0, 0.0, 0usize);
        for &(a, b) in &c.alg {
            let (sa, sb) = (&c.sets[a as usize], &c.sets[b as usize]);
            let (la, lb) = (&c.lists[a as usize], &c.lists[b as usize]);
            let (out, d) = timed(|| match op {
                0 => union(sa, sb),
                1 => xor(sa, sb),
                _ => difference(sa, sb),
            });
            let (_, dm) = timed(|| match op {
                0 => merge::union(la, lb),
                1 => merge::xor(la, lb),
                _ => merge::difference(la, lb),
            });
            fesia_us += us(d);
            merge_us += us(dm);
            outs += out.len();
        }
        all_out += outs;
        all_us += fesia_us;
        o.put(
            format!("algebra.ns_per_out.{name}"),
            fesia_us * 1e3 / outs.max(1) as f64,
            "ns",
        );
        o.put(
            format!("algebra.vs_merge.{name}"),
            fesia_us / merge_us,
            "ratio",
        );
    }
    o.put(
        "analytics.algebra_elems_per_s",
        all_out as f64 / (all_us / 1e6),
        "1/s",
    );

    // Batch and exec: every pool pair, one thread then the whole pool.
    let all: Vec<(u32, u32)> = c.pools.iter().flatten().copied().collect();
    let exec = Executor::global();
    let (_, d1) = timed(|| batch_count_pairs_on(exec, &c.sets, &all, table, 1));
    let parks0 = fesia_obs::metrics().exec_worker_parks.get();
    let (_, dn) = timed(|| batch_count_pairs_on(exec, &c.sets, &all, table, exec.parallelism()));
    o.put(
        "exec.worker_parks",
        (fesia_obs::metrics().exec_worker_parks.get() - parks0) as f64,
        "count",
    );
    let rate1 = all.len() as f64 / d1.as_secs_f64();
    o.put("batch.pairs_per_s.1t", rate1, "1/s");
    o.put(
        "analytics.pair_counts_per_s",
        all.len() as f64 / dn.as_secs_f64(),
        "1/s",
    );
    o.put(
        "exec.scaling_2t",
        all.len() as f64 / dn.as_secs_f64() / rate1,
        "ratio",
    );

    // Similarity join: tier 1 timed alone, cascade tallies from a join.
    let threshold = Threshold::Overlap(JOIN_OVERLAP);
    let mut cand_s = 0.0;
    let mut stats = fesia_core::SimjoinStats::default();
    let mut joins = Vec::new();
    for (lists, sets) in c.join_lists.iter().zip(&c.join_sets) {
        let (_, d) = timed(|| candidate_pairs_self(lists, threshold));
        cand_s += d.as_secs_f64();
        let (r, d) = timed(|| {
            self_join_with(
                sets,
                lists,
                threshold,
                table,
                planner,
                &simjoin_params(),
                exec.parallelism(),
            )
        });
        joins.push(d.as_secs_f64());
        stats.candidates += r.stats.candidates;
        stats.bitmap_rejected += r.stats.bitmap_rejected;
        stats.early_exited += r.stats.early_exited;
        stats.verified += r.stats.verified;
    }
    o.put("simjoin.candidate_s", cand_s, "s");
    o.put("analytics.simjoin_s", median(&mut joins), "s");
    o.put("simjoin.candidates", stats.candidates as f64, "count");
    o.put(
        "simjoin.bitmap_rejected",
        stats.bitmap_rejected as f64,
        "count",
    );
    o.put("simjoin.early_exited", stats.early_exited as f64, "count");
    o.put("simjoin.verified", stats.verified as f64, "count");
    o.put(
        "simjoin.reject_ratio",
        (stats.bitmap_rejected + stats.early_exited) as f64 / stats.candidates.max(1) as f64,
        "ratio",
    );
    o.require(
        stats.candidates == stats.bitmap_rejected + stats.early_exited + stats.verified,
        "simjoin cascade tallies do not balance",
    );
}

/// The library layers on the analytics corpus, built once: what the
/// `serve-read` traced run adds, so these layers are measured on a
/// workload the benchmark runs.
pub fn library_trace(o: &mut Outcome, seed: u64) {
    let c = corpus(seed);
    library_layers(o, &c, &KernelTable::auto(), &IntersectPlanner::current());
}
