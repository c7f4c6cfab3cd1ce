//! The `serve-read` and `serve-churn` workloads: the shipped
//! `fesia_serve` line protocol over one loopback TCP connection, driven
//! open loop on a fixed arrival schedule.
//!
//! The corpus is `SETS` posting-list-like sets whose lengths fall off as
//! a Zipf law of the set id (about 39 MB encoded: past a 4 MiB L2,
//! inside the L3 of the reference host). Requests pick ids by Zipf popularity over a
//! fixed rank-to-id permutation, so which lengths are hot does not depend
//! on the seed; the seed changes the elements and the request stream.
//!
//! Every request is timed from its *intended* send time, so a stall is
//! charged to every request it delays (no coordinated omission), and
//! every response is checked against a sorted-vector oracle replayed over
//! the same stream. One connection serialises the stream, so the oracle
//! is exact even with writes in flight.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use fesia_baselines::merge;
use fesia_core::{auto_count_with, dynamic_intersect_count, IntersectPlanner, KernelTable};
use fesia_datagen::{SplitMix64, Zipf};
use fesia_serve::{serve_lines, ServeConfig, Server, WriteOp};

use crate::common::{
    fnv, join_into, median, quantile, timed, uniform_sorted, us, windowed_quantile, Outcome,
    WINDOWS,
};
use crate::layers::{self, PairProbe, UNATTRIBUTED_TOLERANCE};

/// Number of sets in the corpus.
const SETS: usize = 8192;
/// Length of set 0; set `i` holds `LEN_MAX / (i + 1)^LEN_EXP` elements.
const LEN_MAX: f64 = 30_000.0;
const LEN_EXP: f64 = 0.7;
/// Shortest set.
const LEN_MIN: usize = 8;
/// Element domain (documents, for a posting list).
const UNIVERSE: u32 = 1 << 22;
/// Zipf exponent of id popularity.
const POP_EXP: f64 = 1.0;
/// Popularity rank `r` maps to id `(r * POP_STRIDE + POP_OFFSET) % SETS`:
/// a fixed permutation that spreads hot ranks over short and long sets
/// and keeps the longest sets out of the hottest ranks.
const POP_STRIDE: usize = 1237;
const POP_OFFSET: usize = 97;

/// Offered rates (requests/s) of the `lo` and `hi` stretches. `lo` is
/// about a tenth of `serve-churn`'s single-connection capacity on the
/// reference host (10k to 12k req/s). `hi` is kept where the median
/// reply keeps one timing: the front end sends each reply's newline
/// only once the client's next request acknowledges the reply, so a
/// read's latency is one inter-arrival time, but a stall can leave the
/// replies one or more requests further behind for a while. At 3000
/// req/s that moved `serve-churn`'s median read to two or four
/// inter-arrival times in 3 of 8 runs; at 2000 req/s in none of 12.
pub const RATE_LO: f64 = 1_000.0;
pub const RATE_HI: f64 = 2_000.0;
/// The saturation bursts offer `SAT_PER_SEC` requests per `--seconds`
/// in all at `SAT_RATE`: past `serve-churn`'s capacity, so its server
/// never idles while it drains them. `serve-read` keeps up with the
/// offer, so its `max_rps` reads as the offer, the top of the scale.
const SAT_RATE: f64 = 30_000.0;
const SAT_PER_SEC: f64 = 5_000.0;

/// Share of `--seconds` the warm-up, the `lo` and the `hi` stretch each
/// run for.
const WARMUP_SHARE: f64 = 0.05;
const LO_SHARE: f64 = 0.25;
const HI_SHARE: f64 = 0.30;

/// After the warm-up, one `lo` and one `hi` stretch, a run is `BURSTS`
/// saturation bursts. The host's speed drifts over seconds (one
/// `serve-churn` burst drains up to 30% faster than the next), so
/// `max_rps` is the median over the bursts, not one stretch of time.
/// The bursts come last because each leaves rebuilds queued behind it,
/// and `lo` and `hi` each stay one stretch: split into rounds between
/// the bursts, or with pauses, their tails grew several times longer.
const BURSTS: usize = 10;

/// Corpus builds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// A segment gives up on responses after this long without progress;
/// the requests left unanswered count as failed.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// Every `SAMPLE_EVERY`-th request of the traced replay is re-run one
/// layer call at a time.
const SAMPLE_EVERY: usize = 16;

/// Floor on the mean pending delta of the sets `serve-churn` reads: the
/// delta layer must be doing real work for the workload to count.
const CHURN_DELTA_FLOOR: f64 = 4.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Read,
    Churn,
}

impl Mix {
    /// Verb weights (per 100 requests).
    fn weights(self) -> [(Verb, u32); 4] {
        match self {
            // Mostly pair counts; k-way AND, 2-way OR and BOOL exercise
            // the materialising paths and the union emit.
            Mix::Read => [
                (Verb::Count, 70),
                (Verb::And, 15),
                (Verb::Or, 10),
                (Verb::Bool, 5),
            ],
            // Half writes on the same hot ids the reads touch.
            Mix::Churn => [
                (Verb::Add, 30),
                (Verb::Del, 20),
                (Verb::Count, 35),
                (Verb::And, 15),
            ],
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    Count,
    And,
    Or,
    Bool,
    Add,
    Del,
}

impl Verb {
    pub const ALL: [Verb; 6] = [
        Verb::Count,
        Verb::And,
        Verb::Or,
        Verb::Bool,
        Verb::Add,
        Verb::Del,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Count => "count",
            Verb::And => "and",
            Verb::Or => "or",
            Verb::Bool => "bool",
            Verb::Add => "add",
            Verb::Del => "del",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Verb::Add | Verb::Del)
    }

    /// Set ids on the request line.
    fn ids(self) -> usize {
        match self {
            Verb::Count | Verb::Or => 2,
            Verb::And => 3,
            Verb::Bool => 4,
            Verb::Add | Verb::Del => 1,
        }
    }
}

/// One generated request: its protocol line (newline-terminated), the
/// ids it touches, and the hash of the oracle's expected response.
struct Req {
    verb: Verb,
    line: String,
    ids: Vec<u32>,
    elem: u32,
    expect: u64,
}

fn set_len(id: usize) -> usize {
    ((LEN_MAX / ((id + 1) as f64).powf(LEN_EXP)) as usize).max(LEN_MIN)
}

/// Generate the corpus: set `i` is `set_len(i)` uniform documents.
fn corpus(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7_c0de);
    (0..SETS)
        .map(|id| uniform_sorted(set_len(id), 0, UNIVERSE, &mut rng))
        .collect()
}

/// Load the corpus into a fresh server. The protocol has no bulk-load
/// verb, so this goes through `ServeStore::seed`.
fn load(lists: &[Vec<u32>]) -> Server {
    let server = Server::new(ServeConfig::from_env());
    for (id, elems) in lists.iter().enumerate() {
        server.store().seed(id as u32, elems);
    }
    server
}

/// The request generator and its oracle: a sorted vector per set, the
/// reference the server's answers are checked against.
struct Gen {
    mix: Mix,
    oracle: Vec<Vec<u32>>,
    rng: SplitMix64,
    zipf: Zipf,
    text: String,
}

impl Gen {
    fn new(mix: Mix, lists: &[Vec<u32>], seed: u64) -> Gen {
        Gen {
            mix,
            oracle: lists.to_vec(),
            rng: SplitMix64::new(seed ^ 0x4e9_0a11),
            zipf: Zipf::new(SETS as u64, POP_EXP),
            text: String::new(),
        }
    }

    fn pick_id(&mut self) -> u32 {
        let rank = (self.zipf.sample(&mut self.rng) - 1) as usize;
        ((rank * POP_STRIDE + POP_OFFSET) % SETS) as u32
    }

    fn pick_verb(&mut self) -> Verb {
        let mut roll = self.rng.below(100) as u32;
        for (verb, weight) in self.mix.weights() {
            if roll < weight {
                return verb;
            }
            roll -= weight;
        }
        unreachable!("weights sum to 100")
    }

    fn next(&mut self) -> Req {
        let verb = self.pick_verb();
        // OR picks ids uniformly: a union emits both operands, and hot
        // (long) operands would put 100 KB responses on the one
        // connection, whose head-of-line stalls then set every tail.
        let ids: Vec<u32> = (0..verb.ids())
            .map(|_| match verb {
                Verb::Or => self.rng.below(SETS as u64) as u32,
                _ => self.pick_id(),
            })
            .collect();
        let oracle = &self.oracle;
        let set = |i: usize| oracle[ids[i] as usize].as_slice();
        self.text.clear();
        let mut elem = 0;
        let line = match verb {
            Verb::Count => {
                let n = merge::scalar_count(set(0), set(1));
                self.text.push_str(&n.to_string());
                format!("COUNT {} {}\n", ids[0], ids[1])
            }
            Verb::And => {
                let ab = merge::intersect(set(0), set(1));
                let out = merge::intersect(&ab, set(2));
                join_into(&mut self.text, &out);
                format!("AND {} {} {}\n", ids[0], ids[1], ids[2])
            }
            Verb::Or => {
                let out = merge::union(set(0), set(1));
                join_into(&mut self.text, &out);
                format!("OR {} {}\n", ids[0], ids[1])
            }
            Verb::Bool => {
                let should = merge::union(set(1), set(2));
                let hit = merge::intersect(set(0), &should);
                let out = merge::difference(&hit, set(3));
                join_into(&mut self.text, &out);
                format!(
                    "BOOL MUST {} SHOULD {} {} NOT {}\n",
                    ids[0], ids[1], ids[2], ids[3]
                )
            }
            Verb::Add => {
                elem = self.rng.below(UNIVERSE as u64) as u32;
                let s = &mut self.oracle[ids[0] as usize];
                if let Err(pos) = s.binary_search(&elem) {
                    s.insert(pos, elem);
                }
                self.text.push_str("OK");
                format!("ADD {} {elem}\n", ids[0])
            }
            Verb::Del => {
                let s = &mut self.oracle[ids[0] as usize];
                // Delete a present element when there is one, so deletes
                // really shrink the set.
                elem = if s.is_empty() {
                    self.rng.below(UNIVERSE as u64) as u32
                } else {
                    s[self.rng.below(s.len() as u64) as usize]
                };
                if let Ok(pos) = s.binary_search(&elem) {
                    s.remove(pos);
                }
                self.text.push_str("OK");
                format!("DEL {} {elem}\n", ids[0])
            }
        };
        Req {
            verb,
            line,
            ids,
            elem,
            expect: fnv(self.text.as_bytes()),
        }
    }

    fn segment(&mut self, name: &'static str, rate: f64, secs: f64) -> Segment {
        let n = ((rate * secs).round() as usize).max(1);
        Segment {
            name,
            rate,
            reqs: (0..n).map(|_| self.next()).collect(),
        }
    }
}

/// One stretch of the stream, sent open loop at `rate`: `warmup`, `lo`,
/// `hi` or `sat`.
struct Segment {
    name: &'static str,
    rate: f64,
    reqs: Vec<Req>,
}

/// What the client saw of one segment, per request.
struct SegmentRun {
    /// Latency from intended send to response, µs (NaN: unanswered).
    lat_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    lag_us: Vec<f64>,
    hashes: Vec<u64>,
    errs: usize,
    backlog_max: usize,
    answered: usize,
    /// When each response arrived, s after the first intended send
    /// (NaN: unanswered).
    recv_s: Vec<f64>,
}

impl SegmentRun {
    /// Latencies of the requests whose verb satisfies `keep`.
    fn lat_where(&self, reqs: &[Req], keep: impl Fn(Verb) -> bool) -> Vec<f64> {
        reqs.iter()
            .zip(&self.lat_us)
            .filter(|(r, l)| keep(r.verb) && l.is_finite())
            .map(|(_, &l)| l)
            .collect()
    }

    /// Mismatched, `ERR` or unanswered responses.
    fn failures(&self, reqs: &[Req]) -> usize {
        reqs.iter()
            .enumerate()
            .filter(|&(i, r)| i >= self.answered || self.hashes[i] != r.expect)
            .count()
    }
}

/// The client end of the connection. One thread both sends and reads:
/// it polls a non-blocking socket, so it never sleeps (a sleeping
/// sender wakes late by up to milliseconds on a virtualised host, and
/// with the server's reply held until the client's next send, that
/// delay would be charged to the previous request), and it leaves the
/// second core to the server.
struct Client {
    stream: TcpStream,
    /// Received bytes not yet split into response lines.
    inbox: Vec<u8>,
}

impl Client {
    /// Send `reqs` at `rate` per second, each when it is due, and read
    /// the responses in order off the same connection.
    fn run(&mut self, reqs: &[Req], rate: f64) -> SegmentRun {
        let n = reqs.len();
        let t0 = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
        let mut run = SegmentRun {
            lat_us: vec![f64::NAN; n],
            lag_us: vec![0.0; n],
            hashes: vec![0; n],
            errs: 0,
            backlog_max: 0,
            answered: 0,
            recv_s: vec![f64::NAN; n],
        };
        let mut sent = 0;
        let mut unsent: &[u8] = &[];
        let mut chunk = vec![0u8; 64 << 10];
        let mut last_progress = Instant::now();
        let mut draining = false;
        'poll: while run.answered < n {
            let now = Instant::now();
            let mut progress = false;
            while sent < n && (!unsent.is_empty() || due(sent) <= now) {
                if unsent.is_empty() {
                    run.lag_us[sent] = us(now.saturating_duration_since(due(sent)));
                    unsent = reqs[sent].line.as_bytes();
                }
                match self.stream.write(unsent) {
                    Ok(k) => {
                        progress = true;
                        unsent = &unsent[k..];
                        if unsent.is_empty() {
                            sent += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break 'poll,
                }
            }
            if sent == n && !draining {
                // Everything is sent: block on the socket, so the poll
                // loop stops taking a core from the server while it
                // works off the backlog.
                draining = true;
                if self.stream.set_nonblocking(false).is_err()
                    || self.stream.set_read_timeout(Some(STALL_LIMIT)).is_err()
                {
                    break;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(k) => {
                    let at = Instant::now();
                    progress = true;
                    self.inbox.extend_from_slice(&chunk[..k]);
                    let mut start = 0;
                    while let Some(end) = self.inbox[start..].iter().position(|&b| b == b'\n') {
                        let resp = &self.inbox[start..start + end];
                        let i = run.answered;
                        if i < n {
                            run.lat_us[i] = us(at.saturating_duration_since(due(i)));
                            run.recv_s[i] = at.saturating_duration_since(t0).as_secs_f64();
                            run.errs += usize::from(resp.starts_with(b"ERR"));
                            run.hashes[i] = fnv(resp);
                            run.backlog_max = run.backlog_max.max(sent - i);
                        }
                        run.answered += 1;
                        start += end + 1;
                    }
                    self.inbox.drain(..start);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            if progress {
                last_progress = now;
            } else if now - last_progress > STALL_LIMIT {
                break;
            } else {
                std::thread::yield_now();
            }
        }
        run.answered = run.answered.min(n);
        // A failed switch back surfaces as a failed write next segment.
        let _ = self.stream.set_nonblocking(true);
        run
    }

    fn quit(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(b"QUIT\n")
    }
}

/// A loopback connection: the server end, to be served with the shipped
/// per-connection loop (`serve_lines` over the socket, exactly as
/// `serve_tcp` runs each connection), and the client end.
fn connect() -> std::io::Result<(Client, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (conn, _) = listener.accept()?;
    // The client sends each request the moment it is due.
    client.set_nodelay(true)?;
    client.set_nonblocking(true)?;
    Ok((
        Client {
            stream: client,
            inbox: Vec::new(),
        },
        conn,
    ))
}

/// The segments of one run, in stream order: the warm-up, `lo`, `hi`,
/// then (when `saturate`) `BURSTS` bursts.
fn plan(mix: Mix, lists: &[Vec<u32>], seed: u64, seconds: f64, saturate: bool) -> Vec<Segment> {
    let mut g = Gen::new(mix, lists, seed);
    let mut plan = vec![
        g.segment("warmup", RATE_LO, seconds * WARMUP_SHARE),
        g.segment("lo", RATE_LO, seconds * LO_SHARE),
        g.segment("hi", RATE_HI, seconds * HI_SHARE),
    ];
    if saturate {
        let burst_s = seconds * SAT_PER_SEC / SAT_RATE / BURSTS as f64;
        plan.extend((0..BURSTS).map(|_| g.segment("sat", SAT_RATE, burst_s)));
    }
    plan
}

/// Build the corpus `SETUP_ROUNDS` times; returns the median build time
/// and the last build.
fn setup(seed: u64) -> (f64, Vec<Vec<u32>>, Server) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        drop(last.take());
        let t0 = Instant::now();
        let lists = corpus(seed);
        let server = load(&lists);
        times.push(t0.elapsed().as_secs_f64());
        last = Some((lists, server));
    }
    let (lists, server) = last.expect("at least one setup round");
    (median(&mut times), lists, server)
}

/// Answered requests per second while the connection is saturated:
/// the median over `WINDOWS` equal slices of the burst's response
/// timeline (first to last response), so one stall does not set it.
fn saturated_rps(run: &SegmentRun) -> f64 {
    let t: Vec<f64> = run
        .recv_s
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    let (Some(&first), Some(&last)) = (t.first(), t.last()) else {
        return 0.0;
    };
    let width = (last - first) / WINDOWS as f64;
    let mut rates: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let (lo, hi) = (first + w as f64 * width, first + (w + 1) as f64 * width);
            t.iter().filter(|&&x| x >= lo && x < hi).count() as f64 / width
        })
        .collect();
    median(&mut rates)
}

struct TcpRun {
    /// What the client saw of each segment of the plan, in plan order.
    runs: Vec<SegmentRun>,
    failed: usize,
    attempted: usize,
    obs: fesia_obs::MetricsSnapshot,
    quiesce_ms: f64,
}

/// Drive every segment of `plan` through one TCP connection to `server`.
fn drive(server: &Server, plan: &[Segment]) -> std::io::Result<TcpRun> {
    let (mut client, conn) = connect()?;
    let obs0 = fesia_obs::metrics().snapshot();
    let mut out = TcpRun {
        runs: Vec::new(),
        failed: 0,
        attempted: 0,
        obs: Default::default(),
        quiesce_ms: 0.0,
    };
    std::thread::scope(|scope| -> std::io::Result<()> {
        let serving = scope.spawn(move || {
            let reader = BufReader::new(conn.try_clone()?);
            serve_lines(server, reader, conn)
        });
        for seg in plan {
            let run = client.run(&seg.reqs, seg.rate);
            out.attempted += seg.reqs.len();
            out.failed += run.failures(&seg.reqs);
            out.runs.push(run);
        }
        client.quit()?;
        serving.join().expect("server thread panicked")?;
        Ok(())
    })?;
    let (_, quiesce) = timed(|| server.store().quiesce());
    out.quiesce_ms = quiesce.as_secs_f64() * 1e3;
    out.obs = fesia_obs::metrics().snapshot().delta(&obs0);
    Ok(out)
}

/// The segments of `plan` named `name`, each with what the client saw
/// of it, in stream order.
fn segments<'a>(
    plan: &'a [Segment],
    tcp: &'a TcpRun,
    name: &'a str,
) -> impl Iterator<Item = (&'a Segment, &'a SegmentRun)> {
    plan.iter()
        .zip(&tcp.runs)
        .filter(move |(seg, _)| seg.name == name)
}

/// Latencies of the requests of the segments named `name` whose verb
/// satisfies `keep`, in stream order.
fn lat_of(plan: &[Segment], tcp: &TcpRun, name: &str, keep: impl Fn(Verb) -> bool) -> Vec<f64> {
    segments(plan, tcp, name)
        .flat_map(|(seg, run)| run.lat_where(&seg.reqs, &keep))
        .collect()
}

/// The untraced end-to-end run.
pub fn run(mix: Mix, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let (setup_s, lists, server) = setup(seed);
    let plan = plan(mix, &lists, seed, seconds, true);
    let tcp = drive(&server, &plan)?;
    let mut o = Outcome {
        attempted: tcp.attempted as u64,
        failed: tcp.failed as u64,
        ..Outcome::default()
    };
    shape_checks(&mut o, mix, &tcp);
    o.put("setup_s", setup_s, "s");
    for name in ["lo", "hi"] {
        let mut lat = lat_of(&plan, &tcp, name, |v| !v.is_write());
        o.put(format!("read_p50_us.{name}"), quantile(&mut lat, 0.5), "us");
    }
    let mut burst_rps: Vec<f64> = segments(&plan, &tcp, "sat")
        .map(|(_, run)| saturated_rps(run))
        .collect();
    o.put("max_rps", median(&mut burst_rps), "req/s");
    Ok(o)
}

fn shape_checks(o: &mut Outcome, mix: Mix, tcp: &TcpRun) {
    match mix {
        Mix::Read => {
            o.require(
                tcp.obs.serve_writes == 0,
                format!(
                    "serve-read must not write ({} writes)",
                    tcp.obs.serve_writes
                ),
            );
            o.require(
                tcp.obs.serve_rebuilds == 0,
                format!(
                    "serve-read must not rebuild ({} rebuilds)",
                    tcp.obs.serve_rebuilds
                ),
            );
        }
        Mix::Churn => o.require(
            tcp.obs.serve_rebuilds > 0,
            "serve-churn must trigger rebuilds (0 rebuilds)",
        ),
    }
}

/// Per-request spans of one sampled request, µs.
#[derive(Default, Clone, Copy)]
struct Sample {
    handle: f64,
    store: f64,
    view: f64,
    resolve: f64,
    op: f64,
}

/// The traced run: the same TCP segments (warm-up, lo, hi) untraced, then
/// an in-process replay of the same stream on a fresh server timing
/// `Server::handle_line` for every request and, for every
/// `SAMPLE_EVERY`-th, each layer call on its own.
pub fn trace(mix: Mix, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let (_, lists, server) = setup(seed);
    let plan = plan(mix, &lists, seed, seconds, false);
    let tcp = drive(&server, &plan)?;
    drop(server);
    let mut o = Outcome {
        attempted: tcp.attempted as u64,
        failed: tcp.failed as u64,
        ..Outcome::default()
    };
    shape_checks(&mut o, mix, &tcp);

    // Load generator.
    let all_runs = || tcp.runs.iter();
    o.put("loadgen.sent", tcp.attempted as f64, "count");
    o.put(
        "loadgen.answered",
        all_runs().map(|p| p.answered).sum::<usize>() as f64,
        "count",
    );
    let mut hi_lag: Vec<f64> = segments(&plan, &tcp, "hi")
        .flat_map(|(_, run)| run.lag_us.iter().copied())
        .collect();
    o.put("loadgen.lag_p99_us", quantile(&mut hi_lag, 0.99), "us");
    o.put(
        "loadgen.backlog_max",
        all_runs().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
        "count",
    );
    for name in ["lo", "hi"] {
        let lat = lat_of(&plan, &tcp, name, |v| !v.is_write());
        o.put(
            format!("loadgen.read_p99_us.{name}"),
            windowed_quantile(&lat, 0.99),
            "us",
        );
    }
    let mut wlat = lat_of(&plan, &tcp, "hi", Verb::is_write);
    o.put("loadgen.write_p50_us.hi", quantile(&mut wlat, 0.5), "us");
    o.put("loadgen.write_p99_us.hi", quantile(&mut wlat, 0.99), "us");
    o.put(
        "protocol.err",
        all_runs().map(|p| p.errs).sum::<usize>() as f64,
        "count",
    );
    o.put("store.rebuilds", tcp.obs.serve_rebuilds as f64, "count");
    o.put("store.quiesce_ms", tcp.quiesce_ms, "ms");
    o.put(
        "snapshot.publishes",
        tcp.obs.snapshot_publishes as f64,
        "count",
    );
    o.put("snapshot.retired", tcp.obs.snapshot_retired as f64, "count");
    o.put(
        "snapshot.pin_stall_max_us",
        fesia_obs::metrics().snapshot_pin_stall_max_cycles.get() as f64
            / crate::common::tsc_ghz()
            / 1e3,
        "us",
    );

    // Untraced in-process replay (for the tracing overhead), then the
    // traced one, each on a freshly loaded server.
    let stream: Vec<&Req> = plan.iter().flat_map(|seg| &seg.reqs).collect();
    let fresh = load(&lists);
    let (_, untraced) = timed(|| {
        for r in &stream {
            std::hint::black_box(fresh.handle_line(r.line.trim_end()));
        }
    });
    fresh.store().quiesce();
    drop(fresh);

    let server = load(&lists);
    let table = KernelTable::auto();
    let planner = IntersectPlanner::current();
    let mut handle_us = vec![0.0; stream.len()];
    let mut samples: Vec<(Verb, Sample)> = Vec::new();
    let mut probes: Vec<PairProbe> = Vec::new();
    let mut delta_lens = Vec::new();
    let mut rebuild_ms = Vec::new();
    let mut sampling = Duration::ZERO;
    let mut mismatches = 0usize;
    let t_replay = Instant::now();
    for (i, r) in stream.iter().enumerate() {
        let (resp, d) = timed(|| server.handle_line(r.line.trim_end()));
        handle_us[i] = us(d);
        mismatches += usize::from(fnv(resp.as_bytes()) != r.expect);
        if i % SAMPLE_EVERY != 0 {
            continue;
        }
        let t_sample = Instant::now();
        let s = sample(&server, r, &table, handle_us[i]);
        samples.push((r.verb, s));
        let view = server.store().view();
        for &id in &r.ids {
            delta_lens.push(view.resolve(id).delta_len() as f64);
        }
        if r.verb == Verb::Count {
            let (a, b) = (view.resolve(r.ids[0]), view.resolve(r.ids[1]));
            let (_, d_dyn) = timed(|| dynamic_intersect_count(a, b, &table));
            let (_, d_base) = timed(|| auto_count_with(a.base(), b.base(), &table));
            probes.push(PairProbe {
                dyn_us: us(d_dyn),
                base_us: us(d_base),
                ..layers::probe_pair(a.base(), b.base(), &table, &planner)
            });
        }
        if r.verb.is_write() {
            let set = view.resolve(r.ids[0]);
            if set.delta_len() > 0 {
                let (_, d) = timed(|| set.rebuilt().expect("rebuild of a valid set"));
                rebuild_ms.push(d.as_secs_f64() * 1e3);
            }
        }
        drop(view);
        sampling += t_sample.elapsed();
    }
    let traced = t_replay.elapsed() - sampling;
    server.store().quiesce();
    o.attempted += stream.len() as u64;
    o.failed += mismatches as u64;

    // Front end: untraced TCP latency minus in-process handle time of
    // the same request.
    for name in ["lo", "hi"] {
        let mut gaps = Vec::new();
        let mut base = 0;
        for (seg, run) in plan.iter().zip(&tcp.runs) {
            if seg.name == name {
                gaps.extend(
                    seg.reqs
                        .iter()
                        .enumerate()
                        .filter(|(i, r)| !r.verb.is_write() && run.lat_us[*i].is_finite())
                        .map(|(i, _)| run.lat_us[i] - handle_us[base + i]),
                );
            }
            base += seg.reqs.len();
        }
        o.put(format!("net.gap_p50_us.{name}"), median(&mut gaps), "us");
    }

    // Protocol.
    for verb in Verb::ALL {
        let mut hs: Vec<f64> = stream
            .iter()
            .zip(&handle_us)
            .filter(|(r, _)| r.verb == verb)
            .map(|(_, &h)| h)
            .collect();
        o.put(
            format!("protocol.handle_p50_us.{}", verb.name()),
            median(&mut hs),
            "us",
        );
    }
    let col = |f: &dyn Fn(&Sample) -> f64, keep: &dyn Fn(Verb) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|(v, _)| keep(*v))
            .map(|(_, s)| f(s))
            .collect()
    };
    let any = |_: Verb| true;
    let reads = |v: Verb| !v.is_write();
    o.put(
        "protocol.self_p50_us",
        median(&mut col(&|s| s.handle - s.store, &any)),
        "us",
    );

    // Store.
    o.put(
        "store.view_p50_us",
        median(&mut col(&|s| s.view, &reads)),
        "us",
    );
    o.put(
        "store.read_p50_us",
        median(&mut col(&|s| s.store, &reads)),
        "us",
    );
    let mut applies = col(&|s| s.store, &Verb::is_write);
    o.put("store.apply_p50_us", quantile(&mut applies, 0.5), "us");
    o.put("store.apply_p99_us", quantile(&mut applies, 0.99), "us");

    // Snapshot: resolve is timed per id.
    let mut resolve_ns: Vec<f64> = samples
        .iter()
        .filter(|(v, _)| reads(*v))
        .map(|(v, s)| s.resolve * 1e3 / v.ids() as f64)
        .collect();
    o.put("snapshot.resolve_p50_ns", median(&mut resolve_ns), "ns");

    // Dynamic.
    let mut dyn_us: Vec<f64> = probes.iter().map(|p| p.dyn_us).collect();
    let mut base_us: Vec<f64> = probes.iter().map(|p| p.base_us).collect();
    o.put("dynamic.count_p50_us", median(&mut dyn_us), "us");
    o.put("dynamic.base_count_p50_us", median(&mut base_us), "us");
    let dyn_sum: f64 = probes.iter().map(|p| p.dyn_us).sum();
    let base_sum: f64 = probes.iter().map(|p| p.base_us).sum();
    o.put(
        "dynamic.merge_share",
        if dyn_sum > 0.0 {
            (dyn_sum - base_sum) / dyn_sum
        } else {
            0.0
        },
        "ratio",
    );
    let mean = delta_lens.iter().sum::<f64>() / delta_lens.len().max(1) as f64;
    o.put("dynamic.delta_len_mean", mean, "count");
    o.put("dynamic.rebuild_p50_ms", median(&mut rebuild_ms), "ms");
    if mix == Mix::Churn {
        o.require(
            mean >= CHURN_DELTA_FLOOR,
            format!("serve-churn mean delta {mean:.2} below the floor {CHURN_DELTA_FLOOR}"),
        );
    }

    // Plan and intersect, on the sampled COUNT pairs' bases.
    layers::put_pair_layers(&mut o, &probes, &tcp.obs);

    // Set encoding.
    let view = server.store().view();
    let bytes: usize = (0..SETS as u32)
        .map(|id| view.resolve(id).base().memory_bytes())
        .sum();
    let elems: usize = (0..SETS as u32)
        .map(|id| view.resolve(id).base().len())
        .sum();
    drop(view);
    o.put(
        "set.bytes_per_elem",
        bytes as f64 / elems.max(1) as f64,
        "B",
    );

    // Accounting: protocol self time plus the layer spans must cover the
    // traced handle time of each sampled request.
    let covered: f64 = samples
        .iter()
        .map(|(_, s)| (s.handle - s.store) + s.view + s.resolve + s.op)
        .sum();
    let total: f64 = samples.iter().map(|(_, s)| s.handle).sum();
    let unattributed = if total > 0.0 {
        (total - covered) / total
    } else {
        0.0
    };
    o.put("trace.unattributed_share", unattributed, "ratio");
    o.require(
        unattributed.abs() <= UNATTRIBUTED_TOLERANCE,
        format!(
            "per-layer spans leave {:.1}% of traced time unattributed (tolerance {:.0}%)",
            unattributed * 100.0,
            UNATTRIBUTED_TOLERANCE * 100.0
        ),
    );
    // The library layers no serve request isolates (algebra, batch and
    // exec, similarity join) are measured here, on the out-of-cache
    // analytics corpus, so a workload the benchmark runs covers them.
    if mix == Mix::Read {
        crate::analytics::library_trace(&mut o, seed);
    }
    o.put(
        "trace.overhead_pct",
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    Ok(o)
}

/// Re-run one request layer by layer: the store call on its own (so the
/// protocol's own share is `handle - store`), then a pin, the id
/// resolves and the engine operation as separate calls. Writes re-apply
/// their op, which leaves the set's contents unchanged.
fn sample(server: &Server, r: &Req, table: &KernelTable, handle: f64) -> Sample {
    let store = server.store();
    let ids = &r.ids;
    let mut s = Sample {
        handle,
        ..Sample::default()
    };
    if r.verb.is_write() {
        let op = match r.verb {
            Verb::Add => WriteOp::Add {
                set: ids[0],
                elem: r.elem,
            },
            _ => WriteOp::Del {
                set: ids[0],
                elem: r.elem,
            },
        };
        let (_, d) = timed(|| store.apply(op));
        s.store = us(d);
        s.op = s.store;
        return s;
    }
    let (_, d) = timed(|| match r.verb {
        Verb::Count => store.read(|v| v.count(ids[0], ids[1], table)).to_string(),
        Verb::And => store
            .read(|v| v.kway_intersect(ids, table))
            .len()
            .to_string(),
        Verb::Or => store.read(|v| v.kway_union(ids)).len().to_string(),
        _ => store
            .read(|v| v.boolean(&ids[..1], &ids[1..3], &ids[3..], table))
            .len()
            .to_string(),
    });
    s.store = us(d);
    let (_, d) = timed(|| drop(store.view()));
    s.view = us(d);
    let view = store.view();
    let (_, d) = timed(|| {
        for &id in ids {
            std::hint::black_box(view.resolve(id));
        }
    });
    s.resolve = us(d);
    let (_, d) = timed(|| match r.verb {
        Verb::Count => view.count(ids[0], ids[1], table),
        Verb::And => view.kway_intersect(ids, table).len(),
        Verb::Or => view.kway_union(ids).len(),
        _ => view.boolean(&ids[..1], &ids[1..3], &ids[3..], table).len(),
    });
    s.op = us(d);
    s
}
