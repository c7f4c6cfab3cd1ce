//! Shared pieces: exact quantiles, response hashing, corpus generation,
//! the host fingerprint, peak RSS and the result record.

use std::time::{Duration, Instant};

use fesia_datagen::SplitMix64;

/// Exact quantile of raw samples (linear interpolation between order
/// statistics, the rule Python's `statistics.quantiles(method="inclusive")`
/// and NumPy's default use). Sorts `xs` in place; 0.0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of raw samples (0.0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Most windows a phase's samples are split into for
/// [`windowed_quantile`] (and the serve saturation rate).
pub const WINDOWS: usize = 5;

/// Fewest samples a window holds.
const MIN_WINDOW: usize = 500;

/// Median over an odd number (at most [`WINDOWS`]) of consecutive, equal
/// windows of each window's exact `q`-quantile, every window holding at
/// least `MIN_WINDOW` samples (a short phase is one window). Samples
/// must be in time order. One stall (a descheduled vCPU, a delayed ACK)
/// inflates one window's tail, so the median reports the tail a typical
/// stretch of the phase sees, and two runs of the same code agree on it.
pub fn windowed_quantile(xs: &[f64], q: f64) -> f64 {
    let fit = (xs.len() / MIN_WINDOW).clamp(1, WINDOWS);
    let windows = fit - (1 - fit % 2);
    let per = xs.len().div_ceil(windows).max(1);
    let mut qs: Vec<f64> = xs
        .chunks(per)
        .map(|w| quantile(&mut w.to_vec(), q))
        .collect();
    median(&mut qs)
}

/// FNV-1a over a response line (the trailing newline excluded), so
/// responses can be checked without keeping them.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append `xs` space-separated: the protocol's element-list format.
pub fn join_into(out: &mut String, xs: &[u32]) {
    use std::fmt::Write as _;
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{x}");
    }
}

/// `n` distinct ascending values spread uniformly over `[lo, lo + span)`:
/// random gaps averaging `span / n`, O(n) with no hashing, so even the
/// out-of-cache corpus generates in a fraction of its build time.
pub fn uniform_sorted(n: usize, lo: u32, span: u32, rng: &mut SplitMix64) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    if n == 0 {
        return out;
    }
    let gap = (span as u64 / n as u64).max(1);
    let mut x = lo as u64;
    for _ in 0..n {
        x += 1 + rng.below(2 * gap - 1);
        out.push(x.min(fesia_core::MAX_ELEMENT as u64) as u32);
    }
    out.dedup();
    out
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The machine a result was measured on: results are only comparable
/// like with like.
pub struct Host {
    pub cpu: String,
    pub simd: String,
    pub nproc: usize,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub tsc_ghz: f64,
    pub git_sha: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            cpu,
            simd: format!("{:?}", fesia_core::SimdLevel::detect()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            tsc_ghz: tsc_ghz(),
            git_sha: git_sha(),
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "{{\"host\": {{\"cpu\": {:?}, \"simd\": {:?}, \"nproc\": {}, \"l2_bytes\": {}, \
             \"l3_bytes\": {}, \"tsc_ghz\": {:.4}, \"git_sha\": {:?}}}, \"workload\": {:?}, \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            self.cpu,
            self.simd,
            self.nproc,
            self.l2_bytes,
            self.l3_bytes,
            self.tsc_ghz,
            self.git_sha,
            workload,
            seed,
            seconds,
            trace
        )
    }
}

/// Size of the unified cache at `level` (largest instance reported by
/// sysfs for CPU 0); 0 when unknown.
pub fn cache_bytes(level: u32) -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1 << 20),
                None => (size, 1),
            },
        };
        if let Ok(n) = num.parse::<u64>() {
            best = best.max(n * mult);
        }
    }
    best
}

/// Time-stamp-counter rate in GHz, measured once against the monotonic
/// clock.
pub fn tsc_ghz() -> f64 {
    static GHZ: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *GHZ.get_or_init(|| {
        let t0 = Instant::now();
        let c0 = fesia_obs::now_cycles();
        std::thread::sleep(Duration::from_millis(20));
        let c1 = fesia_obs::now_cycles();
        c1.wrapping_sub(c0) as f64 / t0.elapsed().as_nanos() as f64
    })
}

/// The checked-out commit when the benchmark runs from the root of a git
/// work tree; "unknown" otherwise (a plain source export has no history,
/// and a repository further up is not this source's).
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One run's outcome: correctness tallies plus named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not valid (a missed workload shape), if it is not.
    pub invalid: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a shape requirement; a miss makes the run invalid.
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.invalid.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("{n:?}: {{\"value\": {v}, \"unit\": {u:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
