//! Shared plumbing: the per-run scratch directory, order statistics, the
//! metric and failure ledgers, and the wire rendering used to compare
//! answer lists byte for byte.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trex::Answer;

/// A fresh directory for one run's stores, removed when dropped (also on
/// panic unwind), so no run reuses another's files.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(root: &Path, tag: &str) -> Scratch {
        let dir = root.join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty sub-directory (one per set-up repetition).
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch subdir");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total bytes of every regular file under `dir` (data files, WALs,
/// sidecars, every partition).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (mean of the middle pair for even lengths). NaN when
/// empty, like [`percentile`], [`mean`] and [`ratio`] without samples: a
/// metric nothing was measured for must not read as a measurement (the
/// self-test rejects non-finite values).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `v`; NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// NaN when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`; NaN when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Query latencies with their completion times, summarised per block.
#[derive(Default)]
pub struct Latencies {
    /// (completed at, seconds since the phase start; latency, ms)
    samples: Vec<(f64, f64)>,
}

/// Completions per block of the per-block figures: ten beyond each
/// block's 99th percentile, whatever the workload's speed, and a whole
/// number (36) of `paper_topk`'s rounds of 28 requests, so its blocks all
/// hold the same mix.
pub const BLOCK: usize = 1008;

/// Per-block medians of a phase's queries.
pub struct Blocked {
    /// Completions per second.
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Whole blocks the medians are over (0: the phase held fewer than
    /// `BLOCK` queries and is one short block).
    pub blocks: usize,
}

impl Latencies {
    pub fn push(&mut self, done_s: f64, ms: f64) {
        self.samples.push((done_s, ms));
    }

    pub fn extend(&mut self, other: Latencies) {
        self.samples.extend(other.samples);
    }

    /// Appends a later phase that began `offset` seconds into this one.
    pub fn extend_at(&mut self, other: Latencies, offset: f64) {
        self.samples
            .extend(other.samples.into_iter().map(|(t, ms)| (t + offset, ms)));
    }

    /// Splits a phase of `seconds` into consecutive blocks of `BLOCK`
    /// completions and takes the median over blocks of each block's
    /// throughput (`BLOCK` over the time since the previous block ended),
    /// median and 99th percentile. The host's speed drifts by up to 1.5x
    /// over tens of seconds as neighbours come and go; medians over blocks
    /// follow its usual speed instead of averaging bursts in. Completions
    /// after the last whole block are left out; a phase with fewer than
    /// `BLOCK` completions is one block of `seconds`.
    pub fn blocked(&self, seconds: f64) -> Blocked {
        let mut s: Vec<(f64, f64)> = self
            .samples
            .iter()
            .copied()
            .filter(|&(t, _)| t <= seconds)
            .collect();
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        if s.len() < BLOCK {
            let ms: Vec<f64> = s.iter().map(|x| x.1).collect();
            return Blocked {
                qps: s.len() as f64 / seconds,
                p50_ms: percentile(&ms, 0.5),
                p99_ms: percentile(&ms, 0.99),
                blocks: 0,
            };
        }
        let (mut qps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut begun = 0.0;
        for b in s.chunks_exact(BLOCK) {
            let ended = b[BLOCK - 1].0;
            qps.push(BLOCK as f64 / (ended - begun));
            begun = ended;
            let ms: Vec<f64> = b.iter().map(|x| x.1).collect();
            p50.push(percentile(&ms, 0.5));
            p99.push(percentile(&ms, 0.99));
        }
        Blocked {
            qps: median(&qps),
            p50_ms: median(&p50),
            p99_ms: median(&p99),
            blocks: qps.len(),
        }
    }
}

/// The traced run's load: four phases of a quarter of `seconds` each,
/// untraced, traced, traced, untraced, so slow drifts (a warming cache,
/// the host's speed) weigh on both sides alike. Returns the untraced and
/// traced throughput (mean of each side's per-block median) and every
/// phase's output in order.
pub fn abba<T>(
    seconds: f64,
    mut phase: impl FnMut(f64, bool) -> (Latencies, T),
) -> (f64, f64, Vec<T>) {
    let quarter = seconds / 4.0;
    let (mut plain, mut traced, mut outs) = (0.0, 0.0, Vec::with_capacity(4));
    for on in [false, true, true, false] {
        let (lat, out) = phase(quarter, on);
        let qps = lat.blocked(quarter).qps / 2.0;
        if on {
            traced += qps;
        } else {
            plain += qps;
        }
        outs.push(out);
    }
    (plain, traced, outs)
}

/// The host probe's median time on the host the reference figures are
/// scaled to (2 cores of a shared Xeon host, where it took 1.5-2.7 ms).
pub const REFERENCE_PROBE_MS: f64 = 2.0;

/// Measured time between two host probes of a probed load.
pub const PROBE_EVERY_S: f64 = 0.5;

/// How fast the shared host runs, from a fixed piece of work that does
/// not touch TReX, timed again and again through a run.
///
/// The host's speed drifts as neighbouring containers come and go: on 2
/// cores of a shared Xeon host, a fixed query loop's throughput moved
/// between 0.5x and 1x of its best over minutes, and five 25-s
/// `paper_topk` runs measured 791-1368 queries/s. The probe allocates,
/// sorts and hashes, as a query does, and its time followed the loop's:
/// scaled by it, the same five runs read 1033-1132 queries/s. An integer
/// loop did not slow with the host, and the probe without its
/// allocations (best of three) over-corrected.
#[derive(Default)]
pub struct HostProbe {
    ms: Vec<f64>,
}

impl HostProbe {
    /// Times the probe once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut v: Vec<u32> = (0..50_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        v.sort_unstable();
        let mut m = HashMap::new();
        for (i, x) in v.iter().enumerate().take(20_000) {
            m.insert(*x, i);
        }
        std::hint::black_box(m.len());
        self.ms.push(ms(t0.elapsed()));
    }

    pub fn samples(&self) -> usize {
        self.ms.len()
    }

    /// Median probe time over `REFERENCE_PROBE_MS`: how many times slower
    /// than the reference host the host ran (NaN without samples).
    pub fn slowness(&self) -> f64 {
        median(&self.ms) / REFERENCE_PROBE_MS
    }
}

/// Runs a closed-loop load for `seconds` in chunks of `PROBE_EVERY_S`,
/// sampling `probe` between chunks while no request is in flight. Returns
/// the chunks' latencies on one timeline that leaves the probes out, and
/// each chunk's other output.
pub fn probed<T>(
    seconds: f64,
    probe: &mut HostProbe,
    mut chunk: impl FnMut(f64) -> (Latencies, T),
) -> (Latencies, Vec<T>) {
    let (mut lat, mut outs, mut at) = (Latencies::default(), Vec::new(), 0.0);
    while at < seconds {
        let t0 = Instant::now();
        let (l, out) = chunk(PROBE_EVERY_S.min(seconds - at));
        lat.extend_at(l, at);
        at += t0.elapsed().as_secs_f64();
        outs.push(out);
        probe.sample();
    }
    (lat, outs)
}

/// The metrics one run reports, in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.entries.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Values are printed with
    /// Rust's shortest round-trip formatting, i.e. every measured digit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values (nothing measured) print as `NaN`, which
            // Python's JSON reader accepts and the self-test rejects.
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "NaN".to_string()
            };
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push('}');
        out
    }
}

/// Attempted and failed operations, with a count and a first example per
/// cause so every non-zero `fail_frac` can be explained.
#[derive(Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    causes: BTreeMap<String, (u64, String)>,
}

impl Failures {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, cause: &str, example: String) {
        self.attempted += 1;
        self.failed += 1;
        let slot = self.causes.entry(cause.to_string()).or_insert((0, example));
        slot.0 += 1;
    }

    /// A check that is not an operation of its own (for example answers
    /// compared around a fold): counts only when it fails.
    pub fn check(&mut self, holds: bool, cause: &str, example: impl FnOnce() -> String) {
        if !holds {
            self.fail(cause, example());
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (cause, (n, example)) in other.causes {
            self.causes.entry(cause).or_insert((0, example)).0 += n;
        }
    }

    pub fn frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn causes(&self) -> impl Iterator<Item = (&String, &(u64, String))> {
        self.causes.iter()
    }
}

/// An answer list reduced to what the wire carries, scores by bit pattern:
/// `(doc, start, end, sid, score)`. Equal keys mean byte-identical answers.
pub type AnswerKey = Vec<(u32, u32, u32, u32, u32)>;

pub fn answer_key(answers: &[Answer]) -> AnswerKey {
    answers
        .iter()
        .map(|a| {
            (
                a.element.doc,
                a.element.start(),
                a.element.end,
                a.sid,
                a.score.to_bits(),
            )
        })
        .collect()
}

/// A reference answer list (ERA on the same store), comparable with
/// in-process answers and with HTTP response bodies.
pub struct Reference {
    key: AnswerKey,
    /// The `answers` array rendered as the HTTP front end renders it
    /// (`core::serve`'s response writer), compared byte for byte.
    wire: String,
}

impl Reference {
    pub fn new(answers: &[Answer]) -> Reference {
        let mut wire = String::from("[");
        for (i, a) in answers.iter().enumerate() {
            if i > 0 {
                wire.push(',');
            }
            wire.push_str(&format!(
                "{{\"doc\":{},\"start\":{},\"end\":{},\"sid\":{},\"score\":{}}}",
                a.element.doc,
                a.element.start(),
                a.element.end,
                a.sid,
                a.score
            ));
        }
        wire.push(']');
        Reference {
            key: answer_key(answers),
            wire,
        }
    }

    pub fn matches(&self, answers: &[Answer]) -> bool {
        answer_key(answers) == self.key
    }

    /// Whether a `POST /v1/query` response body carries exactly these
    /// answers, byte for byte.
    pub fn matches_body(&self, body: &str) -> bool {
        answers_slice(body) == Some(self.wire.as_str())
    }
}

/// The `[...]` answers array of a rendered query response.
pub fn answers_slice(body: &str) -> Option<&str> {
    let start = body.find("\"answers\":[")? + "\"answers\":".len();
    let end = body[start..].find("],\"total_answers\"")? + start + 1;
    Some(&body[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex::ElementRef;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn blocks_take_medians() {
        let mut l = Latencies::default();
        // Three blocks: in 1 s at 1 ms, in 2 s at 5 ms, in 1 s at 2 ms with
        // ten 50 ms stragglers (the 99th percentile stays 2 ms).
        let n = BLOCK;
        let spread = |from: f64, secs: f64, i: usize| from + secs * (i + 1) as f64 / n as f64;
        for i in 0..n {
            l.push(spread(0.0, 1.0, i), 1.0);
            l.push(spread(1.0, 2.0, i), 5.0);
            l.push(spread(3.0, 1.0, i), if i < 10 { 50.0 } else { 2.0 });
        }
        for i in 0..10 {
            l.push(4.0 + 0.01 * (i + 1) as f64, 100.0); // partial block: left out
        }
        l.push(6.5, 100.0); // beyond the phase: ignored
        let b = l.blocked(6.0);
        assert_eq!(b.blocks, 3);
        assert!((b.qps - n as f64).abs() < 1e-6, "{}", b.qps);
        assert_eq!(b.p50_ms, 2.0);
        assert_eq!(b.p99_ms, 2.0);

        let mut short = Latencies::default();
        for (t, ms) in [(0.1, 1.0), (0.2, 3.0), (0.3, 2.0), (0.4, 9.0)] {
            short.push(t, ms);
        }
        let b = short.blocked(2.0);
        assert_eq!((b.blocks, b.qps, b.p50_ms, b.p99_ms), (0, 2.0, 2.0, 9.0));
        assert!(Latencies::default().blocked(1.0).p50_ms.is_nan());
    }

    #[test]
    fn probed_chunks_share_one_timeline() {
        let mut probe = HostProbe::default();
        let mut lens = Vec::new();
        let (lat, outs) = probed(1.2, &mut probe, |secs| {
            lens.push(secs);
            std::thread::sleep(Duration::from_secs_f64(secs));
            let mut l = Latencies::default();
            l.push(secs, 1.0);
            (l, secs)
        });
        // Chunks of PROBE_EVERY_S = 0.5 s (the last one shorter), a probe
        // after each, and each chunk's completion shifted past the
        // chunks before it.
        assert_eq!(lens.len(), 3);
        assert_eq!(outs, lens);
        assert!((lens[2] - 0.2).abs() < 0.05, "{lens:?}");
        assert_eq!(probe.samples(), 3);
        assert!(probe.slowness() > 0.0);
        let t: Vec<f64> = lat.samples.iter().map(|s| s.0).collect();
        assert!(
            (t[0] - 0.5).abs() < 0.05 && (t[1] - 1.0).abs() < 0.05,
            "{t:?}"
        );
        assert!((t[2] - 1.2).abs() < 0.05, "{t:?}");
        assert!(HostProbe::default().slowness().is_nan());
    }

    #[test]
    fn references_match_wire_bodies() {
        let a = Answer {
            element: ElementRef {
                doc: 3,
                end: 9,
                length: 4,
            },
            sid: 2,
            score: 1.25,
        };
        let r = Reference::new(&[a]);
        assert!(r.matches(&[a]));
        let fast = "{\"v\":1,\"answers\":[{\"doc\":3,\"start\":6,\"end\":9,\"sid\":2,\"score\":1.25}],\"total_answers\":1,\"cache\":\"hit\"}";
        assert!(r.matches_body(fast));
        // Same answers, other rendering: a mismatch.
        let other_rendering = "{\"answers\": [{\"sid\":2,\"doc\":3,\"start\":6,\"end\":9,\"score\":1.250}], \"total_answers\":1}";
        assert!(!r.matches_body(other_rendering));
        let other = fast.replace("1.25", "1.5");
        assert!(!r.matches_body(&other));
        assert!(Reference::new(&[]).matches_body("{\"answers\":[],\"total_answers\":0}"));
    }
}
