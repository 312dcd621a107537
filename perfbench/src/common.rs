//! What the workloads share: the run context, the seeded inputs, store
//! set-up, the document writer (live ingest with periodic folds) and the
//! HTTP client.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trex::corpus::{Collection, CorpusConfig, IeeeGenerator, Vocabulary, WikiGenerator};
use trex::{
    AliasMap, Answer, Interpretation, PartitionedTrexSystem, QueryEngine, Strategy, TrexConfig,
};

use crate::spans::Tracer;
use crate::util::{
    answer_key, median, ms, percentile, ratio, us, AnswerKey, Blocked, Failures, HostProbe,
};

/// Paper-experiment scale (EXPERIMENTS.md): IEEE-like and Wikipedia-like
/// document counts.
pub const IEEE_DOCS: usize = 1200;
pub const WIKI_DOCS: usize = 3000;
/// Default buffer pool: 4096 pages of 8 KiB = 32 MiB.
pub const DEFAULT_POOL_PAGES: usize = 4096;
/// How many times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `<checkout>/.perfbench`: scratch stores (removed at exit), span
    /// files and result records.
    pub out_dir: PathBuf,
    pub cores: usize,
    pub epoch: Instant,
}

impl Ctx {
    pub fn tracer(&self, on: bool) -> Tracer {
        Tracer::new(on, self.epoch)
    }
}

/// A workload's result: metrics, failures and stamp fields.
pub struct Outcome {
    pub metrics: crate::util::Metrics,
    pub failures: Failures,
    /// Extra `key: value` pairs for the run stamp (pool sizes, workers...).
    pub stamp: Vec<(String, String)>,
    pub spans: crate::spans::SpanLog,
}

pub fn ieee_config() -> CorpusConfig {
    CorpusConfig {
        docs: IEEE_DOCS,
        ..CorpusConfig::ieee_default()
    }
}

/// The IEEE-like collection at experiment scale (generator default seed,
/// the corpus every EXPERIMENTS.md table was measured on).
pub fn ieee_docs() -> Vec<String> {
    IeeeGenerator::new(ieee_config()).documents().collect()
}

pub fn wiki_docs() -> Vec<String> {
    WikiGenerator::new(CorpusConfig {
        docs: WIKI_DOCS,
        ..CorpusConfig::wiki_default()
    })
    .documents()
    .collect()
}

/// `n` held-out IEEE documents from the same generator as the base
/// collection: documents `IEEE_DOCS + offset ..`, where the offset comes
/// from the workload seed. Only documents the probe query can find are
/// kept (see [`probe_query`]), so every acknowledged document is checked.
pub fn held_out_docs(seed: u64, n: usize) -> Vec<String> {
    let gen = IeeeGenerator::new(ieee_config());
    let probe = probe_words();
    let offset = IEEE_DOCS + (seed.wrapping_mul(0x9e37_79b9) % 50_000) as usize;
    (offset..)
        .map(|i| gen.document(i))
        .filter(|xml| contains_any_word(xml, &probe))
        .take(n)
        .collect()
}

/// The three most frequent background words of the IEEE vocabulary.
fn probe_words() -> Vec<String> {
    let vocab = Vocabulary::new(ieee_config().vocab_size);
    (0..3).map(|r| vocab.word(r).to_string()).collect()
}

/// `//article[about(., w0 w1 w2)]` over the three most frequent background
/// words: with all answers (`k = None`) it finds every article containing
/// one of them, which is how acknowledged documents are checked to be
/// queryable.
pub fn probe_query() -> String {
    format!("//article[about(., {})]", probe_words().join(" "))
}

fn contains_any_word(xml: &str, words: &[String]) -> bool {
    xml.split(|c: char| !c.is_ascii_alphanumeric())
        .any(|tok| words.iter().any(|w| w == tok))
}

/// One store family: `partitions` stores for one collection under `dir`.
pub fn build_store(
    dir: &Path,
    collection: Collection,
    docs: &[String],
    partitions: usize,
    pool_pages: usize,
) -> PartitionedTrexSystem {
    let name = match collection {
        Collection::Ieee => "ieee.db",
        Collection::Wiki => "wiki.db",
    };
    let mut config = TrexConfig::new(dir.join(name));
    config.pool_pages = pool_pages;
    if collection == Collection::Wiki {
        config.alias = AliasMap::inex_wiki();
    }
    PartitionedTrexSystem::build(config, partitions, docs.iter().cloned())
        .expect("build benchmark store")
}

/// Answers of `nexi` under an explicit strategy, rendered for comparison.
pub fn answers_of(
    system: &PartitionedTrexSystem,
    nexi: &str,
    k: Option<usize>,
    strategy: Strategy,
) -> Result<Vec<Answer>, String> {
    system
        .search_with(nexi, k, strategy)
        .map(|r| r.answers)
        .map_err(|e| e.to_string())
}

/// Acknowledgements per block of `WriterReport::ack_p99_ms`.
pub const ACK_BLOCK: usize = 1000;

/// What the writer measured.
#[derive(Default)]
pub struct WriterReport {
    pub acked: Vec<u32>,
    /// Per-acknowledgement latency, fold calls excluded.
    pub ack_ms: Vec<f64>,
    /// Per fold: the summed `FoldReport::pause` of every partition.
    pub fold_pause_ms: Vec<f64>,
    pub fold_wall_ms: Vec<f64>,
    pub bytes: u64,
    /// Delta-index size (documents, all partitions) after each ack.
    pub delta_docs: Vec<f64>,
    /// `DeltaIndex::matches` of each check query, timed just before each
    /// fold, when the delta is largest.
    pub matches_us: Vec<f64>,
}

impl WriterReport {
    /// Appends a later phase's measurements.
    pub fn extend(&mut self, later: WriterReport) {
        self.acked.extend(later.acked);
        self.ack_ms.extend(later.ack_ms);
        self.fold_pause_ms.extend(later.fold_pause_ms);
        self.fold_wall_ms.extend(later.fold_wall_ms);
        self.bytes += later.bytes;
        self.delta_docs.extend(later.delta_docs);
        self.matches_us.extend(later.matches_us);
    }

    /// Documents one writer acknowledges per second at the median
    /// acknowledgement latency: its capacity whatever pace it was offered
    /// documents at. Folds are not in it (their cost is `fold_pause_ms`);
    /// the slow acknowledgements are `ingest_p99_ms`.
    pub fn docs_per_s(&self) -> f64 {
        ratio(1e3, median(&self.ack_ms))
    }

    /// Median over consecutive blocks of `ACK_BLOCK` acknowledgements of
    /// each block's 99th percentile: ten samples beyond it per block, and
    /// one block's stall does not set the figure (as the query blocks).
    pub fn ack_p99_ms(&self) -> f64 {
        let p99s: Vec<f64> = self
            .ack_ms
            .chunks(ACK_BLOCK)
            .filter(|b| b.len() == ACK_BLOCK || self.ack_ms.len() < ACK_BLOCK)
            .map(|b| percentile(b, 0.99))
            .collect();
        median(&p99s)
    }

    pub fn fold_pause_p50_ms(&self) -> f64 {
        median(&self.fold_pause_ms)
    }
}

/// How a writer is offered documents: with `pace`, that many per second
/// (open loop; a writer that falls behind, e.g. during a fold, catches up
/// back to back, so the documents acknowledged by a given time, and the
/// store size queries see, do not depend on the host's speed), otherwise
/// back to back; until `until`, or until the documents run out.
pub struct Offer {
    pub pace: Option<f64>,
    pub until: Option<Instant>,
}

/// Ingests `docs` one at a time through `ingest_document` (each WAL-synced
/// before it is acknowledged) as `offer` says, folding after every
/// `fold_every` acknowledgements; around each fold the `checks` queries
/// must answer byte-identically.
pub fn run_writer(
    system: &PartitionedTrexSystem,
    docs: &[String],
    fold_every: usize,
    checks: &[(String, Option<usize>)],
    offer: Offer,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> WriterReport {
    let mut report = WriterReport::default();
    let mut due = Instant::now();
    for (i, xml) in docs.iter().enumerate() {
        if let Some(rate) = offer.pace {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            due += Duration::from_secs_f64(1.0 / rate);
        }
        if offer.until.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        tracer.begin("ingest.document", i as u64);
        let t0 = Instant::now();
        let result = system.ingest_document(xml);
        let elapsed = t0.elapsed();
        tracer.end();
        match result {
            Ok(id) => {
                failures.ok();
                report.acked.push(id);
                report.ack_ms.push(ms(elapsed));
                report.bytes += xml.len() as u64;
                report.delta_docs.push(delta_docs(system) as f64);
                if report.acked.len() % fold_every == 0 {
                    fold_checked(system, checks, &mut report, tracer, failures);
                }
            }
            Err(e) => failures.fail("ingest rejected", e.to_string()),
        }
    }
    report
}

/// One fold with the check queries answered immediately before and after.
pub fn fold_checked(
    system: &PartitionedTrexSystem,
    checks: &[(String, Option<usize>)],
    report: &mut WriterReport,
    tracer: &mut Tracer,
    failures: &mut Failures,
) {
    let render = |failures: &mut Failures| -> Vec<Option<AnswerKey>> {
        checks
            .iter()
            .map(|(q, k)| match answers_of(system, q, *k, Strategy::Auto) {
                Ok(a) => Some(answer_key(&a)),
                Err(e) => {
                    failures.fail("query error around fold", format!("{q}: {e}"));
                    None
                }
            })
            .collect()
    };
    let before = render(failures);
    for part in system.system().parts() {
        let engine = QueryEngine::new(part.index());
        for (q, _) in checks {
            if let Ok(t) = engine.translate(q, Interpretation::default()) {
                let t0 = Instant::now();
                let matches = part.index().delta().matches(&t.sids, &t.terms);
                report.matches_us.push(us(t0.elapsed()));
                std::hint::black_box(matches);
            }
        }
    }
    tracer.begin("ingest.fold", report.acked.len() as u64);
    let folded = system.fold_once();
    tracer.end();
    match folded {
        Ok(reports) => {
            let reports: Vec<_> = reports.into_iter().flatten().collect();
            if !reports.is_empty() {
                report
                    .fold_pause_ms
                    .push(reports.iter().map(|r| ms(r.pause)).sum());
                report
                    .fold_wall_ms
                    .push(reports.iter().map(|r| ms(r.wall)).sum());
            }
            failures.ok();
        }
        Err(e) => failures.fail("fold error", e.to_string()),
    }
    let after = render(failures);
    for ((q, k), (b, a)) in checks.iter().zip(before.iter().zip(&after)) {
        failures.check(b == a, "answers changed across fold", || {
            format!("{q} k={k:?}")
        });
    }
}

/// Documents in the delta indexes of every partition.
pub fn delta_docs(system: &PartitionedTrexSystem) -> usize {
    system
        .system()
        .parts()
        .iter()
        .map(|p| p.index().delta().doc_count())
        .sum()
}

/// Checks that every acknowledged document is found by the probe query.
pub fn check_queryable(system: &PartitionedTrexSystem, acked: &[u32], failures: &mut Failures) {
    if acked.is_empty() {
        return;
    }
    match answers_of(system, &probe_query(), None, Strategy::Era) {
        Ok(answers) => {
            let found: BTreeSet<u32> = answers.iter().map(|a| a.element.doc).collect();
            let missing: Vec<u32> = acked
                .iter()
                .copied()
                .filter(|d| !found.contains(d))
                .collect();
            failures.check(missing.is_empty(), "acknowledged doc not queryable", || {
                format!(
                    "{} of {} missing, first {:?}",
                    missing.len(),
                    acked.len(),
                    missing.first()
                )
            });
        }
        Err(e) => failures.fail("probe query error", e),
    }
}

/// One `POST /v1/query` over a fresh connection (the server answers
/// `Connection: close`). Returns the status and the body.
pub fn http_query(addr: SocketAddr, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match response.find("\r\n\r\n") {
        Some(i) => response[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// The JSON body of a query request.
pub fn query_body(nexi: &str, k: Option<usize>) -> String {
    let nexi = trex::obs::json_escape(nexi);
    match k {
        Some(k) => format!("{{\"nexi\":\"{nexi}\",\"k\":{k}}}"),
        None => format!("{{\"nexi\":\"{nexi}\",\"k\":null}}"),
    }
}

/// The set-ups of a run: each one's wall time, and the host probe timed
/// before each and after the last.
pub struct Setups {
    pub times: Vec<f64>,
    pub probe: HostProbe,
}

impl Setups {
    /// `setup_s`: the median set-up time, scaled to the reference host
    /// like the query figures (set-up is CPU-bound work: build, profiled
    /// pass, reconcile).
    pub fn setup_s(&self) -> f64 {
        median(&self.times) / self.probe.slowness()
    }
}

/// Times `reps` set-ups, probing the host between them; keeps the last
/// one's product.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, Setups) {
    let mut setups = Setups {
        times: Vec::with_capacity(reps),
        probe: HostProbe::default(),
    };
    let mut last = None;
    for rep in 0..reps {
        // Drop the previous repetition first so its files and pool are gone
        // before the next one starts.
        drop(last.take());
        setups.probe.sample();
        setups.probe.sample();
        let t0 = Instant::now();
        let product = setup(rep);
        setups.times.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    setups.probe.sample();
    setups.probe.sample();
    (last.expect("at least one set-up"), setups)
}

/// Held-out documents the write probe of the read-only workloads' traced
/// runs ingests after their load (closed loop), and how often it folds.
pub const PROBE_DOCS: usize = 2000;
pub const PROBE_FOLD_EVERY: usize = 250;

/// The write probe of the read-only workloads' traced runs: `docs`
/// ingested into `system` after the load, with a checked fold every `PROBE_FOLD_EVERY`
/// acknowledgements; then every acknowledged document must be queryable.
/// Returns the writer report and the program's counter delta.
pub fn write_probe(
    system: &PartitionedTrexSystem,
    docs: &[String],
    checks: &[(String, Option<usize>)],
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> (WriterReport, crate::layers::Snap) {
    let s0 = crate::layers::Snap::take(system);
    let writer = run_writer(
        system,
        docs,
        PROBE_FOLD_EVERY,
        checks,
        Offer {
            pace: None,
            until: None,
        },
        tracer,
        failures,
    );
    let d = crate::layers::Snap::take(system).since(&s0);
    check_queryable(system, &writer.acked, failures);
    (writer, d)
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    use rand::Rng;
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// One reconcile cycle of a store family from what its profilers saw;
/// returns the cycle's wall time in ms.
pub fn reconcile(system: &PartitionedTrexSystem, budget: u64, max_shapes: usize) -> f64 {
    let mut opts = trex::SelfManageOptions::new(budget);
    opts.max_queries = max_shapes;
    let mut caches: Vec<trex::CostCache> = (0..system.partitions())
        .map(|_| trex::CostCache::new())
        .collect();
    let cycle = trex::reconcile_partitioned(system.system(), &opts, &mut caches, 0)
        .expect("reconcile cycle");
    ms(cycle.wall)
}

/// Every set-up of a run must self-manage into the same redundant lists
/// (`ids` holds one [`ListSet::id`] line per set-up): the measured system
/// is the last set-up's, so a choice that moved with the advisor's own
/// timings would make the figures depend on it.
pub fn check_same_lists(ids: &[String], failures: &mut Failures) {
    failures.check(
        ids.windows(2).all(|w| w[0] == w[1]),
        "list set differs between set-ups",
        || ids.join(" | "),
    );
}

/// The redundant lists a family keeps, over every partition.
pub struct ListSet {
    pub count: usize,
    pub bytes: u64,
    names: Vec<String>,
}

impl ListSet {
    /// FNV-1a over the sorted list names: one id for the chosen set, so
    /// runs can be checked to have self-managed into the same lists.
    pub fn id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.names.iter().flat_map(|n| n.bytes().chain([0])) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{}:{h:016x}", self.count)
    }
}

pub fn list_set(system: &PartitionedTrexSystem) -> ListSet {
    let mut names = Vec::new();
    let mut bytes = 0;
    for (i, part) in system.system().parts().iter().enumerate() {
        let rpls = part
            .index()
            .rpls()
            .ok()
            .and_then(|t| t.lists().ok())
            .expect("rpl registry");
        let erpls = part
            .index()
            .erpls()
            .ok()
            .and_then(|t| t.lists().ok())
            .expect("erpl registry");
        for (kind, lists) in [("rpl", rpls), ("erpl", erpls)] {
            for (t, s, stats) in lists {
                bytes += stats.bytes;
                names.push(format!("p{i}:{kind}:{t}:{s}"));
            }
        }
    }
    names.sort();
    ListSet {
        count: names.len(),
        bytes,
        names,
    }
}

/// `v` repeated `n` times.
pub fn rounds<T: Clone>(v: &[T], n: usize) -> Vec<T> {
    v.iter().cycle().take(v.len() * n).cloned().collect()
}

/// Stamp fields of a run scaled to the reference host: the probe and the
/// query figures as measured.
pub fn host_stamp(probe: &HostProbe, w: &Blocked) -> Vec<(String, String)> {
    vec![
        ("host_scaled".into(), "yes".into()),
        ("host_probes".into(), probe.samples().to_string()),
        ("host_slowness".into(), format!("{:.4}", probe.slowness())),
        ("measured_query_qps".into(), format!("{:.2}", w.qps)),
        ("measured_query_p50_ms".into(), format!("{:.4}", w.p50_ms)),
        ("measured_query_p99_ms".into(), format!("{:.4}", w.p99_ms)),
    ]
}

/// The end-to-end metrics of an untraced run. The query figures are
/// scaled to the reference host's speed by `slowness`
/// ([`crate::util::HostProbe::slowness`]; 1 leaves them as measured), and
/// `setup_s` by the probe timed around the set-ups.
pub fn end_to_end(
    m: &mut crate::util::Metrics,
    setups: &Setups,
    w: &Blocked,
    slowness: f64,
    store_dir: &Path,
    input_bytes: u64,
) {
    m.put("setup_s", setups.setup_s(), "s");
    m.put("query_qps", w.qps * slowness, "1/s");
    m.put("query_p50_ms", w.p50_ms / slowness, "ms");
    m.put("query_p99_ms", w.p99_ms / slowness, "ms");
    m.put(
        "store_bytes_per_input_byte",
        crate::util::dir_bytes(store_dir) as f64 / input_bytes as f64,
        "ratio",
    );
    m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
}
