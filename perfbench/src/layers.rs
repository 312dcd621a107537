//! Per-layer measurements, shared by every workload's traced run.
//!
//! Two sources, and no instrumentation inside the program:
//! * the program's public counters and histograms, snapshotted before and
//!   after a phase ([`Snap`]);
//! * the benchmark's own timed calls into each layer's public functions
//!   (the probes below), run after the load phases on the workload's own
//!   stores and requests.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Instant;

use trex::core::materialize;
use trex::obs::{
    HistogramSnapshot, IndexSnapshot, SelfManageSnapshot, ServeSnapshot, StorageSnapshot,
};
use trex::{
    merge_topk, parse_query_request, CacheStatus, EvalOptions, HttpServerConfig, Interpretation,
    ListKind, PartitionedTrexSystem, QueryEngine, Strategy,
};

use crate::common::{http_query, query_body};
use crate::spans::Tracer;
use crate::util::{answer_key, mean, median, ratio, us, Failures, Metrics, Reference};

/// The program's counters, summed over every partition of a system.
#[derive(Clone)]
pub struct Snap {
    pub storage: StorageSnapshot,
    pub index: IndexSnapshot,
    pub selfmanage: SelfManageSnapshot,
    pub serve: ServeSnapshot,
    pub gate_wait: HistogramSnapshot,
    pub wal_append: HistogramSnapshot,
    pub partitions: usize,
}

impl Snap {
    pub fn take(system: &PartitionedTrexSystem) -> Snap {
        let parts = system.system().parts();
        let mut snap = Snap {
            storage: StorageSnapshot::default(),
            index: IndexSnapshot::default(),
            selfmanage: SelfManageSnapshot::default(),
            serve: system.serve_metrics().counters.snapshot(),
            gate_wait: HistogramSnapshot::default(),
            wal_append: HistogramSnapshot::default(),
            partitions: parts.len(),
        };
        for part in parts {
            let index = part.index();
            snap.storage = snap.storage.sum(&index.store().counters().snapshot());
            snap.index = snap.index.sum(&index.counters().snapshot());
            snap.selfmanage = snap.selfmanage.sum(&part.profiler().counters().snapshot());
            snap.gate_wait = snap
                .gate_wait
                .merge(&index.telemetry().maint.read_gate_wait.snapshot());
            snap.wal_append = snap
                .wal_append
                .merge(&index.store().timers().wal_append.snapshot());
        }
        snap
    }

    pub fn since(&self, earlier: &Snap) -> Snap {
        Snap {
            storage: self.storage.delta(&earlier.storage),
            index: self.index.delta(&earlier.index),
            selfmanage: self.selfmanage.delta(&earlier.selfmanage),
            serve: self.serve.delta(&earlier.serve),
            gate_wait: self.gate_wait.delta(&earlier.gate_wait),
            wal_append: self.wal_append.delta(&earlier.wal_append),
            partitions: self.partitions,
        }
    }

    /// Counter deltas of two families, summed (the serve counters and
    /// partition count are `self`'s).
    pub fn plus(&self, other: &Snap) -> Snap {
        Snap {
            storage: self.storage.sum(&other.storage),
            index: self.index.sum(&other.index),
            selfmanage: self.selfmanage.sum(&other.selfmanage),
            serve: self.serve,
            gate_wait: self.gate_wait.merge(&other.gate_wait),
            wal_append: self.wal_append.merge(&other.wal_append),
            partitions: self.partitions,
        }
    }

    /// Queries the engines evaluated (each partition's profiler records
    /// every successful evaluation once).
    pub fn evaluated(&self) -> f64 {
        self.selfmanage.queries_profiled as f64 / self.partitions.max(1) as f64
    }
}

/// Read-path counters of a load phase, as per-layer metrics.
pub fn read_path_metrics(m: &mut Metrics, d: &Snap) {
    let q = d.evaluated();
    let ix = &d.index;
    let st = &d.storage;
    m.put(
        "index.rpl_blocks_per_query",
        ratio(ix.rpl_blocks as f64, q),
        "1/query",
    );
    m.put(
        "index.erpl_blocks_per_query",
        ratio(ix.erpl_blocks as f64, q),
        "1/query",
    );
    m.put(
        "index.decoded_bytes_per_query",
        ratio((ix.posting_bytes + ix.rpl_bytes + ix.erpl_bytes) as f64, q),
        "B/query",
    );
    m.put(
        "storage.pool_hit_ratio",
        ratio(st.pool_hits as f64, (st.pool_hits + st.pool_misses) as f64),
        "ratio",
    );
    m.put(
        "storage.page_reads_per_query",
        ratio(st.page_reads as f64, q),
        "1/query",
    );
    m.put(
        "storage.btree_node_visits_per_query",
        ratio(st.btree_node_visits as f64, q),
        "1/query",
    );
    m.put(
        "engine.era_fallbacks",
        ratio(
            d.selfmanage.era_fallbacks as f64,
            d.selfmanage.queries_profiled as f64,
        ),
        "1/query",
    );
    m.put(
        "engine.gate_wait_us",
        ratio(
            d.gate_wait.sum_ns() as f64 / 1e3,
            d.gate_wait.count() as f64,
        ),
        "us",
    );
}

/// Write-path counters of a writer phase, as per-layer metrics.
pub fn write_path_metrics(m: &mut Metrics, d: &Snap, w: &crate::common::WriterReport) {
    let docs = w.acked.len() as f64;
    m.put("ingest_docs_per_s", w.docs_per_s(), "1/s");
    m.put("ingest_p99_ms", w.ack_p99_ms(), "ms");
    m.put("fold_pause_ms", w.fold_pause_p50_ms(), "ms");
    m.put(
        "storage.wal_bytes_per_ingest_byte",
        ratio(d.storage.wal_bytes as f64, w.bytes as f64),
        "ratio",
    );
    m.put(
        "storage.wal_appends_per_doc",
        ratio(d.storage.wal_appends as f64, docs),
        "1/doc",
    );
    m.put(
        "storage.fsync_us",
        ratio(
            d.wal_append.sum_ns() as f64 / 1e3,
            d.wal_append.count() as f64,
        ),
        "us",
    );
    m.put("storage.checkpoints", d.storage.checkpoints as f64, "count");
    m.put("ingest.fold_wall_ms", median(&w.fold_wall_ms), "ms");
    m.put("ingest.folds", w.fold_wall_ms.len() as f64, "count");
    m.put("delta.matches_us", median(&w.matches_us), "us");
    m.put("delta.docs_mean", mean(&w.delta_docs), "docs");
}

/// `nexi.translate_us`: `QueryEngine::translate` on each query, median of
/// `reps` calls per query, averaged over queries.
pub fn translate_probe(
    system: &PartitionedTrexSystem,
    queries: &[String],
    reps: usize,
) -> Vec<f64> {
    let engine = QueryEngine::new(system.system().part(0).index());
    queries
        .iter()
        .map(|q| {
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let t = engine.translate(q, Interpretation::default());
                    let d = t0.elapsed();
                    std::hint::black_box(t.ok());
                    us(d)
                })
                .collect();
            median(&times)
        })
        .collect()
}

/// What the forced-strategy probe measured on one store family.
#[derive(Default)]
pub struct StrategyProbe {
    /// Per (query, k): Auto time over min(TA, Merge).
    pub auto_over_best: Vec<f64>,
    /// Per (query, k) medians, µs.
    pub ta_us: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub era_us: Vec<f64>,
    pub rpl_entries: u64,
    pub erpl_entries: u64,
    pub posting_entries: u64,
    pub ta_answers: u64,
    pub merge_answers: u64,
    pub era_answers: u64,
}

impl StrategyProbe {
    pub fn report(&self, m: &mut Metrics) {
        let geo = if self.auto_over_best.is_empty() {
            0.0
        } else {
            (self.auto_over_best.iter().map(|r| r.ln()).sum::<f64>()
                / self.auto_over_best.len() as f64)
                .exp()
        };
        m.put("engine.auto_over_best", geo, "ratio");
        m.put("ta.us", mean(&self.ta_us), "us");
        m.put("merge.us", mean(&self.merge_us), "us");
        m.put("era.us", mean(&self.era_us), "us");
        m.put(
            "ta.rpl_entries_per_answer",
            ratio(self.rpl_entries as f64, self.ta_answers as f64),
            "1/answer",
        );
        m.put(
            "merge.erpl_entries_per_answer",
            ratio(self.erpl_entries as f64, self.merge_answers as f64),
            "1/answer",
        );
        m.put(
            "era.posting_entries_per_answer",
            ratio(self.posting_entries as f64, self.era_answers as f64),
            "1/answer",
        );
    }
}

/// Forced TA, Merge and ERA (and Auto under the self-managed list set)
/// over `pairs` on one store family. Missing RPLs/ERPLs are materialised
/// for the probe and dropped again afterwards, so the list set the
/// workload runs under is restored exactly. The three strategies' answers
/// must agree byte for byte.
pub fn strategy_probe(
    system: &PartitionedTrexSystem,
    pairs: &[(String, usize)],
    reps: usize,
    out: &mut StrategyProbe,
    failures: &mut Failures,
) {
    let sys = system.system();
    let time = |nexi: &str, k: usize, strategy: Strategy| -> (f64, Option<Vec<trex::Answer>>) {
        let mut times = Vec::with_capacity(reps);
        let mut answers = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = sys.evaluate(nexi, EvalOptions::new().k(k).strategy(strategy));
            times.push(us(t0.elapsed()));
            answers = r.ok().map(|r| r.answers);
        }
        (median(&times), answers)
    };

    let auto: Vec<f64> = pairs
        .iter()
        .map(|(q, k)| time(q, *k, Strategy::Auto).0)
        .collect();

    // Snapshot the list registries, then cover every pair with both kinds.
    // (RPL, ERPL) (term, sid) pairs per partition.
    type ListIds = BTreeSet<(u32, u32)>;
    let before: Vec<(ListIds, ListIds)> = sys
        .parts()
        .iter()
        .map(|p| {
            let rpl = p
                .index()
                .rpls()
                .ok()
                .and_then(|t| t.lists().ok())
                .unwrap_or_default();
            let erpl = p
                .index()
                .erpls()
                .ok()
                .and_then(|t| t.lists().ok())
                .unwrap_or_default();
            (
                rpl.iter().map(|(t, s, _)| (*t, *s)).collect(),
                erpl.iter().map(|(t, s, _)| (*t, *s)).collect(),
            )
        })
        .collect();
    for (q, _) in pairs {
        for part in sys.parts() {
            let engine = QueryEngine::new(part.index());
            match engine.translate(q, Interpretation::default()) {
                Ok(t) => {
                    if let Err(e) = materialize(part.index(), &t.sids, &t.terms, ListKind::Both) {
                        failures.fail("materialize error", format!("{q}: {e}"));
                    }
                }
                Err(e) => failures.fail("translate error", format!("{q}: {e}")),
            }
        }
    }

    let entries = |sys: &trex::PartitionedSystem| -> IndexSnapshot {
        sys.parts().iter().fold(IndexSnapshot::default(), |acc, p| {
            acc.sum(&p.index().counters().snapshot())
        })
    };
    for ((q, k), auto_us) in pairs.iter().zip(&auto) {
        let i0 = entries(sys);
        let (ta, ta_ans) = time(q, *k, Strategy::Ta);
        let i1 = entries(sys);
        let (merge, merge_ans) = time(q, *k, Strategy::Merge);
        let i2 = entries(sys);
        let (era, era_ans) = time(q, *k, Strategy::Era);
        let i3 = entries(sys);
        out.auto_over_best.push(auto_us / ta.min(merge).max(1e-3));
        out.ta_us.push(ta);
        out.merge_us.push(merge);
        out.era_us.push(era);
        out.rpl_entries += i1.delta(&i0).rpl_entries;
        out.erpl_entries += i2.delta(&i1).erpl_entries;
        out.posting_entries += i3.delta(&i2).posting_entries;
        let n =
            |a: &Option<Vec<trex::Answer>>| a.as_ref().map_or(0, |a| a.len() as u64) * reps as u64;
        out.ta_answers += n(&ta_ans);
        out.merge_answers += n(&merge_ans);
        out.era_answers += n(&era_ans);
        match (&ta_ans, &merge_ans, &era_ans) {
            (Some(t), Some(m), Some(e)) => {
                let e = answer_key(e);
                failures.check(
                    answer_key(t) == e && answer_key(m) == e,
                    "forced strategies disagree",
                    || format!("{q} k={k}"),
                );
            }
            _ => failures.fail("forced strategy error", format!("{q} k={k}")),
        }
    }

    // Restore the self-managed list set.
    for (part, (rpl0, erpl0)) in sys.parts().iter().zip(&before) {
        let index = part.index();
        let restored = (|| -> Result<(), trex::index::IndexError> {
            let mut rpls = index.rpls()?;
            for (t, s, _) in rpls.lists()? {
                if !rpl0.contains(&(t, s)) {
                    let _gate = index.maintenance().enter_write();
                    rpls.drop_list(t, s)?;
                }
            }
            let mut erpls = index.erpls()?;
            for (t, s, _) in erpls.lists()? {
                if !erpl0.contains(&(t, s)) {
                    let _gate = index.maintenance().enter_write();
                    erpls.drop_list(t, s)?;
                }
            }
            index.store().flush()?;
            Ok(())
        })();
        if let Err(e) = restored {
            failures.fail("list restore error", e.to_string());
        }
    }
}

/// What the scatter-gather probe measured.
#[derive(Default)]
pub struct PartitionProbe {
    pub evaluate_us: Vec<f64>,
    pub slowest_part_us: Vec<f64>,
    pub merge_topk_us: Vec<f64>,
    pub picks: std::collections::BTreeMap<&'static str, u64>,
}

impl PartitionProbe {
    pub fn report(&self, m: &mut Metrics) {
        let overhead: Vec<f64> = self
            .evaluate_us
            .iter()
            .zip(&self.slowest_part_us)
            .map(|(e, s)| e - s)
            .collect();
        m.put("partition.evaluate_us", median(&self.evaluate_us), "us");
        m.put(
            "partition.slowest_part_us",
            median(&self.slowest_part_us),
            "us",
        );
        m.put("partition.scatter_overhead_us", median(&overhead), "us");
        m.put("partition.merge_topk_us", median(&self.merge_topk_us), "us");
        let total: u64 = self.picks.values().sum();
        for (name, metric) in [
            ("ta", "engine.auto_picks_ta"),
            ("merge", "engine.auto_picks_merge"),
            ("era", "engine.auto_picks_era"),
        ] {
            let n = self.picks.get(name).copied().unwrap_or(0);
            m.put(metric, ratio(n as f64, total as f64), "ratio");
        }
    }
}

/// Replays `requests` layer by layer, bypassing any cache: the whole
/// `PartitionedSystem::evaluate`, then each partition's `translate` and
/// evaluation on its own, then `merge_topk` over the partition streams.
/// The gathered answers must equal the system's.
pub fn partition_probe(
    system: &PartitionedTrexSystem,
    requests: &[(String, Option<usize>)],
    tracer: &mut Tracer,
    out: &mut PartitionProbe,
    failures: &mut Failures,
) {
    let sys = system.system();
    for (i, (q, k)) in requests.iter().enumerate() {
        let req = i as u64;
        let opts = EvalOptions::new().k(*k);
        tracer.begin("probe.request", req);
        let t0 = Instant::now();
        let whole = tracer.time("partition.evaluate", req, || sys.evaluate(q, opts));
        out.evaluate_us.push(us(t0.elapsed()));
        let mut streams = Vec::with_capacity(sys.partitions());
        let mut slowest = 0.0f64;
        for part in sys.parts() {
            let engine = QueryEngine::new(part.index());
            let t0 = Instant::now();
            let translated = tracer.time("nexi.translate", req, || {
                engine.translate(q, Interpretation::default())
            });
            let result = translated.and_then(|t| {
                tracer.time("engine.evaluate", req, || {
                    engine.evaluate_translated(t, opts)
                })
            });
            slowest = slowest.max(us(t0.elapsed()));
            match result {
                Ok(r) => {
                    *out.picks.entry(r.stats.name()).or_default() += 1;
                    streams.push(r.answers);
                }
                Err(e) => failures.fail("partition evaluate error", format!("{q}: {e}")),
            }
        }
        out.slowest_part_us.push(slowest);
        let t0 = Instant::now();
        let merged = tracer.time("partition.merge_topk", req, || merge_topk(&streams, *k));
        out.merge_topk_us.push(us(t0.elapsed()));
        tracer.end();
        match whole {
            Ok(r) => failures.check(
                answer_key(&r.answers) == answer_key(&merged),
                "gathered answers differ from evaluate",
                || format!("{q} k={k:?}"),
            ),
            Err(e) => failures.fail("evaluate error", format!("{q}: {e}")),
        }
    }
}

/// What the serving-layer probe measured.
#[derive(Default)]
pub struct ServeProbe {
    pub parse_us: Vec<f64>,
    pub hit_us: Vec<f64>,
    pub miss_us: Vec<f64>,
    pub http_hit_us: Vec<f64>,
    pub before: Option<ServeSnapshot>,
    pub after: Option<ServeSnapshot>,
}

impl ServeProbe {
    /// `cache_hit_ratio`: where the workload itself runs the cache, the
    /// caller passes the load phase's counters instead of the probe's.
    pub fn report(&self, m: &mut Metrics, load_serve: Option<&ServeSnapshot>) {
        m.put(
            "http.overhead_us",
            median(&self.http_hit_us) - median(&self.hit_us),
            "us",
        );
        let probe = match (&self.after, &self.before) {
            (Some(a), Some(b)) => a.delta(b),
            _ => ServeSnapshot::default(),
        };
        let serve = load_serve.copied().unwrap_or(probe);
        m.put("http.shed", serve.shed as f64, "count");
        m.put("serve.parse_us", median(&self.parse_us), "us");
        m.put("serve.execute_hit_us", median(&self.hit_us), "us");
        m.put("serve.execute_miss_us", median(&self.miss_us), "us");
        m.put(
            "serve.cache_hit_ratio",
            ratio(
                serve.cache_hits as f64,
                (serve.cache_hits + serve.cache_misses) as f64,
            ),
            "ratio",
        );
    }
}

/// The serving layers on `requests`, one at a time: `parse_query_request`
/// on the wire body, `QueryService::execute` in-process (result cache on,
/// shared with the HTTP server), then the same request over HTTP — which
/// the execute just cached, so the HTTP time is compared with in-process
/// hits. `addr` is a running server over `system`; one is started for the
/// probe when `None`.
pub fn serve_probe(
    system: &PartitionedTrexSystem,
    addr: Option<SocketAddr>,
    workers: usize,
    requests: &[(String, Option<usize>)],
    tracer: &mut Tracer,
    out: &mut ServeProbe,
    failures: &mut Failures,
) {
    let server = match addr {
        Some(_) => None,
        None => Some(
            system
                .serve_http(
                    "127.0.0.1:0",
                    HttpServerConfig {
                        workers,
                        cache: true,
                        ..HttpServerConfig::default()
                    },
                )
                .expect("start probe http server"),
        ),
    };
    let addr = addr.unwrap_or_else(|| server.as_ref().expect("probe server").addr());
    let service = system.service();
    out.before = Some(system.serve_metrics().counters.snapshot());
    for (i, (q, k)) in requests.iter().enumerate() {
        let req = i as u64;
        let body = query_body(q, *k);
        tracer.begin("probe.request", req);
        let t0 = Instant::now();
        let parsed = tracer.time("serve.parse", req, || parse_query_request(&body));
        out.parse_us.push(us(t0.elapsed()));
        let request = match parsed {
            Ok(r) => r,
            Err(e) => {
                tracer.end();
                failures.fail("wire parse error", format!("{q}: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let executed = tracer.time("serve.execute", req, || service.execute(&request));
        let d = us(t0.elapsed());
        let local = match executed {
            Ok(resp) => {
                match resp.cache {
                    CacheStatus::Hit => out.hit_us.push(d),
                    CacheStatus::Miss | CacheStatus::Bypass => out.miss_us.push(d),
                }
                Reference::new(&resp.answers)
            }
            Err(e) => {
                tracer.end();
                failures.fail("execute error", format!("{q}: {e}"));
                continue;
            }
        };
        let t0 = Instant::now();
        let wire = tracer.time("http.request", req, || http_query(addr, &body));
        let d = us(t0.elapsed());
        tracer.end();
        match wire {
            Ok((200, body)) => {
                out.http_hit_us.push(d);
                failures.check(
                    local.matches_body(&body),
                    "http answers differ from in-process",
                    || format!("{q} k={k:?}"),
                );
            }
            Ok((status, _)) => failures.fail("http status", format!("{status} for {q}")),
            Err(e) => failures.fail("http io error", e.to_string()),
        }
    }
    out.after = Some(system.serve_metrics().counters.snapshot());
    if let Some(server) = server {
        server.stop();
    }
}

/// (query, k) requests.
pub type Requests = Vec<(String, Option<usize>)>;

/// The probes a traced run makes after its load phases, on the workload's
/// own stores and requests.
pub struct Plan<'a> {
    pub cores: usize,
    /// The store family the serving probe runs on, and a server already
    /// running over it (one is started for the probe otherwise).
    pub serve: (&'a PartitionedTrexSystem, Option<SocketAddr>),
    pub serve_requests: Requests,
    /// Where the workload itself runs the result cache: its load-phase
    /// serve counters, preferred over the probe's for `http.shed` and
    /// `serve.cache_hit_ratio`.
    pub load_serve: Option<ServeSnapshot>,
    /// Requests replayed layer by layer, per store family.
    pub partition: Vec<(&'a PartitionedTrexSystem, Requests)>,
    /// The paper (query, k) pairs each family serves, for the
    /// forced-strategy probe.
    pub strategy: Vec<(&'a PartitionedTrexSystem, Vec<(String, usize)>)>,
}

/// Runs every probe of `plan` and reports its per-layer metrics.
pub fn probe(plan: &Plan<'_>, tracer: &mut Tracer, m: &mut Metrics, failures: &mut Failures) {
    let mut serve = ServeProbe::default();
    serve_probe(
        plan.serve.0,
        plan.serve.1,
        plan.cores,
        &plan.serve_requests,
        tracer,
        &mut serve,
        failures,
    );
    serve.report(m, plan.load_serve.as_ref());

    let mut part = PartitionProbe::default();
    let mut translate = Vec::new();
    for (system, requests) in &plan.partition {
        partition_probe(system, requests, tracer, &mut part, failures);
        let distinct: BTreeSet<&String> = requests.iter().map(|(q, _)| q).collect();
        let queries: Vec<String> = distinct.into_iter().cloned().collect();
        translate.extend(translate_probe(system, &queries, 11));
    }
    part.report(m);
    m.put("nexi.translate_us", mean(&translate), "us");

    let mut strat = StrategyProbe::default();
    for (system, pairs) in &plan.strategy {
        strategy_probe(system, pairs, 5, &mut strat, failures);
    }
    strat.report(m);
}
