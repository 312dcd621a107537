//! `serve_zipf`: `nproc` closed-loop HTTP connections send `POST
//! /v1/query` to `serve_http` (`nproc` workers, result cache on) over a
//! two-partition IEEE store whose buffer pool is well below the store
//! size. Requests are a seeded Zipf stream over more distinct
//! `random_query` (query, k) pairs than the result cache holds, so hits and
//! misses both occur. Set-up self-manages for the stream's profiled head;
//! the other requests find no lists, so Auto mixes redundant-list
//! strategies with ERA.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trex::corpus::{random_query, Collection, Zipf, PAPER_QUERIES};
use trex::{HttpServerConfig, PartitionedTrexSystem, Strategy, DEFAULT_CACHE_ENTRIES};

use crate::common::*;
use crate::layers::{self, Snap};
use crate::spans::{SpanLog, Tracer};
use crate::util::*;

const PARTITIONS: usize = 2;
/// Total buffer pool over both partitions: 2 MiB against a ~7 MB store.
const POOL_PAGES: usize = 256;
/// Distinct queries; with five k values each, 3000 distinct requests
/// against a 1024-entry result cache.
const DISTINCT_QUERIES: usize = 600;
/// The query universe is fixed, like the corpus; the run seed picks which
/// of its requests are hot and the order they are sent in. A pool drawn
/// from the run seed made the mix's cost, and so every figure, depend on
/// the seed far beyond run-to-run noise.
const POOL_SEED: u64 = 2007;
const KS: [usize; 5] = [5, 10, 20, 50, 100];
const ZIPF_S: f64 = 1.0;
/// Requests of the stream's head evaluated at set-up to profile the workload.
const PROFILED_REQUESTS: usize = 300;
const MAX_SHAPES: usize = 16;
/// Redundant-list budget: room for every list the profiled shapes want
/// (110-185 KB over seeds 1-11), far below the lists the stream's 3000
/// requests would use. A budget that binds (48-128 KiB) made the chosen
/// set follow the advisor's own ERA timings: two or three different sets
/// in four set-ups of the same store.
const BUDGET_BYTES: u64 = 1 << 20;
/// Untimed load before an untraced run's timed load.
const WARMUP_S: f64 = 3.0;
/// Requests replayed by each layer probe of the traced run.
const PROBE_REQUESTS: usize = 300;

struct Stream {
    queries: Vec<String>,
    /// (query index, k) per request, in send order.
    requests: Vec<(usize, usize)>,
}

impl Stream {
    fn new(seed: u64, len: usize) -> Stream {
        let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
        let mut queries: Vec<String> = Vec::with_capacity(DISTINCT_QUERIES);
        while queries.len() < DISTINCT_QUERIES {
            let q = random_query(Collection::Ieee, &mut pool_rng);
            if !queries.contains(&q) {
                queries.push(q);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let items: Vec<(usize, usize)> = (0..DISTINCT_QUERIES)
            .flat_map(|q| KS.iter().map(move |&k| (q, k)))
            .collect();
        let rank_to_item = shuffled(items.len(), &mut rng);
        let zipf = Zipf::new(items.len(), ZIPF_S);
        let requests = (0..len)
            .map(|_| items[rank_to_item[zipf.sample(&mut rng)]])
            .collect();
        Stream { queries, requests }
    }

    fn request(&self, i: usize) -> (String, Option<usize>) {
        let (q, k) = self.requests[i % self.requests.len()];
        (self.queries[q].clone(), Some(k))
    }
}

struct Setup {
    system: PartitionedTrexSystem,
    build_s: f64,
    reconcile_ms: f64,
    lists: ListSet,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let docs = ieee_docs();
    let input_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let stream = Stream::new(ctx.seed, 1 << 20);
    let scratch = Scratch::create(&ctx.out_dir, "serve_zipf");

    let mut list_ids = Vec::new();
    let (setup, setups) = timed_setups(SETUP_REPS, |_| {
        let dir = scratch.subdir("stores");
        let t0 = Instant::now();
        let system = build_store(&dir, Collection::Ieee, &docs, PARTITIONS, POOL_PAGES);
        let build_s = t0.elapsed().as_secs_f64();
        for i in 0..PROFILED_REQUESTS {
            let (q, k) = stream.request(i);
            system.search(&q, k).expect("profiled pass");
        }
        let reconcile_ms = reconcile(&system, BUDGET_BYTES, MAX_SHAPES);
        let lists = list_set(&system);
        list_ids.push(lists.id());
        Setup {
            system,
            build_s,
            reconcile_ms,
            lists,
        }
    });
    let system = &setup.system;

    let mut failures = Failures::default();
    check_same_lists(&list_ids, &mut failures);
    // ERA references for every distinct query at the largest k; a smaller
    // k's reference is a prefix.
    let kmax = *KS.iter().max().expect("ks");
    let era: Vec<Vec<trex::Answer>> = stream
        .queries
        .iter()
        .map(|q| answers_of(system, q, Some(kmax), Strategy::Era).expect("ERA reference"))
        .collect();
    let references: Vec<Vec<Reference>> = era
        .iter()
        .map(|a| {
            KS.iter()
                .map(|&k| Reference::new(&a[..k.min(a.len())]))
                .collect()
        })
        .collect();
    let kslot = |k: usize| KS.iter().position(|&x| x == k).expect("k in KS");

    let server = system
        .serve_http(
            "127.0.0.1:0",
            HttpServerConfig {
                workers: ctx.cores,
                cache: true,
                ..HttpServerConfig::default()
            },
        )
        .expect("start http server");
    let addr = server.addr();
    let next = AtomicUsize::new(0);

    // `nproc` closed-loop connections drawing the stream in order.
    let load = |seconds: f64, traced: bool| -> (Latencies, Failures, Vec<Tracer>) {
        let deadline = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let merged = Mutex::new((Latencies::default(), Failures::default(), Vec::new()));
        std::thread::scope(|scope| {
            for _ in 0..ctx.cores {
                scope.spawn(|| {
                    let mut tracer = ctx.tracer(traced);
                    let mut lat = Latencies::default();
                    let mut failures = Failures::default();
                    while started.elapsed() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (qi, k) = stream.requests[i % stream.requests.len()];
                        let body = query_body(&stream.queries[qi], Some(k));
                        tracer.begin("http.request", i as u64);
                        let t0 = Instant::now();
                        let result = http_query(addr, &body);
                        let d = t0.elapsed();
                        tracer.end();
                        match result {
                            Ok((200, body)) if references[qi][kslot(k)].matches_body(&body) => {
                                failures.ok();
                                lat.push(started.elapsed().as_secs_f64(), ms(d));
                            }
                            Ok((200, _)) => failures.fail(
                                "answers differ from ERA reference",
                                format!("{} k={k}", stream.queries[qi]),
                            ),
                            Ok((status, _)) => {
                                failures.fail(&format!("http {status}"), stream.queries[qi].clone())
                            }
                            Err(e) => failures.fail("connection error", e.to_string()),
                        }
                    }
                    let mut m = merged.lock().expect("client results lock");
                    m.0.extend(lat);
                    m.1.merge(failures);
                    m.2.push(tracer);
                });
            }
        });
        merged.into_inner().expect("client results lock")
    };

    let checks: Vec<(String, Option<usize>)> = PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == Collection::Ieee)
        .map(|q| (q.nexi.to_string(), Some(10)))
        .collect();
    let mut metrics = Metrics::default();
    let mut spans = SpanLog::default();
    // Whole blocks of queries: a traced run splits its load into quarters.
    let mut blocks = "n/a".to_string();
    let mut host = vec![("host_scaled".to_string(), "no (traced run)".to_string())];
    if !ctx.trace {
        // Fill the result cache before timing: throughput climbs for the
        // first 2-3 s of the stream.
        let (_, f, _) = load(WARMUP_S, false);
        failures.merge(f);
        let mut probe = HostProbe::default();
        let (lat, chunks) = probed(ctx.seconds, &mut probe, |secs| {
            let (lat, f, _) = load(secs, false);
            (lat, f)
        });
        for f in chunks {
            failures.merge(f);
        }
        server.stop();
        let w = lat.blocked(ctx.seconds);
        blocks = w.blocks.to_string();
        host = host_stamp(&probe, &w);
        end_to_end(
            &mut metrics,
            &setups,
            &w,
            probe.slowness(),
            scratch.path(),
            input_bytes,
        );
    } else {
        // Fill the result cache first, so the untraced and traced phases
        // below all run against a warm cache.
        let (_, f, _) = load(ctx.seconds / 4.0, false);
        failures.merge(f);
        let s0 = Snap::take(system);
        let (qps_plain, qps_traced, phases) = abba(ctx.seconds, |secs, on| {
            let (lat, f, tracers) = load(secs, on);
            (lat, (f, tracers))
        });
        for (f, tracers) in phases {
            failures.merge(f);
            for t in tracers {
                spans.add(t);
            }
        }
        let d = Snap::take(system).since(&s0);
        layers::read_path_metrics(&mut metrics, &d);

        let start = next.load(Ordering::Relaxed);
        let requests: Vec<(String, Option<usize>)> = (start..start + PROBE_REQUESTS)
            .map(|i| stream.request(i))
            .collect();
        let plan = layers::Plan {
            cores: ctx.cores,
            serve: (system, Some(addr)),
            serve_requests: requests.clone(),
            load_serve: Some(d.serve),
            partition: vec![(system, requests)],
            strategy: vec![(
                system,
                checks
                    .iter()
                    .flat_map(|(q, _)| [1, 5, 10, 100].map(|k| (q.clone(), k)))
                    .collect(),
            )],
        };
        let mut probe_tracer = ctx.tracer(true);
        layers::probe(&plan, &mut probe_tracer, &mut metrics, &mut failures);
        server.stop();
        let (writer, wd) = write_probe(
            system,
            &held_out_docs(ctx.seed, PROBE_DOCS),
            &checks,
            &mut probe_tracer,
            &mut failures,
        );
        spans.add(probe_tracer);
        layers::write_path_metrics(&mut metrics, &wd, &writer);
        metrics.put("selfmanage.reconcile_ms", setup.reconcile_ms, "ms");
        metrics.put("selfmanage.lists_kept", setup.lists.count as f64, "count");
        metrics.put("selfmanage.bytes_used", setup.lists.bytes as f64, "B");
        metrics.put("build.docs_per_s", IEEE_DOCS as f64 / setup.build_s, "1/s");
        metrics.put("obs.trace_overhead", ratio(qps_traced, qps_plain), "ratio");
    }

    Outcome {
        metrics,
        failures,
        stamp: [
            vec![
                ("blocks".into(), blocks),
                ("block_queries".into(), BLOCK.to_string()),
                ("scale".into(), format!("ieee={IEEE_DOCS}")),
                ("partitions".into(), PARTITIONS.to_string()),
                ("pool_pages".into(), POOL_PAGES.to_string()),
                ("http_workers".into(), ctx.cores.to_string()),
                ("client_connections".into(), ctx.cores.to_string()),
                ("cache_entries".into(), DEFAULT_CACHE_ENTRIES.to_string()),
                (
                    "distinct_requests".into(),
                    (DISTINCT_QUERIES * KS.len()).to_string(),
                ),
                ("zipf_s".into(), ZIPF_S.to_string()),
                ("budget_bytes".into(), BUDGET_BYTES.to_string()),
                ("list_set_per_setup".into(), list_ids.join(" ")),
                ("setup_runs_s".into(), format!("{:?}", setups.times)),
                (
                    "setup_host_slowness".into(),
                    format!("{:.4}", setups.probe.slowness()),
                ),
                (
                    "measured_setup_s".into(),
                    format!("{:.4}", median(&setups.times)),
                ),
            ],
            host,
        ]
        .concat(),
        spans,
    }
}
