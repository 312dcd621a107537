//! `ingest_mixed`: one IEEE store (one partition, default pool) serving
//! two threads. A writer is offered held-out documents from the same
//! generator at `WRITE_RATE` per second, ingests each through
//! `ingest_document` (WAL-synced per acknowledgement) and folds every
//! `FOLD_EVERY` acknowledged documents; a reader runs the five IEEE
//! Table 1 queries at k = 10 through `QueryService::execute`, closed-loop
//! with `THINK` between queries. Set-up profiles the five queries and
//! reconciles, so reads run on redundant lists and folds refresh them.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trex::corpus::{Collection, PAPER_QUERIES};
use trex::{PartitionedTrexSystem, QueryRequest, QueryService, Strategy};

use crate::common::*;
use crate::layers::{self, Snap};
use crate::spans::{SpanLog, Tracer};
use crate::util::*;

const K: usize = 10;
const FOLD_EVERY: usize = 250;
const BUDGET_BYTES: u64 = 1 << 30;
/// Documents offered to the writer per second. A fixed offered load keeps
/// the number of folds, and the delta size queries see, the same from run
/// to run; a closed-loop writer's rate (and with it every read figure)
/// followed the host's speed. Queries slow as the store grows: at 100 per
/// second the 1200-document store more than doubled in 25 s and the
/// reader's per-block 99th percentile climbed from 8 to 20 ms, so the
/// figures followed how far into that climb the median block fell. On 2
/// cores the writer keeps up with about 6x this while the reader runs.
const WRITE_RATE: f64 = 50.0;
/// The reader's pause between queries (a closed loop with think time):
/// leaves the writer a share of the 2 cores however fast reads run, so
/// acknowledgement latency measures ingest rather than CPU starvation.
const THINK: Duration = Duration::from_micros(500);

struct Setup {
    system: PartitionedTrexSystem,
    build_s: f64,
    reconcile_ms: f64,
    lists: ListSet,
}

/// What one load phase measured.
struct Phase {
    lat: Latencies,
    writer: WriterReport,
    tracers: [Tracer; 2],
}

pub fn run(ctx: &Ctx) -> Outcome {
    let docs = ieee_docs();
    let held_out = held_out_docs(ctx.seed, (ctx.seconds * WRITE_RATE) as usize + 100);
    let input_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let queries: Vec<String> = PAPER_QUERIES
        .iter()
        .filter(|q| q.collection == Collection::Ieee)
        .map(|q| q.nexi.to_string())
        .collect();
    let checks: Vec<(String, Option<usize>)> =
        queries.iter().map(|q| (q.clone(), Some(K))).collect();
    let scratch = Scratch::create(&ctx.out_dir, "ingest_mixed");

    let mut list_ids = Vec::new();
    let (setup, setups) = timed_setups(SETUP_REPS, |_| {
        let dir = scratch.subdir("stores");
        let t0 = Instant::now();
        let system = build_store(&dir, Collection::Ieee, &docs, 1, DEFAULT_POOL_PAGES);
        let build_s = t0.elapsed().as_secs_f64();
        for q in &queries {
            system.search(q, Some(K)).expect("profiled pass");
        }
        let reconcile_ms = reconcile(&system, BUDGET_BYTES, 8);
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
    let service = QueryService::partitioned(system.system());
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let order: Vec<usize> = (0..64)
        .flat_map(|_| shuffled(queries.len(), &mut rng))
        .collect();
    let mut failures = Failures::default();
    check_same_lists(&list_ids, &mut failures);
    let mut next_doc = 0usize;

    let mut load = |seconds: f64, traced: bool, failures: &mut Failures| -> Phase {
        let deadline = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let docs = &held_out[next_doc..];
        let (reader, (writer, writer_failures, wt)) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut tracer = ctx.tracer(traced);
                let mut f = Failures::default();
                let report = run_writer(
                    system,
                    docs,
                    FOLD_EVERY,
                    &checks,
                    Offer {
                        pace: Some(WRITE_RATE),
                        until: Some(started + deadline),
                    },
                    &mut tracer,
                    &mut f,
                );
                (report, f, tracer)
            });
            let mut tracer = ctx.tracer(traced);
            let mut lat = Latencies::default();
            let mut f = Failures::default();
            let mut n = 0usize;
            while started.elapsed() < deadline {
                let q = &queries[order[n % order.len()]];
                let request = QueryRequest::new(q.as_str()).k(K).trace(traced);
                tracer.begin("service.execute", n as u64);
                let t0 = Instant::now();
                let result = service.execute(&request);
                let d = t0.elapsed();
                if let Some(tr) = result.as_ref().ok().and_then(|r| r.trace.as_ref()) {
                    let s = &tr.stages;
                    tracer.child("nexi.translate", n as u64, Duration::ZERO, s.translate);
                    tracer.child("engine.evaluate", n as u64, s.translate, s.evaluate);
                    tracer.child("engine.rank", n as u64, s.translate + s.evaluate, s.rank);
                }
                tracer.end();
                n += 1;
                match result {
                    Ok(_) => {
                        f.ok();
                        lat.push(started.elapsed().as_secs_f64(), ms(d));
                    }
                    Err(e) => f.fail("query error", format!("{q}: {e}")),
                }
                std::thread::sleep(THINK);
            }
            let writer = writer.join().expect("writer thread");
            ((lat, f, tracer), writer)
        });
        let (lat, reader_failures, rt) = reader;
        failures.merge(reader_failures);
        failures.merge(writer_failures);
        next_doc += writer.acked.len();

        Phase {
            lat,
            writer,
            tracers: [rt, wt],
        }
    };

    let mut metrics = Metrics::default();
    let mut spans = SpanLog::default();
    // Whole blocks of queries: a traced run splits its load into quarters.
    let mut blocks = "n/a".to_string();
    let mut acked = Vec::new();
    // Folds in the load: each one's answers are checked before and after.
    let folds;
    if !ctx.trace {
        let p = load(ctx.seconds, false, &mut failures);
        acked.extend(&p.writer.acked);
        folds = p.writer.fold_wall_ms.len();
        let w = p.lat.blocked(ctx.seconds);
        blocks = w.blocks.to_string();
        // Not scaled to the reference host: the writer's pace and the
        // reader's think time run on the clock, whatever the host's speed,
        // and scaling by the host probe did not steady these figures
        // (spreads over six seeds 0.09-0.21 scaled, 0.04-0.20 not).
        end_to_end(
            &mut metrics,
            &setups,
            &w,
            1.0,
            scratch.path(),
            input_bytes + p.writer.bytes,
        );
    } else {
        let s0 = Snap::take(system);
        let (qps_plain, qps_traced, phases) = abba(ctx.seconds, |secs, on| {
            let p = load(secs, on, &mut failures);
            (p.lat, (p.writer, p.tracers))
        });
        let d = Snap::take(system).since(&s0);
        let mut writer = WriterReport::default();
        for (w, tracers) in phases {
            writer.extend(w);
            for t in tracers {
                spans.add(t);
            }
        }
        acked.extend(&writer.acked);
        folds = writer.fold_wall_ms.len();
        layers::read_path_metrics(&mut metrics, &d);
        layers::write_path_metrics(&mut metrics, &d, &writer);

        let pairs: Vec<(String, usize)> = queries
            .iter()
            .flat_map(|q| [1, 5, 10, 100].map(|k| (q.clone(), k)))
            .collect();
        let plan = layers::Plan {
            cores: ctx.cores,
            serve: (system, None),
            serve_requests: rounds(&checks, 3),
            load_serve: None,
            partition: vec![(system, rounds(&checks, 3))],
            strategy: vec![(system, pairs)],
        };
        let mut probe_tracer = ctx.tracer(true);
        layers::probe(&plan, &mut probe_tracer, &mut metrics, &mut failures);
        spans.add(probe_tracer);
        metrics.put("selfmanage.reconcile_ms", setup.reconcile_ms, "ms");
        metrics.put("selfmanage.lists_kept", setup.lists.count as f64, "count");
        metrics.put("selfmanage.bytes_used", setup.lists.bytes as f64, "B");
        metrics.put("build.docs_per_s", IEEE_DOCS as f64 / setup.build_s, "1/s");
        metrics.put("obs.trace_overhead", ratio(qps_traced, qps_plain), "ratio");
    }

    // After the run: every acknowledged document is queryable, and the
    // reader's path (Auto over lists plus the delta) answers as ERA does.
    check_queryable(system, &acked, &mut failures);
    for (q, k) in &checks {
        match (
            answers_of(system, q, *k, Strategy::Auto),
            answers_of(system, q, *k, Strategy::Era),
        ) {
            (Ok(auto), Ok(era)) => failures.check(
                Reference::new(&era).matches(&auto),
                "answers differ from ERA after ingest",
                || q.clone(),
            ),
            (Err(e), _) | (_, Err(e)) => failures.fail("query error after run", e),
        }
    }

    Outcome {
        metrics,
        failures,
        stamp: vec![
            ("blocks".into(), blocks),
            ("block_queries".into(), BLOCK.to_string()),
            ("scale".into(), format!("ieee={IEEE_DOCS}")),
            ("partitions".into(), "1".into()),
            ("pool_pages".into(), DEFAULT_POOL_PAGES.to_string()),
            ("threads".into(), "1 reader + 1 writer".into()),
            ("write_rate_docs_per_s".into(), WRITE_RATE.to_string()),
            ("fold_every_docs".into(), FOLD_EVERY.to_string()),
            ("docs_ingested".into(), acked.len().to_string()),
            ("folds".into(), folds.to_string()),
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
            ("host_scaled".into(), "no".into()),
        ],
        spans,
    }
}
