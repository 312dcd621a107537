//! `paper_topk`: the seven Table 1 queries × k ∈ {1, 5, 10, 100}, one
//! closed-loop in-process client, `QueryService::execute` with no result
//! cache, single stores (one partition) with the default 32 MiB pool that
//! holds both collections. Set-up profiles one pass of the mix and
//! reconciles under a budget that covers every list the mix needs, so Auto
//! picks TA or Merge on every query.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trex::corpus::{Collection, PaperQuery, PAPER_QUERIES};
use trex::{PartitionedTrexSystem, QueryRequest, QueryService, Strategy};

use crate::common::*;
use crate::layers::{self, Snap};
use crate::spans::{SpanLog, Tracer};
use crate::util::*;

const KS: [usize; 4] = [1, 5, 10, 100];
/// Generous enough to hold every RPL and ERPL the 28 (query, k) shapes need.
const BUDGET_BYTES: u64 = 1 << 30;
/// Profiled shapes a reconcile considers: all 28.
const MAX_SHAPES: usize = 32;

struct Stores {
    ieee: PartitionedTrexSystem,
    wiki: PartitionedTrexSystem,
    build_s: f64,
    reconcile_ms: f64,
}

impl Stores {
    fn of(&self, c: Collection) -> &PartitionedTrexSystem {
        match c {
            Collection::Ieee => &self.ieee,
            Collection::Wiki => &self.wiki,
        }
    }
}

/// The 28 (query, k) pairs of the mix.
fn pairs() -> Vec<(&'static PaperQuery, usize)> {
    PAPER_QUERIES
        .iter()
        .flat_map(|q| KS.iter().map(move |&k| (q, k)))
        .collect()
}

fn requests_of(pairs: &[(&PaperQuery, usize)], c: Collection) -> Vec<(String, Option<usize>)> {
    pairs
        .iter()
        .filter(|(q, _)| q.collection == c)
        .map(|(q, k)| (q.nexi.to_string(), Some(*k)))
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ieee_docs = ieee_docs();
    let wiki_docs = wiki_docs();
    let input_bytes: u64 = ieee_docs
        .iter()
        .chain(&wiki_docs)
        .map(|d| d.len() as u64)
        .sum();
    let pairs = pairs();
    let scratch = Scratch::create(&ctx.out_dir, "paper_topk");

    let mut list_ids = Vec::new();
    let (stores, setups) = timed_setups(SETUP_REPS, |_| {
        let dir = scratch.subdir("stores");
        let t0 = Instant::now();
        let ieee = build_store(&dir, Collection::Ieee, &ieee_docs, 1, DEFAULT_POOL_PAGES);
        let wiki = build_store(&dir, Collection::Wiki, &wiki_docs, 1, DEFAULT_POOL_PAGES);
        let build_s = t0.elapsed().as_secs_f64();
        let mut stores = Stores {
            ieee,
            wiki,
            build_s,
            reconcile_ms: 0.0,
        };
        // One profiled pass of the mix (Auto runs ERA: no lists yet).
        for (q, k) in &pairs {
            stores
                .of(q.collection)
                .search(q.nexi, Some(*k))
                .expect("profiled pass");
        }
        stores.reconcile_ms = reconcile(&stores.ieee, BUDGET_BYTES, MAX_SHAPES)
            + reconcile(&stores.wiki, BUDGET_BYTES, MAX_SHAPES);
        list_ids.push(format!(
            "{},{}",
            list_set(&stores.ieee).id(),
            list_set(&stores.wiki).id()
        ));
        stores
    });

    let mut failures = Failures::default();
    check_same_lists(&list_ids, &mut failures);
    // ERA references on the same stores (not part of set-up time).
    let reference: Vec<Reference> = pairs
        .iter()
        .map(|(q, k)| {
            answers_of(stores.of(q.collection), q.nexi, Some(*k), Strategy::Era)
                .map(|a| Reference::new(&a))
                .expect("ERA reference")
        })
        .collect();
    let lists = [list_set(&stores.ieee), list_set(&stores.wiki)];

    // Seeded shuffled rounds over the 28 pairs: every pair equally
    // frequent, only the order depends on the seed.
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let services = [
        QueryService::partitioned(stores.ieee.system()),
        QueryService::partitioned(stores.wiki.system()),
    ];
    let mut load = |seconds: f64, traced: bool, failures: &mut Failures| -> (Latencies, Tracer) {
        let mut tracer = ctx.tracer(traced);
        let mut lat = Latencies::default();
        let deadline = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut n = 0u64;
        while started.elapsed() < deadline {
            for pi in shuffled(pairs.len(), &mut rng) {
                let (q, k) = pairs[pi];
                let service = &services[usize::from(q.collection == Collection::Wiki)];
                let request = QueryRequest::new(q.nexi).k(k).trace(traced);
                tracer.begin("service.execute", n);
                let t0 = Instant::now();
                let result = service.execute(&request);
                let d = t0.elapsed();
                if let Some(tr) = result.as_ref().ok().and_then(|r| r.trace.as_ref()) {
                    // The program's own stage timings, as child spans.
                    let s = &tr.stages;
                    tracer.child("nexi.translate", n, Duration::ZERO, s.translate);
                    tracer.child("engine.evaluate", n, s.translate, s.evaluate);
                    tracer.child("engine.rank", n, s.translate + s.evaluate, s.rank);
                }
                tracer.end();
                n += 1;
                match result {
                    Ok(resp) if reference[pi].matches(&resp.answers) => {
                        failures.ok();
                        lat.push(started.elapsed().as_secs_f64(), ms(d));
                    }
                    Ok(_) => failures.fail(
                        "answers differ from ERA reference",
                        format!("query {} k={k}", q.id),
                    ),
                    Err(e) => failures.fail("query error", format!("query {}: {e}", q.id)),
                }
            }
        }
        (lat, tracer)
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
        let mut probe = HostProbe::default();
        let (lat, _) = probed(ctx.seconds, &mut probe, |secs| {
            load(secs, false, &mut failures)
        });
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
        let s0 = [Snap::take(&stores.ieee), Snap::take(&stores.wiki)];
        let (qps_plain, qps_traced, tracers) =
            abba(ctx.seconds, |secs, on| load(secs, on, &mut failures));
        for t in tracers {
            spans.add(t);
        }
        let d = Snap::take(&stores.ieee)
            .since(&s0[0])
            .plus(&Snap::take(&stores.wiki).since(&s0[1]));
        layers::read_path_metrics(&mut metrics, &d);

        let ieee_requests = requests_of(&pairs, Collection::Ieee);
        let plan = layers::Plan {
            cores: ctx.cores,
            serve: (&stores.ieee, None),
            // Three rounds of the IEEE pairs: the first misses the cache.
            serve_requests: rounds(&ieee_requests, 3),
            load_serve: None,
            partition: [Collection::Ieee, Collection::Wiki]
                .into_iter()
                .map(|c| (stores.of(c), rounds(&requests_of(&pairs, c), 3)))
                .collect(),
            strategy: [Collection::Ieee, Collection::Wiki]
                .into_iter()
                .map(|c| {
                    let ps = requests_of(&pairs, c);
                    (
                        stores.of(c),
                        ps.into_iter().map(|(q, k)| (q, k.unwrap_or(10))).collect(),
                    )
                })
                .collect(),
        };
        let mut probe_tracer = ctx.tracer(true);
        layers::probe(&plan, &mut probe_tracer, &mut metrics, &mut failures);
        let held_out = held_out_docs(ctx.seed, PROBE_DOCS);
        let (writer, wd) = write_probe(
            &stores.ieee,
            &held_out,
            &checks,
            &mut probe_tracer,
            &mut failures,
        );
        spans.add(probe_tracer);
        layers::write_path_metrics(&mut metrics, &wd, &writer);
        metrics.put("selfmanage.reconcile_ms", stores.reconcile_ms, "ms");
        metrics.put(
            "selfmanage.lists_kept",
            (lists[0].count + lists[1].count) as f64,
            "count",
        );
        metrics.put(
            "selfmanage.bytes_used",
            (lists[0].bytes + lists[1].bytes) as f64,
            "B",
        );
        metrics.put(
            "build.docs_per_s",
            (IEEE_DOCS + WIKI_DOCS) as f64 / stores.build_s,
            "1/s",
        );
        metrics.put("obs.trace_overhead", ratio(qps_traced, qps_plain), "ratio");
    }

    Outcome {
        metrics,
        failures,
        stamp: [
            vec![
                ("blocks".into(), blocks),
                ("block_queries".into(), BLOCK.to_string()),
                ("scale".into(), format!("ieee={IEEE_DOCS},wiki={WIKI_DOCS}")),
                ("partitions".into(), "1".into()),
                ("pool_pages".into(), DEFAULT_POOL_PAGES.to_string()),
                ("client_threads".into(), "1".into()),
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
