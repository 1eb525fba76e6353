//! End-to-end and per-layer benchmark of GraphGrind-rs.
//!
//! One run generates a workload's graph and query trace from a seed,
//! builds its engines, then for a fixed wall-clock budget repeats whole
//! rounds of the same operations, each rep checked against a computation
//! made here (see [`check`]):
//!
//! * BFS, PageRank (10 iterations), CC and Bellman-Ford on GG-v2 with
//!   the monolithic executor and with the partitioned executor;
//! * query serving over the fused engine: a burst with every query due at
//!   t = 0, and an open-loop trace at the workload's fixed arrival rate.
//!
//! Reps of every operation are interleaved round-robin over the whole
//! run, so each median samples the same host conditions. With `traced`,
//! the same rounds run with every engine wrapped in [`trace::Timed`] and
//! the per-layer metrics are reported instead.

pub mod check;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gg_algorithms::{bellman_ford, bfs, cc, pagerank};
use gg_bench::serve::{
    serve, standalone_digest, AdmissionPolicy, CostModel, PprParams, Query, QueryKind, ServeConfig,
    ServeOutcome,
};
use gg_core::engine::{Engine, GraphGrind2};
use gg_graph::edge_list::EdgeList;

use stats::{median, percentile, tail_percentile};
use trace::{Spans, Timed, EDGE_MAP, VERTEX_MAP};
use workload::{Engines, Inputs, Spec};

/// PageRank iterations per run.
pub const PR_ITERS: usize = 10;

/// The analytics algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Breadth-first search from the max-out-degree vertex.
    Bfs,
    /// PageRank, [`PR_ITERS`] iterations.
    Pr,
    /// Connected components on the symmetric graph.
    Cc,
    /// Bellman-Ford from the max-out-degree vertex.
    Bf,
}

/// One timed analytics operation: an algorithm on one executor.
#[derive(Clone, Copy, Debug)]
pub struct AlgoOp {
    /// The algorithm.
    pub algo: Algo,
    /// On the partitioned executor (else the monolithic one).
    pub partitioned: bool,
    /// Metric key: `bfs`, `bfs_part`, ….
    pub key: &'static str,
}

/// The eight analytics operations, in round order.
pub const ALGO_OPS: [AlgoOp; 8] = [
    op(Algo::Bfs, false, "bfs"),
    op(Algo::Bfs, true, "bfs_part"),
    op(Algo::Pr, false, "pr"),
    op(Algo::Pr, true, "pr_part"),
    op(Algo::Cc, false, "cc"),
    op(Algo::Cc, true, "cc_part"),
    op(Algo::Bf, false, "bf"),
    op(Algo::Bf, true, "bf_part"),
];

const fn op(algo: Algo, partitioned: bool, key: &'static str) -> AlgoOp {
    AlgoOp {
        algo,
        partitioned,
        key,
    }
}

/// What an analytics run returned.
pub enum Output {
    /// BFS `(level, parent)`.
    Bfs(Vec<u32>, Vec<u32>),
    /// PageRank ranks.
    Pr(Vec<f64>),
    /// CC labels.
    Cc(Vec<u32>),
    /// Bellman-Ford distances.
    Bf(Vec<f32>),
}

/// Runs `algo` once on `engine`.
pub fn run_algo<E: Engine>(engine: &E, algo: Algo, source: u32) -> Output {
    match algo {
        Algo::Bfs => {
            let r = bfs(engine, source);
            Output::Bfs(r.level, r.parent)
        }
        Algo::Pr => Output::Pr(pagerank(engine, PR_ITERS)),
        Algo::Cc => Output::Cc(cc(engine).label),
        Algo::Bf => Output::Bf(bellman_ford(engine, source).dist),
    }
}

/// The independent expectations one run checks against, computed once.
pub struct Oracle {
    /// Power-method PageRank of the base graph.
    pub pr: Vec<f64>,
    /// Component minima of the CC graph.
    pub cc: Vec<u32>,
    /// Expected digest per served `(kind, source)`.
    pub digests: HashMap<(QueryKind, u32), u64>,
}

impl Oracle {
    /// Computes every expectation for `inputs` and the queries of
    /// `trace`. BFS-distance and reachability digests come from a
    /// sequential BFS over the edge list; PPR digests from standalone
    /// K = 1 runs on `engine`.
    pub fn new(inputs: &Inputs, engine: &GraphGrind2, trace: &[Query]) -> Oracle {
        let adj = check::Adjacency::new(&inputs.el);
        let ppr = PprParams::default();
        let mut digests = HashMap::new();
        for q in trace {
            digests
                .entry((q.kind, q.source))
                .or_insert_with(|| match q.kind {
                    QueryKind::BfsDist => check::bfs_digest(&adj.bfs(q.source)),
                    QueryKind::Reach => check::reach_digest(&adj.bfs(q.source)),
                    QueryKind::Ppr => standalone_digest(engine, q.kind, q.source, &ppr),
                });
        }
        Oracle {
            pr: check::pagerank(&inputs.el, PR_ITERS),
            cc: check::min_component_labels(inputs.cc_graph()),
            digests,
        }
    }

    /// Whether `out` is a correct result of `algo` on `inputs`.
    pub fn algo_ok(&self, inputs: &Inputs, algo: Algo, out: &Output) -> bool {
        match (algo, out) {
            (Algo::Bfs, Output::Bfs(level, parent)) => {
                check::bfs_ok(&inputs.el, inputs.source, level, parent)
            }
            (Algo::Pr, Output::Pr(rank)) => check::pr_ok(&self.pr, rank),
            (Algo::Cc, Output::Cc(label)) => check::cc_ok(inputs.cc_graph(), &self.cc, label),
            (Algo::Bf, Output::Bf(dist)) => check::bf_ok(&inputs.el, inputs.source, dist),
            _ => false,
        }
    }

    /// Served queries whose digest differs from the expectation, plus
    /// queries that were never completed.
    pub fn serve_failures(&self, trace: &[Query], out: &ServeOutcome) -> u64 {
        let wrong = out
            .completions
            .iter()
            .filter(|c| self.digests.get(&(c.kind, c.source)) != Some(&c.digest))
            .count();
        (wrong + trace.len().saturating_sub(out.completions.len())) as u64
    }
}

/// Serves `trace` with fused admission at the workload's batch age, on
/// the measured clock.
pub fn serve_fused(engine: &GraphGrind2, trace: &[Query], max_batch_age: f64) -> ServeOutcome {
    serve(
        engine,
        trace,
        &ServeConfig {
            policy: AdmissionPolicy::fused(max_batch_age),
            cost: CostModel::Measured,
            ppr: PprParams::default(),
            check_oracle: false,
        },
    )
}

/// One metric of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (analytics runs plus served queries).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// A metric that could not be measured (not finite) is written as -1
    /// and makes the run incorrect.
    pub fn json(&self) -> String {
        let measured = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && measured,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counter readings taken around one traced analytics run.
#[derive(Clone, Copy, Debug, Default)]
struct Layers {
    run_ms: f64,
    edge_map_ms: f64,
    vertex_map_ms: f64,
    rounds: f64,
    dense_rounds: f64,
    edges: f64,
    merge_words: f64,
    hub_subchunks: f64,
    steals: f64,
    pool_epochs: f64,
}

/// Dense kernel selections so far: per edge map on the monolithic path,
/// per partition per edge map on the partitioned one.
fn dense_selections(e: &GraphGrind2) -> u64 {
    e.kernel_counts().snapshot().2 + e.kernel_counts().partition_snapshot().1
}

/// Runs `op` once on its engine; returns the output and, when traced
/// into `spans`, the per-layer readings.
fn run_op(
    engines: &Engines,
    inputs: &Inputs,
    op: AlgoOp,
    spans: Option<&Spans>,
) -> (Output, Layers) {
    let pair = if op.algo == Algo::Cc {
        engines.cc()
    } else {
        &engines.base
    };
    let engine = if op.partitioned {
        &pair.part
    } else {
        &pair.mono
    };
    let Some(spans) = spans else {
        return (run_algo(engine, op.algo, inputs.source), Layers::default());
    };
    let work = engine.work_counters().snapshot();
    let dense = dense_selections(engine);
    let epochs = engine.pool().epochs();
    let timed = Timed {
        inner: engine,
        spans,
    };
    let (out, id) = spans.span(op.key, || run_algo(&timed, op.algo, inputs.source));
    let work = engine.work_counters().snapshot().delta_since(&work);
    let (run, children) = spans.with_children(id);
    let child = |name: &str| {
        children
            .iter()
            .find(|c| c.name == name)
            .map_or((0.0, 0.0), |c| (c.calls as f64, c.ns as f64 / 1e6))
    };
    let layers = Layers {
        run_ms: run.ns() as f64 / 1e6,
        edge_map_ms: child(EDGE_MAP).1,
        vertex_map_ms: child(VERTEX_MAP).1,
        rounds: child(EDGE_MAP).0,
        dense_rounds: (dense_selections(engine) - dense) as f64,
        edges: work.edges as f64,
        merge_words: work.merge_words as f64,
        hub_subchunks: work.hub_subchunks as f64,
        steals: work.steals as f64,
        pool_epochs: (engine.pool().epochs() - epochs) as f64,
    };
    (out, layers)
}

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Seed of the graph, weights and query trace.
    pub seed: u64,
    /// Measuring budget: rounds repeat until this much time has passed.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub traced: bool,
}

/// Per-rep readings of one serving trace.
#[derive(Clone, Copy, Debug, Default)]
struct ServeLayers {
    queue_ms: f64,
    service_ms: f64,
    batches: f64,
    mean_lanes: f64,
    batch_rounds: f64,
    lanes_retired_early: f64,
    fused_lanes: f64,
    lane_union_words: f64,
}

impl ServeLayers {
    fn read(out: &ServeOutcome, engine: &GraphGrind2) -> Self {
        let waits: Vec<f64> = out
            .completions
            .iter()
            .map(|c| (c.dispatched - c.arrival) * 1e3)
            .collect();
        let service: Vec<f64> = out
            .completions
            .iter()
            .map(|c| (c.completed - c.dispatched) * 1e3)
            .collect();
        // `serve` resets the engine's counters on entry, so they now hold
        // exactly this trace's work.
        let c = engine.work_counters();
        ServeLayers {
            queue_ms: percentile(&waits, 50.0),
            service_ms: percentile(&service, 50.0),
            batches: out.batches as f64,
            mean_lanes: out.mean_lane_occupancy,
            batch_rounds: out.batch_rounds as f64,
            lanes_retired_early: out.lanes_retired_early as f64,
            fused_lanes: c.fused_lanes() as f64,
            lane_union_words: c.lane_union_words() as f64,
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Builds the workload's engines `spec.setup_builds` times (keeping the
/// last) and returns them with every build's timings.
pub fn build_all(
    spec: &Spec,
    base: &EdgeList,
    seed: u64,
    traced: bool,
) -> (Inputs, Engines, Vec<workload::SetupTimes>) {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..spec.setup_builds.max(1) {
        // Drop the previous engines first: peak memory is one set.
        drop(built.take());
        let (inputs, engines, t) = workload::setup(spec, base, seed, traced);
        times.push(t);
        built = Some((inputs, engines));
    }
    let (inputs, engines) = built.expect("at least one build");
    (inputs, engines, times)
}

/// One whole run: set-up, oracle, then interleaved rounds for
/// `opts.seconds`.
pub fn run(opts: &Options) -> Report {
    let spec = &opts.spec;
    let base = spec.graph(opts.seed);
    let spans = opts.traced.then(Spans::default);
    let (inputs, engines, setups) = build_all(spec, &base, opts.seed, opts.traced);
    let server = &engines.base.part;
    let trace = spec.trace(inputs.el.num_vertices(), opts.seed);
    let burst = Spec::burst(&trace);
    let tail_p = tail_percentile(trace.len()).unwrap_or(100.0);
    let t = Instant::now();
    let oracle = Oracle::new(&inputs, server, &trace);
    eprintln!(
        "perfbench: {} seed {}: {} vertices, {} edges; set-up {:.2} s x {}; oracle {:.2} s",
        spec.name,
        opts.seed,
        inputs.el.num_vertices(),
        inputs.el.num_edges(),
        setups[0].total,
        setups.len(),
        t.elapsed().as_secs_f64()
    );

    // Warm-up: lazy pool spawn, first-touch page faults.
    for op in ALGO_OPS {
        run_op(&engines, &inputs, op, None);
    }

    let mut report = Report::default();
    let mut layers: Vec<Vec<Layers>> = vec![Vec::new(); ALGO_OPS.len()];
    let (mut qps, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    let mut serve_layers = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    loop {
        for r in 0..spec.algo_reps.iter().copied().max().unwrap_or(1) {
            for (i, op) in ALGO_OPS.iter().enumerate() {
                if r >= spec.algo_reps[op.algo as usize] {
                    continue;
                }
                let (out, l) = run_op(&engines, &inputs, *op, spans.as_ref());
                report.attempted += 1;
                if !oracle.algo_ok(&inputs, op.algo, &out) {
                    report.failed += 1;
                }
                layers[i].push(l);
            }
        }
        let serve_span = |name: &'static str, queries: &[Query]| match &spans {
            Some(s) => {
                s.span(name, || serve_fused(server, queries, spec.max_batch_age))
                    .0
            }
            None => serve_fused(server, queries, spec.max_batch_age),
        };
        let out = serve_span("serve.burst", &burst);
        report.attempted += burst.len() as u64;
        report.failed += oracle.serve_failures(&burst, &out);
        qps.push(out.qps());
        let out = serve_span("serve.trace", &trace);
        report.attempted += trace.len() as u64;
        report.failed += oracle.serve_failures(&trace, &out);
        p50.push(out.latency_percentile(50.0) * 1e3);
        tail.push(out.latency_percentile(tail_p) * 1e3);
        serve_layers.push(ServeLayers::read(&out, server));
        if start.elapsed() >= budget {
            break;
        }
    }
    let rounds = qps.len();
    eprintln!(
        "perfbench: {} seed {}: {} rounds in {:.1} s; tail percentile p{tail_p} of {} queries",
        spec.name,
        opts.seed,
        rounds,
        start.elapsed().as_secs_f64(),
        trace.len()
    );

    // Analytics times and burst throughput are per-layer metrics: their
    // per-run medians swing by more than a quarter between runs on the
    // shared two-vCPU host the bounds were set on (see the README).
    let Some(spans) = spans else {
        let totals: Vec<f64> = setups.iter().map(|t| t.total).collect();
        report.push("setup_s", median(&totals), "s");
        report.push("rss_mib", peak_rss_mib(), "MiB");
        report.push("serve.p50_ms", median(&p50), "ms");
        report.push("serve.tail_ms", median(&tail), "ms");
        return report;
    };

    let med = |f: &dyn Fn(&workload::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<f64>>())
    };
    report.push("setup.prep_s", med(&|t| t.prep), "s");
    report.push("setup.store_s", med(&|t| t.store), "s");
    report.push("setup.engine_s", med(&|t| t.engine), "s");
    for (op, reps) in ALGO_OPS.iter().zip(&layers) {
        let m = |f: &dyn Fn(&Layers) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
        let k = op.key;
        report.push(format!("{k}_ms"), m(&|l| l.run_ms), "ms");
        report.push(format!("{k}.rounds"), m(&|l| l.rounds), "count");
        report.push(format!("{k}.edge_map_ms"), m(&|l| l.edge_map_ms), "ms");
        report.push(
            format!("{k}.medges_per_s"),
            m(&|l| l.edges / l.edge_map_ms.max(1e-9) / 1e3),
            "Medge/s",
        );
        report.push(format!("{k}.dense_rounds"), m(&|l| l.dense_rounds), "count");
        report.push(format!("{k}.vertex_map_ms"), m(&|l| l.vertex_map_ms), "ms");
        report.push(
            format!("{k}.algo_self_ms"),
            m(&|l| l.run_ms - l.edge_map_ms - l.vertex_map_ms),
            "ms",
        );
        report.push(format!("{k}.edges"), m(&|l| l.edges), "count");
        report.push(format!("{k}.merge_words"), m(&|l| l.merge_words), "count");
        report.push(
            format!("{k}.hub_subchunks"),
            m(&|l| l.hub_subchunks),
            "count",
        );
        report.push(format!("{k}.steals"), m(&|l| l.steals), "count");
        report.push(format!("{k}.pool_epochs"), m(&|l| l.pool_epochs), "count");
    }
    let s =
        |f: &dyn Fn(&ServeLayers) -> f64| median(&serve_layers.iter().map(f).collect::<Vec<f64>>());
    report.push("serve_qps", median(&qps), "q/s");
    report.push("serve.queue_ms", s(&|l| l.queue_ms), "ms");
    report.push("serve.service_ms", s(&|l| l.service_ms), "ms");
    report.push("serve.batches", s(&|l| l.batches), "count");
    report.push("serve.mean_lanes", s(&|l| l.mean_lanes), "lanes");
    report.push("serve.batch_rounds", s(&|l| l.batch_rounds), "count");
    report.push(
        "serve.lanes_retired_early",
        s(&|l| l.lanes_retired_early),
        "count",
    );
    report.push("serve.fused_lanes", s(&|l| l.fused_lanes), "count");
    report.push(
        "serve.lane_union_words",
        s(&|l| l.lane_union_words),
        "count",
    );
    write_spans(spec.name, opts.seed, &spans);
    report
}

/// Writes the traced run's spans to `out/spans-<workload>-<seed>.jsonl`
/// in the benchmark's directory.
fn write_spans(workload: &str, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
