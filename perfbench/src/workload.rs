//! The two workloads: their graphs, query traces and engines.

use std::time::Instant;

use gg_bench::serve::{arrival_trace, Query, QueryKind};
use gg_core::config::{Config, ExecutorKind};
use gg_core::engine::GraphGrind2;
use gg_core::heuristic::{suggest_partitions, HeuristicInputs};
use gg_core::store::GraphStore;
use gg_graph::edge_list::EdgeList;
use gg_graph::generators::grid_road;
use gg_graph::ops::symmetrize;
use gg_graph::weights::attach_integer;

/// Graph family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `gg_bench::datasets::powerlaw_scenario`: skewed Chung–Lu graph
    /// with 16 star hubs, directed.
    Powerlaw,
    /// The USAroad stand-in: a symmetric grid with 5 % diagonals.
    Road,
}

/// Everything that defines a workload apart from its seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Graph family.
    pub shape: Shape,
    /// Size knob: `powerlaw_scenario` scale, or grid vertices for `road`.
    pub scale: f64,
    /// Open-loop arrival rate of the serving trace (queries per second).
    pub rate_qps: f64,
    /// Admission policy's max batch age (seconds).
    pub max_batch_age: f64,
    /// Queries per serving trace (burst and open loop alike).
    pub queries: usize,
    /// Times set-up is repeated within a run; `setup_s` is the median.
    pub setup_builds: usize,
    /// Reps per round of BFS, PR, CC and BF, each on both executors: cheap
    /// operations repeat more so every median rests on enough reps. A
    /// round also serves one burst and one trace.
    pub algo_reps: [usize; 4],
}

impl Spec {
    /// The named workload at full size, or at tiny size for smoke tests.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let spec = match name {
            "powerlaw" => Spec {
                name: "powerlaw",
                shape: Shape::Powerlaw,
                scale: 2.0,
                rate_qps: 30.0,
                max_batch_age: 1.0,
                queries: 300,
                setup_builds: 1,
                algo_reps: [4, 2, 4, 4],
            },
            "road" => Spec {
                name: "road",
                shape: Shape::Road,
                scale: 25_000.0,
                rate_qps: 25.0,
                max_batch_age: 2.0,
                queries: 300,
                setup_builds: 3,
                algo_reps: [8, 8, 4, 4],
            },
            _ => return None,
        };
        Some(if tiny { spec.tiny() } else { spec })
    }

    fn tiny(self) -> Spec {
        Spec {
            scale: match self.shape {
                Shape::Powerlaw => 0.02,
                Shape::Road => 900.0,
            },
            queries: 48,
            setup_builds: 1,
            algo_reps: [1; 4],
            ..self
        }
    }

    /// The workload's unweighted base graph for `seed`.
    pub fn graph(&self, seed: u64) -> EdgeList {
        match self.shape {
            Shape::Powerlaw => gg_bench::datasets::powerlaw_scenario(self.scale, 2.0, 16, seed),
            Shape::Road => {
                let side = (self.scale.sqrt() as usize).max(8);
                grid_road(side, side, 0.05, seed)
            }
        }
    }

    /// The serving burst: the first 64 queries of each kind in `trace`
    /// (one full fused batch per kind), all due at t = 0.
    pub fn burst(trace: &[Query]) -> Vec<Query> {
        QueryKind::ALL
            .iter()
            .flat_map(|&k| trace.iter().filter(move |q| q.kind == k).take(64))
            .map(|q| Query { arrival: 0.0, ..*q })
            .collect()
    }

    /// The serving trace for `seed`: `queries` queries of the three kinds
    /// with uniform sources, arriving open-loop at `rate_qps`.
    pub fn trace(&self, num_vertices: usize, seed: u64) -> Vec<Query> {
        arrival_trace(
            self.queries,
            num_vertices,
            self.rate_qps,
            seed ^ 0x5E27E,
            &QueryKind::ALL,
        )
    }
}

/// The prepared inputs: the weighted directed graph every algorithm but
/// CC runs on (BFS and PR ignore the weights), and the symmetric graph CC
/// runs on when the base graph is directed.
pub struct Inputs {
    /// Base graph with integer weights 1..=16 attached.
    pub el: EdgeList,
    /// Symmetrized base graph (`None` when the base is symmetric).
    pub sym: Option<EdgeList>,
    /// Max-out-degree vertex (ties: nearest the middle id): the BFS and BF
    /// source.
    pub source: u32,
}

impl Inputs {
    /// The graph CC runs on.
    pub fn cc_graph(&self) -> &EdgeList {
        self.sym.as_ref().unwrap_or(&self.el)
    }
}

/// Attaches weights and, for directed graphs, symmetrizes.
pub fn prepare(spec: &Spec, base: &EdgeList, seed: u64) -> Inputs {
    let mut el = base.clone();
    attach_integer(&mut el, 16, seed ^ 0xB0F);
    let sym = (spec.shape == Shape::Powerlaw).then(|| symmetrize(base));
    // Ties between max-out-degree vertices go to the one nearest the
    // middle id: on the grid that is near its centre, so the BFS and BF
    // depth from the source varies little from seed to seed.
    let deg = el.out_degrees();
    let mid = deg.len() as i64 / 2;
    let source = (0..deg.len() as u32)
        .max_by_key(|&v| {
            (
                deg[v as usize],
                std::cmp::Reverse((i64::from(v) - mid).abs()),
                v,
            )
        })
        .unwrap_or(0);
    Inputs { el, sym, source }
}

/// An engine pair over one graph: GG-v2 with the default monolithic
/// executor (the paper's Algorithm 2) and with the partitioned executor.
pub struct Pair {
    /// Monolithic executor.
    pub mono: GraphGrind2,
    /// Partitioned executor.
    pub part: GraphGrind2,
}

/// Every engine a workload uses.
pub struct Engines {
    /// Over the weighted base graph (BFS, PR, BF, and serving on `part`).
    pub base: Pair,
    /// Over the symmetric graph, when it differs from the base.
    pub sym: Option<Pair>,
}

impl Engines {
    /// The pair CC runs on.
    pub fn cc(&self) -> &Pair {
        self.sym.as_ref().unwrap_or(&self.base)
    }
}

/// The engine configuration the program chooses for `el`: `Config`
/// defaults, with the partition count from `heuristic::suggest_partitions`
/// as `repro fig9` does.
pub fn config(el: &EdgeList, executor: ExecutorKind) -> Config {
    let defaults = Config::default();
    let p = suggest_partitions(&HeuristicInputs::new(
        el.num_vertices(),
        el.num_edges(),
        defaults.threads,
        defaults.numa,
    ));
    Config {
        num_partitions: p,
        executor,
        ..defaults
    }
}

/// Set-up time split by layer, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Weights and symmetrize (`gg_graph`).
    pub prep: f64,
    /// `GraphStore::build`, summed over engines (traced set-up only).
    pub store: f64,
    /// `GraphGrind2::new` minus its store build (traced set-up only).
    pub engine: f64,
    /// Whole set-up.
    pub total: f64,
}

fn build(el: &EdgeList, executor: ExecutorKind, traced: Option<&mut SetupTimes>) -> GraphGrind2 {
    let cfg = config(el, executor);
    let Some(times) = traced else {
        return GraphGrind2::new(el, cfg);
    };
    // The store build on its own, with the flag `GraphGrind2::new` sets
    // for the partitioned executor, then the whole engine.
    let mut store_cfg = cfg.clone();
    store_cfg.build_partitioned_csr |= executor == ExecutorKind::Partitioned;
    let t = Instant::now();
    drop(std::hint::black_box(GraphStore::build(el, &store_cfg)));
    let store = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = GraphGrind2::new(el, cfg);
    times.store += store;
    times.engine += t.elapsed().as_secs_f64() - store;
    engine
}

fn pair(el: &EdgeList, mut traced: Option<&mut SetupTimes>) -> Pair {
    Pair {
        mono: build(el, ExecutorKind::Monolithic, traced.as_deref_mut()),
        part: build(el, ExecutorKind::Partitioned, traced),
    }
}

/// Prepares the inputs and builds every engine from the base graph. When
/// `traced`, the split by layer is timed too, which builds each store
/// twice, so `total` then overstates the untraced set-up.
pub fn setup(
    spec: &Spec,
    base: &EdgeList,
    seed: u64,
    traced: bool,
) -> (Inputs, Engines, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let inputs = prepare(spec, base, seed);
    times.prep = t0.elapsed().as_secs_f64();
    let mut split = traced.then_some(&mut times);
    let base_pair = pair(&inputs.el, split.as_deref_mut());
    let sym = inputs.sym.as_ref().map(|s| pair(s, split));
    times.total = t0.elapsed().as_secs_f64();
    (
        inputs,
        Engines {
            base: base_pair,
            sym,
        },
        times,
    )
}
