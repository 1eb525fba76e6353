//! Reference figures for the README, never metrics: the host, the
//! workload's sizes and serving settings, set-up cost per edge, Ligra on
//! the same graphs and algorithms (the Figure 9 comparison), the
//! one-query-per-traversal serving baseline at the workload's rate, and
//! the cost of tracing.

use std::time::Instant;

use gg_baselines::Ligra;
use gg_bench::serve::{serve, AdmissionPolicy, CostModel, PprParams, ServeConfig};
use gg_core::config::ExecutorKind;

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{Spans, Timed};
use crate::workload::{config, Spec};
use crate::{build_all, run_algo, serve_fused, ALGO_OPS};

fn cache_size(index: u32) -> String {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    std::fs::read_to_string(path).map_or("?".into(), |s| s.trim().to_string())
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Prints the reference figures of `spec` at `seed`, each timing the
/// median of `reps` interleaved reps.
pub fn print(spec: &Spec, seed: u64, reps: usize) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("## {} (seed {seed})", spec.name);
    println!(
        "host: {threads} threads available, L2 {} per core, L3 {}",
        cache_size(2),
        cache_size(3)
    );
    let base = spec.graph(seed);
    let (inputs, engines, setups) = build_all(spec, &base, seed, false);
    let el = &inputs.el;
    let graphs = 1 + usize::from(inputs.sym.is_some());
    let built_edges = 2 * (el.num_edges() + inputs.sym.as_ref().map_or(0, |s| s.num_edges()));
    let setup = median(&setups.iter().map(|t| t.total).collect::<Vec<_>>());
    println!(
        "graph: {} vertices, {} edges (CC graph {} edges), source {}; partitions {}",
        el.num_vertices(),
        el.num_edges(),
        inputs.cc_graph().num_edges(),
        inputs.source,
        config(el, ExecutorKind::Partitioned).effective_partitions()
    );
    println!(
        "set-up: {setup:.3} s for {} engine builds over {built_edges} edges = {:.2} us/edge",
        2 * graphs,
        setup / built_edges as f64 * 1e6
    );
    println!(
        "serving: {} queries, {} q/s open loop, max batch age {} s, tail p{}",
        spec.queries,
        spec.rate_qps,
        spec.max_batch_age,
        tail_percentile(spec.queries).unwrap_or(100.0)
    );

    // Ligra, GG-v2 monolithic, GG-v2 partitioned, and GG-v2 partitioned
    // traced, reps interleaved round-robin.
    let ligra = Ligra::new(el, threads);
    let ligra_cc = inputs.sym.as_ref().map(|s| Ligra::new(s, threads));
    let spans = Spans::default();
    println!("\n| algorithm | Ligra ms | GG-v2 ms | GG-v2 partitioned ms | traced / untraced (GG-v2, partitioned) |");
    println!("|---|---|---|---|---|");
    for pair in ALGO_OPS.chunks(2) {
        let algo = pair[0].algo;
        let l = if algo == crate::Algo::Cc {
            ligra_cc.as_ref().unwrap_or(&ligra)
        } else {
            &ligra
        };
        let gg = if algo == crate::Algo::Cc {
            engines.cc()
        } else {
            &engines.base
        };
        let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..reps {
            t[0].push(time_ms(|| drop(run_algo(l, algo, inputs.source))));
            t[1].push(time_ms(|| drop(run_algo(&gg.mono, algo, inputs.source))));
            t[2].push(time_ms(|| drop(run_algo(&gg.part, algo, inputs.source))));
            let timed = Timed {
                inner: &gg.part,
                spans: &spans,
            };
            t[3].push(time_ms(|| drop(run_algo(&timed, algo, inputs.source))));
            let timed = Timed {
                inner: &gg.mono,
                spans: &spans,
            };
            t[4].push(time_ms(|| drop(run_algo(&timed, algo, inputs.source))));
        }
        let m: Vec<f64> = t.iter().map(|v| median(v)).collect();
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.3} / {:.3} |",
            pair[0].key,
            m[0],
            m[1],
            m[2],
            m[4] / m[1],
            m[3] / m[2]
        );
    }
    drop(ligra);

    let server = &engines.base.part;
    let trace = spec.trace(el.num_vertices(), seed);
    let tail_p = tail_percentile(trace.len()).unwrap_or(100.0);
    println!(
        "\n| serving at {} q/s | qps | p50 ms | p{tail_p} ms | batches | mean lanes |",
        spec.rate_qps
    );
    println!("|---|---|---|---|---|---|");
    for (mode, policy) in [
        ("fused", AdmissionPolicy::fused(spec.max_batch_age)),
        ("one query per traversal", AdmissionPolicy::baseline()),
    ] {
        let mut rows = Vec::new();
        for _ in 0..reps.min(3) {
            let out = if mode == "fused" {
                serve_fused(server, &trace, spec.max_batch_age)
            } else {
                serve(
                    server,
                    &trace,
                    &ServeConfig {
                        policy,
                        cost: CostModel::Measured,
                        ppr: PprParams::default(),
                        check_oracle: false,
                    },
                )
            };
            let lat: Vec<f64> = out.completions.iter().map(|c| c.latency() * 1e3).collect();
            rows.push([
                out.qps(),
                percentile(&lat, 50.0),
                percentile(&lat, tail_p),
                out.batches as f64,
                out.mean_lane_occupancy,
            ]);
        }
        let col = |i: usize| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>());
        println!(
            "| {mode} | {:.1} | {:.1} | {:.1} | {} | {:.1} |",
            col(0),
            col(1),
            col(2),
            col(3),
            col(4)
        );
    }
    println!();
}
