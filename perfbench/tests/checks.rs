//! The output checks catch corrupted results, and both workloads run end
//! to end at tiny scale with every check passing and every metric named
//! in `BENCHMARK.json` reported.

use gg_algorithms::{bellman_ford, bfs, cc, pagerank};
use gg_core::config::{Config, ExecutorKind};
use gg_core::engine::GraphGrind2;
use perfbench::check;
use perfbench::workload::{prepare, Spec};
use perfbench::{run, serve_fused, Options, Oracle};

fn tiny_inputs() -> (perfbench::workload::Inputs, GraphGrind2) {
    let spec = Spec::named("powerlaw", true).unwrap();
    let inputs = prepare(&spec, &spec.graph(3), 3);
    let cfg = Config::for_tests().with_executor(ExecutorKind::Partitioned);
    let engine = GraphGrind2::new(&inputs.el, cfg);
    (inputs, engine)
}

#[test]
fn bfs_check_catches_a_wrong_level_or_parent() {
    let (inputs, engine) = tiny_inputs();
    let r = bfs(&engine, inputs.source);
    assert!(check::bfs_ok(
        &inputs.el,
        inputs.source,
        &r.level,
        &r.parent
    ));
    let reached: Vec<usize> = (0..r.level.len())
        .filter(|&v| r.level[v] != u32::MAX && v != inputs.source as usize)
        .collect();
    let v = reached[reached.len() / 2];
    let mut level = r.level.clone();
    level[v] += 1;
    assert!(!check::bfs_ok(&inputs.el, inputs.source, &level, &r.parent));
    let mut parent = r.parent.clone();
    parent[v] = v as u32;
    assert!(!check::bfs_ok(&inputs.el, inputs.source, &r.level, &parent));
}

#[test]
fn bf_check_catches_a_loose_or_relaxable_distance() {
    let (inputs, engine) = tiny_inputs();
    let r = bellman_ford(&engine, inputs.source);
    assert!(check::bf_ok(&inputs.el, inputs.source, &r.dist));
    let v = (0..r.dist.len())
        .find(|&v| r.dist[v].is_finite() && r.dist[v] > 0.0)
        .unwrap();
    for delta in [-0.5f32, 0.5] {
        let mut dist = r.dist.clone();
        dist[v] += delta;
        assert!(!check::bf_ok(&inputs.el, inputs.source, &dist), "{delta}");
    }
}

#[test]
fn cc_and_pr_checks_catch_one_wrong_value() {
    let (inputs, _) = tiny_inputs();
    let sym = inputs.cc_graph();
    let cfg = Config::for_tests().with_executor(ExecutorKind::Partitioned);
    let engine = GraphGrind2::new(sym, cfg);
    let want = check::min_component_labels(sym);
    let mut label = cc(&engine).label;
    assert!(check::cc_ok(sym, &want, &label));
    let last = label.len() - 1;
    label[last] = label[last].wrapping_add(1);
    assert!(!check::cc_ok(sym, &want, &label));

    let engine = GraphGrind2::new(&inputs.el, Config::for_tests());
    let want = check::pagerank(&inputs.el, perfbench::PR_ITERS);
    let mut rank = pagerank(&engine, perfbench::PR_ITERS);
    assert!(check::pr_ok(&want, &rank));
    rank[7] += 1e-6;
    assert!(!check::pr_ok(&want, &rank));
}

#[test]
fn serve_check_catches_a_wrong_digest() {
    let (inputs, engine) = tiny_inputs();
    let spec = Spec::named("powerlaw", true).unwrap();
    let trace = spec.trace(inputs.el.num_vertices(), 3);
    let oracle = Oracle::new(&inputs, &engine, &trace);
    let mut out = serve_fused(&engine, &trace, spec.max_batch_age);
    assert_eq!(oracle.serve_failures(&trace, &out), 0);
    out.completions[5].digest ^= 1;
    assert_eq!(oracle.serve_failures(&trace, &out), 1);
    out.completions.pop();
    assert_eq!(oracle.serve_failures(&trace, &out), 2);
}

fn declared(kind: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json.find(&format!("\"{kind}\"")).unwrap();
    let end = json[start..].find(']').unwrap() + start;
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn tiny_runs_pass_every_check_and_report_every_metric() {
    for workload in ["powerlaw", "road"] {
        for traced in [false, true] {
            let report = run(&Options {
                spec: Spec::named(workload, true).unwrap(),
                seed: 5,
                seconds: 0.0,
                traced,
            });
            assert!(report.attempted > 0);
            assert_eq!(report.failed, 0, "{workload} traced={traced}");
            let mut names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            let mut want = declared(if traced { "per_layer" } else { "end_to_end" });
            names.sort();
            want.sort();
            assert_eq!(names, want, "{workload} traced={traced}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
