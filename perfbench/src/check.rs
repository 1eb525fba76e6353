//! Output checks computed apart from the program under test.
//!
//! Every check reads only the generated edge list and the result being
//! checked: BFS levels and Bellman-Ford distances are checked against
//! their defining properties edge by edge, CC labels and PageRank
//! against a union-find and a power method written here, and served
//! BFS-distance and reachability queries against an FNV-1a digest of a
//! sequential queue BFS over an adjacency array built here.

use std::collections::VecDeque;

use gg_graph::edge_list::EdgeList;

const UNREACHED: u32 = u32::MAX;

/// BFS levels satisfy `level[v] <= level[u] + 1` on every edge `(u, v)`
/// (so every out-neighbour of a reached vertex is reached), the source is
/// its own parent at level 0, every other reached vertex's parent is an
/// in-neighbour one level up, and unreached vertices have no parent.
pub fn bfs_ok(el: &EdgeList, source: u32, level: &[u32], parent: &[u32]) -> bool {
    let n = el.num_vertices();
    let s = source as usize;
    if level.len() != n || parent.len() != n || level[s] != 0 || parent[s] != source {
        return false;
    }
    let mut parent_edge = vec![false; n];
    for (u, v) in el.iter() {
        let (lu, lv) = (level[u as usize], level[v as usize]);
        if lu == UNREACHED {
            continue;
        }
        if lv == UNREACHED || lv > lu + 1 {
            return false;
        }
        if parent[v as usize] == u && lv == lu + 1 {
            parent_edge[v as usize] = true;
        }
    }
    (0..n).all(|v| {
        v == s
            || (level[v] == UNREACHED && parent[v] == UNREACHED)
            || (level[v] != UNREACHED && parent_edge[v])
    })
}

/// Bellman-Ford distances admit no further relaxation along any edge, the
/// source sits at 0, and every other finite distance is tight on some
/// in-edge (`dist[v] == dist[u] + w(u, v)`, in the same `f32`
/// arithmetic the relaxation uses).
pub fn bf_ok(el: &EdgeList, source: u32, dist: &[f32]) -> bool {
    let n = el.num_vertices();
    if dist.len() != n || dist[source as usize] != 0.0 || dist.iter().any(|d| d.is_nan()) {
        return false;
    }
    let mut tight = vec![false; n];
    for i in 0..el.num_edges() {
        let (u, v) = el.edge(i);
        let du = dist[u as usize];
        if du.is_infinite() {
            continue;
        }
        let cand = du + el.weight(i);
        let dv = dist[v as usize];
        if dv > cand {
            return false;
        }
        if dv == cand {
            tight[v as usize] = true;
        }
    }
    (0..n).all(|v| v == source as usize || dist[v].is_infinite() || tight[v])
}

/// Connected-component labels as each component's minimum vertex id, by
/// union-find over the edges taken as undirected.
pub fn min_component_labels(el: &EdgeList) -> Vec<u32> {
    fn root(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let up = parent[parent[v as usize] as usize];
            parent[v as usize] = up;
            v = up;
        }
        v
    }
    let mut parent: Vec<u32> = (0..el.num_vertices() as u32).collect();
    for (u, v) in el.iter() {
        let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
        // The smaller id becomes the root, so roots are component minima.
        if ru < rv {
            parent[rv as usize] = ru;
        } else if rv < ru {
            parent[ru as usize] = rv;
        }
    }
    (0..el.num_vertices() as u32)
        .map(|v| root(&mut parent, v))
        .collect()
}

/// CC labels agree across every edge and equal the component minima.
pub fn cc_ok(el: &EdgeList, want: &[u32], label: &[u32]) -> bool {
    label == want
        && el
            .iter()
            .all(|(u, v)| label[u as usize] == label[v as usize])
}

/// PageRank by the power method: `iters` iterations, damping 0.85, rank
/// of sinks leaked (the definition the engine implements).
pub fn pagerank(el: &EdgeList, iters: usize) -> Vec<f64> {
    let n = el.num_vertices();
    let deg = el.out_degrees();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.fill(0.0);
        for (u, v) in el.iter() {
            next[v as usize] += rank[u as usize] / f64::from(deg[u as usize].max(1));
        }
        for x in next.iter_mut() {
            *x = 0.15 / n as f64 + 0.85 * *x;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

/// Ranks agree with `want` to a relative 1e-9 of the largest rank: the
/// executors sum in CSC order, the power method above in edge order.
pub fn pr_ok(want: &[f64], got: &[f64]) -> bool {
    let scale = want.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * scale)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit little-endian words.
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Out-adjacency of an edge list, by counting sort.
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Builds the out-adjacency of `el`.
    pub fn new(el: &EdgeList) -> Self {
        let n = el.num_vertices();
        let mut offsets = vec![0usize; n + 1];
        for (u, _) in el.iter() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; el.num_edges()];
        for (u, v) in el.iter() {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        Adjacency { offsets, targets }
    }

    /// Hop distances from `source` by a queue BFS (`u32::MAX` =
    /// unreached).
    pub fn bfs(&self, source: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHED; self.offsets.len() - 1];
        dist[source as usize] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let next = dist[u as usize] + 1;
            for &v in &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]] {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

/// Digest of a served BFS-distance query: FNV-1a over the distance
/// vector, one word per vertex.
pub fn bfs_digest(dist: &[u32]) -> u64 {
    fnv1a(dist.iter().map(|&d| u64::from(d)))
}

/// Digest of a served reachability query: FNV-1a over the reached vertex
/// ids, ascending.
pub fn reach_digest(dist: &[u32]) -> u64 {
    fnv1a(
        dist.iter()
            .enumerate()
            .filter(|(_, &d)| d != UNREACHED)
            .map(|(v, _)| v as u64),
    )
}
