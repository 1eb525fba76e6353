//! Spans recorded from outside the program: a delegating [`Engine`] that
//! times every edge map and vertex map it forwards, and a span log kept
//! in memory until the run ends.
//!
//! `gg_algorithms` is generic over [`Engine`], so wrapping an engine in
//! [`Timed`] attributes an algorithm run's wall time to the engine calls
//! it makes; what the calls do not cover is the algorithm's self time.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::{EdgeMapSpec, Engine};
use gg_core::frontier::Frontier;
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::pool::Pool;

/// One timed interval: `name`, start and end in nanoseconds since the log
/// was created, and the index of the enclosing span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Direct children of one span with the same name, summed.
#[derive(Clone, Copy, Debug)]
pub struct ChildSum {
    /// Child span name.
    pub name: &'static str,
    /// How many there were.
    pub calls: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An in-memory span log. Spans nest by call order: a span started while
/// another is open is its child.
pub struct Spans {
    origin: Instant,
    log: Mutex<Log>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            log: Mutex::new(Log::default()),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("span log poisoned by a panicking span")
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = {
            let mut log = self.log();
            let parent = log.open.last().copied();
            let start_ns = self.now_ns();
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let id = log.spans.len() - 1;
            log.open.push(id);
            id
        };
        let r = f();
        let mut log = self.log();
        log.open.pop();
        log.spans[id].end_ns = self.now_ns();
        (r, id)
    }

    /// Span `id` and, per child name, the number of direct children and
    /// their summed duration in nanoseconds.
    pub fn with_children(&self, id: usize) -> (Span, Vec<ChildSum>) {
        let log = self.log();
        let mut sums: Vec<ChildSum> = Vec::new();
        // Children start after their parent, so they follow it in the log.
        for s in log.spans[id + 1..].iter().filter(|s| s.parent == Some(id)) {
            match sums.iter_mut().find(|c| c.name == s.name) {
                Some(c) => {
                    c.calls += 1;
                    c.ns += s.ns();
                }
                None => sums.push(ChildSum {
                    name: s.name,
                    calls: 1,
                    ns: s.ns(),
                }),
            }
        }
        (log.spans[id], sums)
    }

    /// Number of spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.log().spans.len()
    }

    /// Writes every span as one JSON object per line:
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"parent":…}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.log().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Span names the [`Timed`] engine records.
pub const EDGE_MAP: &str = "edge_map";
/// See [`EDGE_MAP`].
pub const VERTEX_MAP: &str = "vertex_map";

/// An [`Engine`] that forwards every call to `inner`, timing edge maps
/// (both the exclusive and the reduce entry point) and vertex maps as
/// spans.
pub struct Timed<'a, E> {
    /// The engine doing the work.
    pub inner: &'a E,
    /// Where the spans go.
    pub spans: &'a Spans,
}

impl<E: Engine> Engine for Timed<'_, E> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn out_degrees(&self) -> &[u32] {
        self.inner.out_degrees()
    }

    fn pool(&self) -> &Pool {
        self.inner.pool()
    }

    fn work_counters(&self) -> &WorkCounters {
        self.inner.work_counters()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier {
        self.spans
            .span(EDGE_MAP, || self.inner.edge_map(frontier, op, spec))
            .0
    }

    fn edge_map_reduce<O: EdgeMapReduce>(
        &self,
        frontier: &Frontier,
        op: &O,
        spec: EdgeMapSpec,
    ) -> Frontier {
        self.spans
            .span(EDGE_MAP, || self.inner.edge_map_reduce(frontier, op, spec))
            .0
    }

    fn vertex_map_all<F: Fn(VertexId) + Sync>(&self, f: F) {
        self.spans.span(VERTEX_MAP, || self.inner.vertex_map_all(f));
    }

    fn vertex_map<F: Fn(VertexId) + Sync>(&self, frontier: &Frontier, f: F) {
        self.spans
            .span(VERTEX_MAP, || self.inner.vertex_map(frontier, f));
    }
}
