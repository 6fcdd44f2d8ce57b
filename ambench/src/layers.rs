//! The traced replay: one program at a time through the public call of
//! each layer, in the order the engine makes them, each call under an
//! `am-trace` span tagged with the request id. Spans are recorded here, in
//! the benchmark, so the programs under test run exactly as in the
//! untraced run.

use std::sync::Arc;
use std::time::Duration;

use am_core::flush::final_flush;
use am_core::init::initialize;
use am_core::motion::assignment_motion;
use am_ir::alpha::{canonical_text, stable_hash};
use am_lang::{compile_source, SourceKind};
use am_trace::{Collector, Event, Tracer};

use crate::alloc::allocated_bytes;

/// Per-layer totals over every replayed request.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// `am_lang::compile_source`.
    pub parse: Duration,
    /// `am_ir::alpha::stable_hash` (the cache key).
    pub hash: Duration,
    /// `FlowGraph::split_critical_edges`.
    pub split: Duration,
    /// `am_core::init::initialize`.
    pub init: Duration,
    /// `am_core::motion::assignment_motion`.
    pub motion: Duration,
    /// `am_core::flush::final_flush`.
    pub flush: Duration,
    /// `am_ir::alpha::canonical_text` (the encoder).
    pub encode: Duration,
    /// Bytes allocated inside `compile_source`.
    pub parse_alloc: u64,
    /// Bytes allocated inside `assignment_motion`.
    pub motion_alloc: u64,
    /// Bytes allocated inside `final_flush`.
    pub flush_alloc: u64,
    /// Bytes of encoded output.
    pub out_bytes: u64,
    /// Motion rounds, summed.
    pub rounds: u64,
    /// Motion solver worklist pushes (`MotionStats::worklist_pushes`).
    pub motion_pushes: u64,
    /// Flush solver worklist pushes (`FlushStats::worklist_pushes`).
    pub flush_pushes: u64,
    /// Program points of the inputs (one per instruction, one per empty
    /// block), the denominator of pushes per point.
    pub points: u64,
    /// Requests that ran the whole chain.
    pub optimized: u64,
}

impl Totals {
    /// Time in every layer span.
    pub fn attributed(&self) -> Duration {
        self.parse + self.hash + self.optimize() + self.encode
    }

    /// Split, init, motion and flush: the optimizer proper.
    pub fn optimize(&self) -> Duration {
        self.split + self.init + self.motion + self.flush
    }
}

/// A tracer with an in-memory collector plus the running totals.
pub struct Replay {
    tracer: Tracer,
    collector: Arc<Collector>,
    /// What the spans measured so far.
    pub totals: Totals,
}

impl Default for Replay {
    fn default() -> Self {
        let (tracer, collector) = Tracer::collector();
        Replay {
            tracer,
            collector,
            totals: Totals::default(),
        }
    }
}

/// Runs `f` under a span `cat/name` carrying the request id; returns its
/// result, duration and the bytes it allocated.
fn timed<T>(
    tracer: &Tracer,
    cat: &str,
    name: &str,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration, u64) {
    let mut span = tracer.span(cat, name);
    span.arg("req", req as i64);
    let before = allocated_bytes();
    let out = f();
    let alloc = allocated_bytes() - before;
    span.arg("alloc_bytes", alloc as i64);
    (out, span.end(), alloc)
}

impl Replay {
    /// The whole chain on one IR text: parse, hash, split, init, motion,
    /// flush, encode. Returns the encoded output.
    pub fn optimize(&mut self, req: u64, text: &str) -> Result<String, String> {
        let tracer = self.tracer.clone();
        let t = &mut self.totals;
        let (graph, d, alloc) = timed(&tracer, "lang", "compile_source", req, || {
            compile_source(SourceKind::Ir, text)
        });
        t.parse += d;
        t.parse_alloc += alloc;
        let mut g = graph.map_err(|e| e.to_string())?;
        let (_, d, _) = timed(&tracer, "ir", "stable_hash", req, || stable_hash(&g));
        t.hash += d;
        t.points += g
            .nodes()
            .map(|n| g.block(n).len().max(1) as u64)
            .sum::<u64>();
        let (_, d, _) = timed(&tracer, "ir", "split_critical_edges", req, || {
            g.split_critical_edges()
        });
        t.split += d;
        let (_, d, _) = timed(&tracer, "core", "initialize", req, || initialize(&mut g));
        t.init += d;
        let (motion, d, alloc) = timed(&tracer, "core", "assignment_motion", req, || {
            assignment_motion(&mut g)
        });
        t.motion += d;
        t.motion_alloc += alloc;
        let (flush, d, alloc) = timed(&tracer, "core", "final_flush", req, || final_flush(&mut g));
        t.flush += d;
        t.flush_alloc += alloc;
        let (out, d, _) = timed(&tracer, "ir", "canonical_text", req, || canonical_text(&g));
        t.encode += d;
        t.out_bytes += out.len() as u64;
        t.rounds += motion.rounds as u64;
        t.motion_pushes += motion.worklist_pushes;
        t.flush_pushes += flush.worklist_pushes;
        t.optimized += 1;
        tracer.counter(
            "dfa",
            "pushes",
            &[
                ("req", req as i64),
                ("rounds", motion.rounds as i64),
                ("motion", motion.worklist_pushes as i64),
                ("flush", flush.worklist_pushes as i64),
            ],
        );
        if !motion.converged {
            return Err("motion did not converge".to_owned());
        }
        Ok(out)
    }

    /// What a cache hit costs before the lookup: parse and hash.
    pub fn lookup(&mut self, req: u64, text: &str) -> Result<(), String> {
        let tracer = self.tracer.clone();
        let t = &mut self.totals;
        let (graph, d, alloc) = timed(&tracer, "lang", "compile_source", req, || {
            compile_source(SourceKind::Ir, text)
        });
        t.parse += d;
        t.parse_alloc += alloc;
        let g = graph.map_err(|e| e.to_string())?;
        let (_, d, _) = timed(&tracer, "ir", "stable_hash", req, || stable_hash(&g));
        t.hash += d;
        Ok(())
    }

    /// The tracer feeding this replay's collector; the serve workloads
    /// record their client spans and joined server intervals on it, so
    /// one exported trace holds the whole request.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.collector.events()
    }
}
