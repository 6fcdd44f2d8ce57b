//! Phase 3 — the final flush (Sec. 4.4, Table 3).
//!
//! After the assignment motion phase, initializations `h_ε := ε` sit at
//! their earliest points. The flush moves each to its *latest* useful point
//! and eliminates the ones that do not pay for themselves, in the spirit of
//! lazy code motion:
//!
//! * **Delayability** (forward, must, greatest solution) — how far an
//!   instance can be postponed: `X-DELAYABLE = IS-INST +
//!   N-DELAYABLE · ¬USED · ¬BLOCKED`.
//! * **Usability** (backward, may, least solution) — whether `h_ε` is read
//!   on some continuation before being re-initialized: `N-USABLE = USED +
//!   ¬IS-INST · X-USABLE`.
//! * **Latestness** — `N-LATEST = N-DELAYABLE* · (USED + BLOCKED)`,
//!   `X-LATEST = X-DELAYABLE* · Σ_{succ} ¬N-DELAYABLE*`.
//! * **Initialization points** — `N-INIT = N-LATEST · X-USABLE*`,
//!   `X-INIT = X-LATEST · X-USABLE*`.
//! * **Reconstruction** — `RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*`: the
//!   instance would serve exactly this one use, so the original term is put
//!   back in place of the temporary (this replaces the isolation analysis
//!   of classic lazy code motion and is what guarantees that temporaries
//!   only survive when they eliminate a partial redundancy).
//!
//! The transformation deletes every instance, inserts instances at the
//! initialization points and rewrites reconstructed uses. Two pragmatic
//! guards keep reconstruction semantics-and-cost-safe: an instruction using
//! `h_ε` more than once (e.g. `branch h > h`) keeps its initialization, and
//! a use position that cannot syntactically hold a non-trivial term (an
//! operand inside a binary term or an `out`) does too.
//!
//! # Node-level solving
//!
//! The paper states Table 3 per instruction, but both systems are gen/kill
//! and every interior instruction of a block has exactly one predecessor
//! and one successor, so substituting the interior points out of the
//! equations is exact: [`FlushFacts::solve`] folds each block's rows into
//! one transfer (delayability first-to-last, usability last-to-first) and
//! solves both systems over the block graph, whose fixed points correspond
//! one-to-one to the instruction-level ones. [`FlushFacts::recover`] then
//! streams the per-instruction facts out of one block at a time:
//! `X-USABLE*` backward from the block's exit fact, `N-/X-DELAYABLE*`
//! forward from its entry fact. Latestness needs no per-point table
//! either: an interior point's only successor has `N-DELAYABLE*` equal to
//! its own `X-DELAYABLE*`, so `X-LATEST` is empty everywhere but at a
//! block's last point, and `N-LATEST` is one word-wise AND.

use std::mem;

use am_bitset::BitSet;
use am_dfa::{
    node_adjacency, solve, Adjacency, Confluence, Direction, Problem, Schedule, Seed, Solution,
};
use am_ir::{Cond, FlowGraph, Instr, NodeId, Operand, PatternUniverse, Term, Var};
use am_obs::{ProvKind, ProvRecord, ProvRecorder};
use am_trace::Tracer;

/// Statistics of a [`final_flush`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Instances `h_ε := ε` removed from their old positions.
    pub instances_removed: usize,
    /// Instances inserted at initialization points.
    pub inserted: usize,
    /// Uses rewritten back to their original term.
    pub reconstructed: usize,
    /// Data-flow solver iterations (delayability + usability).
    pub iterations: u64,
    /// Solver worklist pushes (delayability + usability).
    pub worklist_pushes: u64,
    /// Peak solver worklist length across the two systems.
    pub max_worklist_len: usize,
}

/// Marks a variable that is no participating temporary in
/// [`FlushFacts`]'s dense temporary index.
const NO_TEMP: u32 = u32::MAX;

/// The Table 3 systems of a program, solved over its block graph.
///
/// Bit `i` of every set is expression pattern `i` of
/// [`universe`](Self::universe); node-level facts are indexed by
/// [`NodeId::index`]. Per-instruction facts come out of
/// [`recover`](Self::recover), one block at a time.
pub struct FlushFacts {
    locals: Locals,
    succs: Adjacency,
    /// Delayability per block (`before` = `N-DELAYABLE*` of its first
    /// point, `after` = `X-DELAYABLE*` of its last).
    pub delay: Solution,
    /// Usability per block (`before` = `N-USABLE*` of its first point,
    /// `after` = `X-USABLE*` of its last).
    pub usable: Solution,
}

/// The local predicates `IS-INST`, `USED` and `BLOCKED` of Table 3, as
/// per-variable lookups applied to one instruction at a time.
struct Locals {
    universe: PatternUniverse,
    temps: Vec<Var>,
    /// Pattern of each temporary, dense by variable index (`NO_TEMP` for
    /// the other variables).
    temp_of: Vec<u32>,
    /// `BLOCKED` row of an instruction defining the variable: the patterns
    /// mentioning it, plus its own pattern if it is a temporary.
    blocked_by: Vec<BitSet>,
}

/// The per-instruction Table 3 facts of one block, recovered by
/// [`FlushFacts::recover`] into buffers reused from block to block.
///
/// Point `k` is the block's `k`-th instruction; an empty block has one
/// pass-through point, whose entry and exit facts coincide.
pub struct BlockFacts {
    /// `delay[k]` = `N-DELAYABLE*` of point `k` = `X-DELAYABLE*` of `k-1`.
    delay: Vec<BitSet>,
    /// `usable[k]` = `N-USABLE*` of point `k` = `X-USABLE*` of `k-1`.
    usable: Vec<BitSet>,
    x_latest: BitSet,
    /// Working set for `∏_succ N-DELAYABLE*(succ)`.
    meet: BitSet,
    points: usize,
}

impl BlockFacts {
    /// Empty buffers for a universe of `universe` patterns.
    pub fn new(universe: usize) -> Self {
        BlockFacts {
            delay: Vec::new(),
            usable: Vec::new(),
            x_latest: BitSet::new(universe),
            meet: BitSet::new(universe),
            points: 0,
        }
    }

    /// Number of points of the block.
    pub fn points(&self) -> usize {
        self.points
    }

    /// `N-DELAYABLE*` of point `k`.
    pub fn n_delayable(&self, k: usize) -> &BitSet {
        &self.delay[k]
    }

    /// `X-DELAYABLE*` of point `k`.
    pub fn x_delayable(&self, k: usize) -> &BitSet {
        &self.delay[k + 1]
    }

    /// `N-USABLE*` of point `k`.
    pub fn n_usable(&self, k: usize) -> &BitSet {
        &self.usable[k]
    }

    /// `X-USABLE*` of point `k`.
    pub fn x_usable(&self, k: usize) -> &BitSet {
        &self.usable[k + 1]
    }

    /// `X-LATEST` of the block's last point — the only point where it can
    /// hold.
    pub fn x_latest(&self) -> &BitSet {
        &self.x_latest
    }
}

/// Grows `rows` to at least `n` sets of width `width`.
fn ensure_rows(rows: &mut Vec<BitSet>, n: usize, width: usize) {
    if rows.len() < n {
        rows.resize(n, BitSet::new(width));
    }
}

impl FlushFacts {
    /// Solves delayability and usability over `g`'s block graph. Creates
    /// the canonical temporary of every expression pattern in `g`'s pool.
    pub fn solve(g: &mut FlowGraph) -> Self {
        let locals = Locals::new(g);
        let ep = locals.universe.expr_count();
        // Compose each block's rows into one transfer `gen ∪ (in ∖ kill)`:
        // appending a point means `gen := gen_k ∪ (gen ∖ kill_k)`,
        // `kill := kill ∪ kill_k` — delayability (gen = IS-INST, kill =
        // USED + BLOCKED) first-to-last, usability (gen = USED, kill =
        // IS-INST) last-to-first.
        let nodes = g.node_count();
        let mut delay = Problem::new(Direction::Forward, Confluence::Must, nodes, ep);
        let mut usable = Problem::new(Direction::Backward, Confluence::May, nodes, ep);
        for n in g.nodes() {
            let ni = n.index();
            for instr in &g.block(n).instrs {
                locals.delay_step(&mut delay.gen[ni], instr);
                let kill = &mut delay.kill[ni];
                locals.for_each_used(instr, |i| {
                    kill.insert(i);
                });
                if let Some(row) = locals.blocked(instr) {
                    kill.union_with(row);
                }
            }
            for instr in g.block(n).instrs.iter().rev() {
                locals.usable_step(&mut usable.gen[ni], instr);
                if let Some(i) = locals.instance(instr) {
                    usable.kill[ni].insert(i);
                }
            }
        }
        let (succs, preds) = node_adjacency(g);
        let schedule = Schedule::build(&succs, &preds);
        let delay = solve(&succs, &preds, &schedule, &delay, Seed::cold());
        let usable = solve(&succs, &preds, &schedule, &usable, Seed::cold());
        FlushFacts {
            locals,
            succs,
            delay,
            usable,
        }
    }

    /// The expression-pattern universe the bit indices refer to.
    pub fn universe(&self) -> &PatternUniverse {
        &self.locals.universe
    }

    /// The temporary `h_ε` of each pattern.
    pub fn temps(&self) -> &[Var] {
        &self.locals.temps
    }

    /// Recovers the per-instruction facts of block `n`, whose instructions
    /// are `instrs` (the block's content when [`solve`](Self::solve) ran),
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` was built for a different universe size.
    pub fn recover(&self, n: NodeId, instrs: &[Instr], out: &mut BlockFacts) {
        let ni = n.index();
        let points = instrs.len().max(1);
        let ep = self.locals.universe.expr_count();
        ensure_rows(&mut out.delay, points + 1, ep);
        ensure_rows(&mut out.usable, points + 1, ep);
        out.points = points;
        // X-USABLE* backward from the block's exit fact.
        out.usable[points].copy_from(&self.usable.after[ni]);
        for k in (0..points).rev() {
            let (head, tail) = out.usable.split_at_mut(k + 1);
            head[k].copy_from(&tail[0]);
            if let Some(instr) = instrs.get(k) {
                self.locals.usable_step(&mut head[k], instr);
            }
        }
        // N-/X-DELAYABLE* forward from the block's entry fact.
        out.delay[0].copy_from(&self.delay.before[ni]);
        for k in 0..points {
            let (head, tail) = out.delay.split_at_mut(k + 1);
            tail[0].copy_from(&head[k]);
            if let Some(instr) = instrs.get(k) {
                self.locals.delay_step(&mut tail[0], instr);
            }
        }
        // X-LATEST = X-DELAYABLE* · ¬∏_succ N-DELAYABLE*(succ), empty
        // without successors (the paper's sum over no successor is false).
        match self.succs.neighbors(ni).split_first() {
            None => out.x_latest.clear(),
            Some((&first, rest)) => {
                out.meet.copy_from(&self.delay.before[first as usize]);
                for &m in rest {
                    out.meet.intersect_with(&self.delay.before[m as usize]);
                }
                out.x_latest.copy_from(&out.delay[points]);
                out.x_latest.difference_with(&out.meet);
            }
        }
    }
}

impl Locals {
    /// Collects `g`'s expression patterns and creates their temporaries.
    fn new(g: &mut FlowGraph) -> Self {
        let universe = PatternUniverse::collect(g);
        let temps: Vec<Var> = universe
            .expr_patterns()
            .map(|(_, t)| g.temp_for(t))
            .collect();
        let ep = universe.expr_count();
        // Built after the temporaries exist, so both tables cover every
        // variable of the pool.
        let vars = g.pool().len();
        let mut temp_of = vec![NO_TEMP; vars];
        let mut blocked_by = vec![BitSet::new(ep); vars];
        for (i, t) in universe.expr_patterns() {
            t.for_each_var(|v| {
                blocked_by[v.index()].insert(i);
            });
        }
        for (i, &h) in temps.iter().enumerate() {
            temp_of[h.index()] = i as u32;
            blocked_by[h.index()].insert(i);
        }
        Locals {
            universe,
            temps,
            temp_of,
            blocked_by,
        }
    }

    /// The pattern whose temporary is `v`, if `v` participates.
    fn temp(&self, v: Var) -> Option<usize> {
        match self.temp_of.get(v.index()) {
            Some(&i) if i != NO_TEMP => Some(i as usize),
            _ => None,
        }
    }

    /// `IS-INST`: the pattern `instr` is an instance `h_ε := ε` of.
    fn instance(&self, instr: &Instr) -> Option<usize> {
        let Instr::Assign { lhs, rhs } = instr else {
            return None;
        };
        self.temp(*lhs)?;
        let i = self.universe.expr_id(rhs)?;
        (self.temps[i] == *lhs).then_some(i)
    }

    /// Calls `f` with every `USED` bit of `instr`.
    fn for_each_used(&self, instr: &Instr, mut f: impl FnMut(usize)) {
        instr.for_each_use(|u| {
            if let Some(i) = self.temp(u) {
                f(i);
            }
        });
    }

    /// `BLOCKED` of `instr`, if it defines a variable.
    fn blocked(&self, instr: &Instr) -> Option<&BitSet> {
        instr.def().and_then(|d| self.blocked_by.get(d.index()))
    }

    /// Delayability transfer of one instruction: `x := IS-INST + x ·
    /// ¬USED · ¬BLOCKED`.
    fn delay_step(&self, x: &mut BitSet, instr: &Instr) {
        self.for_each_used(instr, |i| {
            x.remove(i);
        });
        if let Some(row) = self.blocked(instr) {
            x.difference_with(row);
        }
        if let Some(i) = self.instance(instr) {
            x.insert(i);
        }
    }

    /// Usability transfer of one instruction, against control: `x := USED
    /// + x · ¬IS-INST`.
    fn usable_step(&self, x: &mut BitSet, instr: &Instr) {
        if let Some(i) = self.instance(instr) {
            x.remove(i);
        }
        self.for_each_used(instr, |i| {
            x.insert(i);
        });
    }
}

/// How many times `instr` reads `h`.
fn use_count(instr: &Instr, h: Var) -> usize {
    let mut count = 0;
    instr.for_each_use(|v| {
        if v == h {
            count += 1;
        }
    });
    count
}

/// Rewrites the single use of `h` in `instr` to the term `eps`, if the
/// position admits a non-trivial term. Returns `None` when it does not.
fn reconstruct_use(instr: &Instr, h: Var, eps: Term) -> Option<Instr> {
    match instr {
        Instr::Assign {
            lhs,
            rhs: Term::Operand(Operand::Var(v)),
        } if *v == h => Some(Instr::Assign {
            lhs: *lhs,
            rhs: eps,
        }),
        Instr::Branch(c) => {
            let is_h = |t: &Term| matches!(t, Term::Operand(Operand::Var(v)) if *v == h);
            if is_h(&c.lhs) && !is_h(&c.rhs) {
                Some(Instr::Branch(Cond {
                    op: c.op,
                    lhs: eps,
                    rhs: c.rhs,
                }))
            } else if is_h(&c.rhs) && !is_h(&c.lhs) {
                Some(Instr::Branch(Cond {
                    op: c.op,
                    lhs: c.lhs,
                    rhs: eps,
                }))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Applies the final flush phase in place.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::{init::initialize, flush::final_flush};
///
/// // A single-use temporary is reconstructed away again.
/// let mut g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
/// initialize(&mut g);
/// let stats = final_flush(&mut g);
/// assert_eq!(stats.reconstructed, 1);
/// assert!(am_ir::text::to_text(&g).contains("x := a+b"));
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn final_flush(g: &mut FlowGraph) -> FlushStats {
    final_flush_observed(g, &Tracer::disabled(), &ProvRecorder::disabled())
}

/// As [`final_flush`], observed: emits one `analysis` counter per solved
/// system (`delayability`, `usability`) with its fixpoint metrics to
/// `tracer`, and appends one [`am_obs::ProvRecord`] per instance removal,
/// initialization insertion and reconstruction to `recorder`. A disabled
/// recorder costs one branch per potential record.
pub fn final_flush_observed(
    g: &mut FlowGraph,
    tracer: &Tracer,
    recorder: &ProvRecorder,
) -> FlushStats {
    let facts = FlushFacts::solve(g);
    for (name, sol) in [("delayability", &facts.delay), ("usability", &facts.usable)] {
        tracer.counter(
            "analysis",
            name,
            &[
                ("iterations", sol.iterations as i64),
                ("worklist_pushes", sol.worklist_pushes as i64),
                ("max_worklist_len", sol.max_worklist_len as i64),
            ],
        );
    }
    let mut stats = FlushStats::default();
    let ep = facts.universe().expr_count();
    if ep == 0 {
        return stats;
    }
    stats.iterations = facts.delay.iterations + facts.usable.iterations;
    stats.worklist_pushes = facts.delay.worklist_pushes + facts.usable.worklist_pushes;
    stats.max_worklist_len = facts
        .delay
        .max_worklist_len
        .max(facts.usable.max_worklist_len);

    // One streaming pass per block: recover its facts, then rebuild its
    // instruction list from the one taken out of the graph.
    let mut block = BlockFacts::new(ep);
    let mut work: [BitSet; 4] = std::array::from_fn(|_| BitSet::new(ep));
    for n in g.nodes() {
        let old = mem::take(&mut g.block_mut(n).instrs);
        facts.recover(n, &old, &mut block);
        let mut emit = Emit {
            g,
            n,
            facts: &facts,
            recorder,
            stats: &mut stats,
            fresh: Vec::with_capacity(old.len()),
        };
        emit.block(old, &block, &mut work);
        let fresh = emit.fresh;
        g.block_mut(n).instrs = fresh;
    }
    stats
}

/// The rewrite of one block `n` of `g`: builds its new instruction list.
struct Emit<'a> {
    g: &'a FlowGraph,
    n: NodeId,
    facts: &'a FlushFacts,
    recorder: &'a ProvRecorder,
    stats: &'a mut FlushStats,
    fresh: Vec<Instr>,
}

impl Emit<'_> {
    /// Rewrites the block's instructions `old`, whose facts are `block`;
    /// `work` holds four sets of the universe's width.
    fn block(&mut self, old: Vec<Instr>, block: &BlockFacts, work: &mut [BitSet; 4]) {
        let [used, latest, insert_before, reconstruct] = work;
        let locals = &self.facts.locals;
        let last = block.points() - 1;
        let empty = old.is_empty();
        for (k, instr) in old.into_iter().enumerate() {
            // N-LATEST = N-DELAYABLE* · (USED + BLOCKED), then the
            // per-pattern decisions on its set bits only.
            used.clear();
            locals.for_each_used(&instr, |i| {
                used.insert(i);
            });
            latest.copy_from(used);
            if let Some(row) = locals.blocked(&instr) {
                latest.union_with(row);
            }
            latest.intersect_with(block.n_delayable(k));
            insert_before.clear();
            reconstruct.clear();
            for i in latest.iter() {
                let h = locals.temps[i];
                let multi_use = use_count(&instr, h) >= 2;
                // A blockade that *redefines* the temporary (another
                // instance of the same pattern, in particular) makes the
                // arriving value dead: never insert for it.
                let redefines_h = instr.def() == Some(h);
                let is_used = used.contains(i);
                let usable = block.x_usable(k).contains(i);
                if is_used && !usable && !multi_use {
                    reconstruct.insert(i);
                } else if (is_used && multi_use) || (usable && (is_used || !redefines_h)) {
                    insert_before.insert(i);
                }
                // Remaining cases: the value is dead here (redefined, or
                // blocked with no use on any continuation) — dropped.
            }
            for i in insert_before.iter() {
                self.insert(i, "N-INIT = N-LATEST · X-USABLE*");
            }
            if let Some(pattern) = locals.instance(&instr) {
                // The instruction is an instance of some pattern and is
                // removed (re-inserted at its latest points). If it was
                // also the stop-point of *another* temporary marked for
                // reconstruction, that value's use travels with the
                // removed instance — materialize the initialization here,
                // where it dominates every re-insertion point reached
                // through this path.
                self.record(
                    ProvKind::FlushRemove,
                    Some(k),
                    &instr,
                    None,
                    pattern,
                    "IS-INST: the instance leaves its motion position for its latest points",
                );
                self.stats.instances_removed += 1;
                for i in reconstruct.iter() {
                    self.insert(
                        i,
                        "reconstruction use travels with a removed instance; initialization \
                         materialized here",
                    );
                }
            } else {
                let mut rewritten = instr;
                for i in reconstruct.iter() {
                    let eps = self.facts.universe().expr(i);
                    match reconstruct_use(&rewritten, locals.temps[i], eps) {
                        Some(new_instr) => {
                            self.record(
                                ProvKind::FlushReconstruct,
                                Some(k),
                                &rewritten,
                                Some(&new_instr),
                                i,
                                "RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*: sole use, original \
                                 term restored",
                            );
                            rewritten = new_instr;
                            self.stats.reconstructed += 1;
                        }
                        // The use position cannot hold a term (it sits
                        // inside a binary term): keep the initialization
                        // instead.
                        None => self.insert(
                            i,
                            "RECONSTRUCT held, but the use position cannot carry a term",
                        ),
                    }
                }
                self.fresh.push(rewritten);
            }
        }
        // X-INIT = X-LATEST · X-USABLE* after the last point — on an empty
        // block, its pass-through point (X-LATEST on a split edge).
        latest.copy_from(block.x_latest());
        latest.intersect_with(block.x_usable(last));
        let fact = if empty {
            "LATEST on the empty (split-edge) block, usable onward"
        } else {
            "X-INIT = X-LATEST · X-USABLE*"
        };
        for i in latest.iter() {
            self.insert(i, fact);
        }
    }

    /// Appends the initialization `h_ε := ε` of pattern `i`.
    fn insert(&mut self, i: usize, fact: &str) {
        let init = Instr::Assign {
            lhs: self.facts.locals.temps[i],
            rhs: self.facts.universe().expr(i),
        };
        self.record(ProvKind::FlushInsert, None, &init, None, i, fact);
        self.fresh.push(init);
        self.stats.inserted += 1;
    }

    /// Logs one flush decision about pattern `pattern` at point `index`
    /// of the block (a disabled recorder costs one branch).
    fn record(
        &self,
        kind: ProvKind,
        index: Option<usize>,
        instr: &Instr,
        new_instr: Option<&Instr>,
        pattern: usize,
        justification: &str,
    ) {
        if self.recorder.is_enabled() {
            let pool = self.g.pool();
            self.recorder.record(ProvRecord {
                kind,
                phase: "flush",
                round: 0,
                node: self.g.label(self.n).to_owned(),
                index: index.map(|k| k as u32),
                instr: instr.display(pool),
                new_instr: new_instr.map(|i| i.display(pool)),
                pattern: Some(pattern as u32),
                instr_id: None,
                justification: justification.to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::motion::assignment_motion;
    use am_ir::alpha::canonical_text;
    use am_ir::interp;
    use am_ir::text::parse;

    const RUNNING_EXAMPLE: &str = "
        start 1
        end 4
        node 1 { y := c+d }
        node 2 { branch x+z > y+i }
        node 3 { y := c+d; x := y+z; i := i+x }
        node 4 { x := y+z; x := c+d; out(i,x,y) }
        edge 1 -> 2
        edge 2 -> 3, 4
        edge 3 -> 2
    ";

    fn run_pipeline(src: &str) -> (am_ir::FlowGraph, am_ir::FlowGraph) {
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        initialize(&mut g);
        assignment_motion(&mut g);
        final_flush(&mut g);
        (orig, g)
    }

    #[test]
    fn running_example_matches_fig15() {
        let (_, g) = run_pipeline(RUNNING_EXAMPLE);
        let canon = canonical_text(&g);
        // Fig. 15 / Fig. 5, node by node.
        assert!(
            canon.contains("node 1 {\n  h1 := c+d\n  y := h1\n  h2 := x+z\n  x := y+z\n}"),
            "node 1 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 2 {\n  branch h2 > y+i\n}"),
            "node 2 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 3 {\n  i := i+x\n  h2 := x+z\n}"),
            "node 3 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 4 {\n  x := h1\n  out(i,x,y)\n}"),
            "node 4 mismatch:\n{canon}"
        );
    }

    #[test]
    fn running_example_preserves_semantics() {
        let (orig, g) = run_pipeline(RUNNING_EXAMPLE);
        for seed in 0..40 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed + 1, 10),
                inputs: vec![
                    ("c".into(), 2),
                    ("d".into(), seed as i64 % 5),
                    ("x".into(), 1),
                    ("z".into(), 3),
                    ("i".into(), 0),
                    ("y".into(), -1),
                ],
                ..Default::default()
            };
            let a = interp::run(&orig, &cfg);
            let b = interp::run(&g, &cfg);
            assert_eq!(a.observable(), b.observable(), "seed {seed}");
            if a.stop == interp::StopReason::ReachedEnd && b.stop == a.stop {
                assert!(b.expr_evals <= a.expr_evals, "seed {seed}");
            }
        }
    }

    #[test]
    fn flush_reconstructs_single_use_temporaries() {
        // After init, h := a+b; x := h has a single use: flush restores
        // x := a+b and drops the temporary.
        let src = "start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2";
        let (_, g) = run_pipeline(src);
        let canon = canonical_text(&g);
        assert!(canon.contains("x := a+b"), "{canon}");
        assert!(!canon.contains("h1"), "{canon}");
    }

    #[test]
    fn flush_keeps_redundancy_eliminating_temporaries() {
        // a+b used twice: the temporary pays for itself.
        let src = "start 1\nend 2\nnode 1 { x := a+b; y := a+b }\nnode 2 { out(x,y) }\nedge 1 -> 2";
        let (_, g) = run_pipeline(src);
        let canon = canonical_text(&g);
        assert!(canon.contains("h1 := a+b"), "{canon}");
        assert!(canon.contains("x := h1"), "{canon}");
        assert!(canon.contains("y := h1"), "{canon}");
        assert_eq!(canon.matches("a+b").count(), 1, "{canon}");
    }

    #[test]
    fn flush_is_noop_without_temporaries() {
        let src = "start 1\nend 2\nnode 1 { x := a+b; b := 1 }\nnode 2 { out(x,b) }\nedge 1 -> 2";
        let mut g = parse(src).unwrap();
        let before = am_ir::text::to_text(&g);
        let stats = final_flush(&mut g);
        assert_eq!(stats.instances_removed, 0);
        assert_eq!(stats.inserted, 0);
        assert_eq!(am_ir::text::to_text(&g), before);
    }

    #[test]
    fn dead_initialization_is_dropped() {
        // h is never used: the instance must disappear entirely.
        let src = "start 1\nend 2\nnode 1 { x := a+b; x := 0 }\nnode 2 { out(x) }\nedge 1 -> 2";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        initialize(&mut g);
        assignment_motion(&mut g);
        // After motion x := h is still there; make h dead by eliminating
        // the use through a manual overwrite scenario: x := 0 follows, so
        // the flush keeps correctness; semantics check suffices.
        final_flush(&mut g);
        for seed in 0..5 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 4),
                inputs: vec![("a".into(), 5), ("b".into(), 6)],
                ..Default::default()
            };
            assert_eq!(
                interp::run(&orig, &cfg).observable(),
                interp::run(&g, &cfg).observable()
            );
        }
    }

    #[test]
    fn branch_use_keeps_loop_carried_temporary() {
        // The h2 := x+z of the running example: each initialization feeds
        // the branch; delaying into the branch is blocked by x := y+z.
        let (_, g) = run_pipeline(RUNNING_EXAMPLE);
        let canon = canonical_text(&g);
        assert_eq!(canon.matches("h2 := x+z").count(), 2, "{canon}");
    }
}
