//! The instruction-level Table 3 flush, kept as a reference oracle.
//!
//! This is the flush as the paper states it (Sec. 4.4): delayability and
//! usability solved over one program point per instruction (plus one
//! pass-through point per empty block), latestness evaluated per point
//! and pattern, and the program rebuilt from those tables. The optimizer
//! solves the same systems over composed block transfers
//! (`am_core::flush`); the tests hold the two against each other.

use std::collections::HashMap;

use am_bitset::BitSet;
use am_dfa::{
    solve, Confluence, Direction, PatternMasks, PointGraph, PointId, Problem, Seed, Solution,
};
use am_ir::{Cond, FlowGraph, Instr, Operand, PatternUniverse, Term, Var};

/// The solved Table 3 analyses of a program: local predicates plus the
/// delayability and usability solutions, indexed by instruction-level
/// points (see [`am_dfa::PointGraph`]) and expression-pattern bits.
pub struct FlushAnalysis {
    /// The expression-pattern universe the bit indices refer to.
    pub universe: PatternUniverse,
    /// The temporary `h_ε` of each pattern.
    pub temps: Vec<Var>,
    /// `IS-INST` per point.
    pub is_inst: Vec<BitSet>,
    /// `USED` per point.
    pub used: Vec<BitSet>,
    /// `BLOCKED` per point.
    pub blocked: Vec<BitSet>,
    /// Delayability solution (`N-DELAYABLE*` = before, `X-DELAYABLE*` =
    /// after).
    pub delay: Solution,
    /// Usability solution (`N-USABLE*` = before, `X-USABLE*` = after).
    pub usable: Solution,
}

/// Solves the delayability and usability systems of Table 3 over `g`'s
/// instruction-level points (without transforming anything).
pub fn analyze_flush(g: &mut FlowGraph) -> FlushAnalysis {
    let universe = PatternUniverse::collect(g);
    let temps: Vec<Var> = universe
        .expr_patterns()
        .map(|(_, t)| g.temp_for(t))
        .collect();
    let ep = universe.expr_count();
    // Masks must be built after the temporaries exist: `temp_for` may grow
    // the variable pool, and the index covers the whole pool.
    let masks = PatternMasks::build(&universe, g.pool().len());
    let temp_index: HashMap<Var, usize> = temps.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let pg = PointGraph::build(g);
    let points = pg.len();
    let mut is_inst = vec![BitSet::new(ep); points];
    let mut used = vec![BitSet::new(ep); points];
    let mut blocked = vec![BitSet::new(ep); points];
    for p in pg.points() {
        let Some(instr) = pg.instr(p) else { continue };
        let idx = p.index();
        if let Instr::Assign { lhs, rhs } = instr {
            if let Some(i) = universe.expr_id(rhs) {
                if temps[i] == *lhs {
                    is_inst[idx].insert(i);
                }
            }
        }
        instr.for_each_use(|u| {
            if let Some(&i) = temp_index.get(&u) {
                used[idx].insert(i);
            }
        });
        if let Some(d) = instr.def() {
            blocked[idx].union_with(masks.expr_mentions(d));
            if let Some(&i) = temp_index.get(&d) {
                blocked[idx].insert(i);
            }
        }
    }
    let mut delay_problem = Problem::new(Direction::Forward, Confluence::Must, points, ep);
    delay_problem.gen = is_inst.clone();
    for p in 0..points {
        delay_problem.kill[p].copy_from(&used[p]);
        delay_problem.kill[p].union_with(&blocked[p]);
    }
    let delay = solve(
        pg.succs(),
        pg.preds(),
        pg.schedule(),
        &delay_problem,
        Seed::cold(),
    );
    let mut use_problem = Problem::new(Direction::Backward, Confluence::May, points, ep);
    use_problem.gen = used.clone();
    use_problem.kill = is_inst.clone();
    let usable = solve(
        pg.succs(),
        pg.preds(),
        pg.schedule(),
        &use_problem,
        Seed::cold(),
    );
    FlushAnalysis {
        universe,
        temps,
        is_inst,
        used,
        blocked,
        delay,
        usable,
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
/// position admits a non-trivial term.
fn reconstruct_use(instr: &Instr, h: Var, eps: Term) -> Option<Instr> {
    let is_h = |t: &Term| matches!(t, Term::Operand(Operand::Var(v)) if *v == h);
    match instr {
        Instr::Assign { lhs, rhs } if is_h(rhs) => Some(Instr::Assign {
            lhs: *lhs,
            rhs: eps,
        }),
        Instr::Branch(c) if is_h(&c.lhs) != is_h(&c.rhs) => Some(Instr::Branch(if is_h(&c.lhs) {
            Cond { lhs: eps, ..*c }
        } else {
            Cond { rhs: eps, ..*c }
        })),
        _ => None,
    }
}

/// The final flush computed point by point: returns the flushed program
/// and the `(instances removed, inserted, reconstructed)` counts.
pub fn reference_flush(g: &FlowGraph) -> (FlowGraph, (usize, usize, usize)) {
    let mut out = g.clone();
    let a = analyze_flush(&mut out);
    let ep = a.universe.expr_count();
    if ep == 0 {
        return (out, (0, 0, 0));
    }
    let snapshot = out.clone();
    let pg = PointGraph::build(&snapshot);
    let points = pg.len();
    let mut insert_before = vec![BitSet::new(ep); points];
    let mut insert_after = vec![BitSet::new(ep); points];
    let mut reconstruct = vec![BitSet::new(ep); points];
    for p in pg.points() {
        let idx = p.index();
        for (i, &h) in a.temps.iter().enumerate() {
            let x_usable = a.usable.after[idx].contains(i);
            let n_latest = a.delay.before[idx].contains(i)
                && (a.used[idx].contains(i) || a.blocked[idx].contains(i));
            let x_latest = a.delay.after[idx].contains(i)
                && pg.succs()[idx]
                    .iter()
                    .any(|&q| !a.delay.before[q as usize].contains(i));
            if n_latest {
                let instr = pg.instr(p);
                let multi_use = instr.is_some_and(|instr| use_count(instr, h) >= 2);
                let redefines_h = instr.and_then(Instr::def) == Some(h);
                let is_used = a.used[idx].contains(i);
                if is_used && !x_usable && !multi_use {
                    reconstruct[idx].insert(i);
                } else if (is_used && multi_use) || (x_usable && (is_used || !redefines_h)) {
                    insert_before[idx].insert(i);
                }
            }
            if x_latest && x_usable {
                insert_after[idx].insert(i);
            }
        }
    }
    let (mut removed, mut inserted, mut reconstructed) = (0, 0, 0);
    let init = |i: usize| Instr::Assign {
        lhs: a.temps[i],
        rhs: a.universe.expr(i),
    };
    for n in snapshot.nodes() {
        let mut fresh = Vec::new();
        for pi in pg.first_of(n).index()..=pg.last_of(n).index() {
            let p = PointId(pi as u32);
            for i in insert_before[pi].iter() {
                fresh.push(init(i));
                inserted += 1;
            }
            if let Some(instr) = pg.instr(p) {
                if a.is_inst[pi].is_empty() {
                    let mut rewritten = instr.clone();
                    for i in reconstruct[pi].iter() {
                        match reconstruct_use(&rewritten, a.temps[i], a.universe.expr(i)) {
                            Some(new_instr) => {
                                rewritten = new_instr;
                                reconstructed += 1;
                            }
                            None => {
                                fresh.push(init(i));
                                inserted += 1;
                            }
                        }
                    }
                    fresh.push(rewritten);
                } else {
                    removed += 1;
                    for i in reconstruct[pi].iter() {
                        fresh.push(init(i));
                        inserted += 1;
                    }
                }
            }
            for i in insert_after[pi].iter() {
                fresh.push(init(i));
                inserted += 1;
            }
        }
        out.block_mut(n).instrs = fresh;
    }
    (out, (removed, inserted, reconstructed))
}
