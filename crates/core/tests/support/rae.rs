//! The instruction-level Table 2 redundancy analysis, kept as a reference
//! oracle.
//!
//! This is redundant assignment elimination as the paper states it
//! (Sec. 4.3.1): a forward must system over one program point per
//! instruction (plus one pass-through point per empty block), with the
//! gen/kill rows read straight off the `EXECUTED` and `ASS-TRANSP`
//! predicates. The optimizer solves the same system over composed block
//! transfers (`am_core::rae`); the tests hold the two against each other.

use std::collections::HashSet;

use am_dfa::{solve, Confluence, Direction, PointGraph, Problem, Seed, Solution};
use am_ir::{AssignPattern, FlowGraph, Loc, PatternUniverse};

/// Solves the redundancy analysis of Table 2 over `pg`'s points.
///
/// Bit `i` of a set refers to assignment pattern `i` of `universe`.
/// Self-referential patterns (`x := x+1`) are killed at every instruction
/// and generated nowhere, so they never hold at a reachable point.
pub fn redundancy(pg: &PointGraph<'_>, universe: &PatternUniverse) -> Solution {
    let patterns: Vec<AssignPattern> = universe.assign_patterns().map(|(_, pat)| pat).collect();
    let mut p = Problem::new(
        Direction::Forward,
        Confluence::Must,
        pg.len(),
        patterns.len(),
    );
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let idx = point.index();
        for (i, pat) in patterns.iter().enumerate() {
            if pat.is_self_referential() || !pat.transparent_for(instr) {
                p.kill[idx].insert(i);
            } else if pat.executed_by(instr) {
                p.gen[idx].insert(i);
            }
        }
    }
    solve(pg.succs(), pg.preds(), pg.schedule(), &p, Seed::cold())
}

/// The instruction locations whose assignment is redundant at its entry,
/// in program order, with the solution they were read from.
pub fn redundant_locs_solved(g: &FlowGraph) -> (Vec<Loc>, Solution) {
    let universe = PatternUniverse::collect(g);
    let pg = PointGraph::build(g);
    let sol = redundancy(&pg, &universe);
    let mut locs = Vec::new();
    for point in pg.points() {
        let (Some(instr), Some(loc)) = (pg.instr(point), pg.loc(point)) else {
            continue;
        };
        if let am_ir::Instr::Assign { lhs, rhs } = instr {
            let pat = AssignPattern::new(*lhs, *rhs);
            if pat.is_self_referential() {
                continue;
            }
            if let Some(i) = universe.assign_id(&pat) {
                if sol.before[point.index()].contains(i) {
                    locs.push(loc);
                }
            }
        }
    }
    (locs, sol)
}

/// The Elimination Step computed point by point: returns `g` without its
/// redundant occurrences, and how many were removed.
pub fn reference_rae(g: &FlowGraph) -> (FlowGraph, usize) {
    let (locs, _) = redundant_locs_solved(g);
    let doomed: HashSet<Loc> = locs.iter().copied().collect();
    let mut out = g.clone();
    for n in g.nodes() {
        out.block_mut(n).instrs = g
            .block(n)
            .instrs
            .iter()
            .enumerate()
            .filter(|&(index, _)| !doomed.contains(&Loc { node: n, index }))
            .map(|(_, instr)| instr.clone())
            .collect();
    }
    (out, locs.len())
}
