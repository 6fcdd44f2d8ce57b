//! Well-formedness verification: the structural invariants of Sec. 2
//! (`L001`–`L007`) and the def-before-use / naming discipline the motion
//! phases must maintain for temporaries (`L010`, `L011`).

use am_dfa::{solve, Confluence, Direction, PointGraph, Problem, Seed};
use am_ir::{GraphError, Instr, Var};

use crate::diag::{Diagnostic, Severity};
use crate::Ctx;

/// Structural CFG invariants. These gate the dataflow-based lints: a graph
/// that fails here has no meaningful point graph.
pub(crate) fn check_structure(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let g = ctx.g;
    if let Err(e) = g.validate() {
        out.push(match e {
            GraphError::StartHasPreds => ctx.at_node(
                "L001",
                Severity::Error,
                g.start(),
                "start node has incoming edges (Sec. 2 requires a unique entry)".into(),
            ),
            GraphError::EndHasSuccs => ctx.at_node(
                "L002",
                Severity::Error,
                g.end(),
                "end node has outgoing edges (Sec. 2 requires a unique exit)".into(),
            ),
            GraphError::Unreachable(n) => ctx.at_node(
                "L003",
                Severity::Error,
                n,
                "node is not on any path from start to end".into(),
            ),
            GraphError::BranchInStraightNode(n) => ctx.at_node(
                "L004",
                Severity::Error,
                n,
                "node contains a branch but has at most one successor".into(),
            ),
            GraphError::MultipleBranches(n) => ctx.at_node(
                "L005",
                Severity::Error,
                n,
                "node contains more than one branch instruction".into(),
            ),
            GraphError::DuplicateEdge(m, n) => ctx.at_node(
                "L006",
                Severity::Error,
                m,
                format!("duplicate edge to node {}", g.label(n)),
            ),
        });
        return;
    }
    // Edge-list mirror consistency: succs and preds must describe the same
    // edge set. Unreachable through the public graph API, but linting also
    // guards hand-constructed and future deserialized graphs.
    for n in g.nodes() {
        for &s in g.succs(n) {
            if !g.preds(s).contains(&n) {
                out.push(ctx.at_node(
                    "L007",
                    Severity::Error,
                    n,
                    format!(
                        "edge to node {} is missing from that node's predecessor list",
                        g.label(s)
                    ),
                ));
            }
        }
        for &p in g.preds(n) {
            if !g.succs(p).contains(&n) {
                out.push(ctx.at_node(
                    "L007",
                    Severity::Error,
                    n,
                    format!(
                        "edge from node {} is missing from that node's successor list",
                        g.label(p)
                    ),
                ));
            }
        }
    }
}

/// Temporary def-before-use (`L010`) and `h_t` naming discipline (`L011`).
///
/// Source variables are free program inputs, so only temporaries — which
/// the optimizer itself introduces and is responsible for initializing on
/// every path before every use (the initialization phase of Table 3) — are
/// held to definite assignment.
pub(crate) fn check_defuse(ctx: &Ctx<'_>, pg: &PointGraph<'_>, out: &mut Vec<Diagnostic>) {
    let g = ctx.g;
    let pool = g.pool();

    // Definite assignment: forward/must over the variable universe;
    // `before[p]` then holds the variables written on *every* path to `p`.
    let mut p = Problem::new(Direction::Forward, Confluence::Must, pg.len(), pool.len());
    for point in pg.points() {
        if let Some(d) = pg.instr(point).and_then(Instr::def) {
            p.gen[point.index()].insert(d.index());
        }
    }
    let definite = solve(pg.succs(), pg.preds(), pg.schedule(), &p, Seed::cold());

    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let loc = pg.loc(point).expect("instruction points carry locations");
        let mut used: Vec<Var> = Vec::new();
        instr.for_each_use(|v| {
            if pool.is_temp(v) && !used.contains(&v) {
                used.push(v);
            }
        });
        for v in used {
            if !definite.before[point.index()].contains(v.index()) {
                out.push(ctx.at(
                    "L010",
                    Severity::Error,
                    loc,
                    format!(
                        "temporary '{}' may be read before initialization on some path",
                        pool.name(v)
                    ),
                ));
            }
        }
        if let Instr::Assign { lhs, rhs } = instr {
            // Only machine-named temporaries carry their defining expression
            // in the name; alpha-renamed programs (h1, h2, ...) are exempt.
            let name = pool.name(*lhs);
            if pool.is_temp(*lhs) && name.starts_with("h<") {
                let expected = format!("h<{}>", rhs.display(pool));
                if name != expected {
                    out.push(ctx.at(
                        "L011",
                        Severity::Error,
                        loc,
                        format!(
                            "temporary '{name}' is initialized with '{}', not its \
                             defining expression (initialization discipline, Table 3)",
                            rhs.display(pool)
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use am_ir::text::parse;
    use am_ir::{BinOp, FlowGraph, Instr, NodeId, Term, Var};

    use crate::{lint_graph, LintConfig, Severity};

    fn codes(g: &FlowGraph) -> Vec<&'static str> {
        lint_graph(g, &LintConfig::default())
            .diags
            .iter()
            .map(|d| d.code)
            .collect()
    }

    /// `start -> end` skeleton; temps must be built in memory because the
    /// text parser does not mark variables as temporaries.
    fn skeleton() -> (FlowGraph, NodeId, NodeId, Var, Var, Var) {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, e);
        let a = g.pool_mut().intern("a");
        let b = g.pool_mut().intern("b");
        let x = g.pool_mut().intern("x");
        (g, s, e, a, b, x)
    }

    #[test]
    fn clean_graph_has_no_structural_findings() {
        let g = parse("start s\nend e\nnode s { x := 1 }\nnode e { out(x) }\nedge s -> e").unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }

    #[test]
    fn unreachable_node_is_l003_and_gates_dataflow() {
        let (mut g, s, e, _, _, x) = skeleton();
        g.block_mut(s).instrs.push(Instr::assign(x, 1));
        g.block_mut(e).instrs.push(Instr::Out(vec![x.into()]));
        g.add_node("island");
        let report = lint_graph(&g, &LintConfig::default());
        assert_eq!(
            report.diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec!["L003"]
        );
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn uninitialized_temp_read_is_l010() {
        // h<a+b> is read but never assigned.
        let (mut g, _, e, a, b, x) = skeleton();
        let h = g.temp_for(Term::binary(BinOp::Add, a, b));
        g.block_mut(e).instrs.push(Instr::assign(x, h));
        g.block_mut(e).instrs.push(Instr::Out(vec![x.into()]));
        assert!(codes(&g).contains(&"L010"));
    }

    #[test]
    fn initialized_temp_read_is_clean_of_l010() {
        let (mut g, s, e, a, b, x) = skeleton();
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        g.block_mut(s).instrs.push(Instr::assign(h, t));
        g.block_mut(e).instrs.push(Instr::assign(x, h));
        g.block_mut(e).instrs.push(Instr::Out(vec![x.into()]));
        assert!(!codes(&g).contains(&"L010"), "{:?}", codes(&g));
    }

    #[test]
    fn mismatched_temp_initializer_is_l011() {
        // h<a+b> := a*b violates the naming discipline.
        let (mut g, s, e, a, b, x) = skeleton();
        let h = g.temp_for(Term::binary(BinOp::Add, a, b));
        g.block_mut(s)
            .instrs
            .push(Instr::assign(h, Term::binary(BinOp::Mul, a, b)));
        g.block_mut(e).instrs.push(Instr::assign(x, h));
        g.block_mut(e).instrs.push(Instr::Out(vec![x.into()]));
        let cs = codes(&g);
        assert!(cs.contains(&"L011"), "{cs:?}");
    }

    #[test]
    fn alpha_renamed_temps_are_exempt_from_l011() {
        // Positionally-named temps (h1, h2, ...) carry no expression in
        // their name, so the naming lint cannot and must not apply.
        let (mut g, s, e, a, b, x) = skeleton();
        let h = g.pool_mut().intern_temp("h1");
        g.block_mut(s)
            .instrs
            .push(Instr::assign(h, Term::binary(BinOp::Mul, a, b)));
        g.block_mut(e).instrs.push(Instr::assign(x, h));
        g.block_mut(e).instrs.push(Instr::Out(vec![x.into()]));
        assert!(!codes(&g).contains(&"L011"));
    }
}
