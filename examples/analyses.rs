//! A guided tour of the paper's data-flow analyses (Tables 1–3) on the
//! running example: prints the local predicates and the solved facts that
//! drive each transformation, the way one would trace the algorithm by
//! hand.
//!
//! ```sh
//! cargo run --example analyses
//! ```

use assignment_motion::alg::{flush, hoist, init, motion, rae};
use assignment_motion::ir::{text::parse, FlowGraph};

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

fn show_hoisting(g: &FlowGraph, title: &str) {
    println!("== Table 1 (hoistability) — {title} ==");
    let analysis = hoist::analyze_hoisting(g);
    println!(
        "{:<8} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "node", "pattern", "LOC-H", "LOC-B", "N-H*", "X-H*", "N-INS", "X-INS"
    );
    for n in g.nodes() {
        for (i, pat) in analysis.universe.assign_patterns() {
            let any = analysis.loc_hoistable[n.index()].contains(i)
                || analysis.loc_blocked[n.index()].contains(i)
                || analysis.n_insert[n.index()].contains(i)
                || analysis.x_insert[n.index()].contains(i);
            if !any {
                continue;
            }
            println!(
                "{:<8} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
                g.label(n),
                pat.display(g.pool()),
                analysis.loc_hoistable[n.index()].contains(i),
                analysis.loc_blocked[n.index()].contains(i),
                analysis.n_hoistable[n.index()].contains(i),
                analysis.x_hoistable[n.index()].contains(i),
                analysis.n_insert[n.index()].contains(i),
                analysis.x_insert[n.index()].contains(i),
            );
        }
    }
    println!();
}

fn show_redundancy(g: &FlowGraph, title: &str) {
    println!("== Table 2 (redundancy) — {title} ==");
    // Solved over the block graph: an occurrence is redundant when its own
    // pattern holds in N-REDUNDANT* at its entry.
    let (locs, _) = rae::redundant_locs(g);
    for loc in locs {
        println!(
            "redundant '{}' in node {}",
            g.block(loc.node).instrs[loc.index].display(g.pool()),
            g.label(loc.node)
        );
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut g = parse(RUNNING_EXAMPLE)?;
    g.split_critical_edges();

    println!("--- input program ---\n{g:?}");
    show_hoisting(&g, "before initialization");

    init::initialize(&mut g);
    println!("--- after initialization (Fig. 12) ---");
    show_redundancy(&g, "G_Init");
    show_hoisting(&g, "G_Init");

    let stats = motion::assignment_motion(&mut g);
    println!(
        "--- after assignment motion: {} rounds, {} eliminations, {} insertions ---",
        stats.rounds, stats.eliminated, stats.inserted
    );
    show_redundancy(&g, "G_AssMot (stable: nothing redundant)");
    show_flush(&mut g);

    // Graphviz rendering of the result, for paper-style figures.
    println!("--- Graphviz of G_AssMot ---");
    println!("{}", assignment_motion::ir::dot::to_dot(&g));
    Ok(())
}

fn show_flush(g: &mut FlowGraph) {
    println!("== Table 3 (delayability / usability) — G_AssMot ==");
    // Solved over the block graph; the per-instruction facts are recovered
    // one block at a time.
    let facts = flush::FlushFacts::solve(g);
    let mut block = flush::BlockFacts::new(facts.universe().expr_count());
    println!(
        "{:<24} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "instruction", "pattern", "N-DELAY", "X-DELAY", "N-USABLE", "X-USABLE"
    );
    for n in g.nodes() {
        let instrs = &g.block(n).instrs;
        facts.recover(n, instrs, &mut block);
        for (k, instr) in instrs.iter().enumerate() {
            for (i, eps) in facts.universe().expr_patterns() {
                let row = [
                    block.n_delayable(k).contains(i),
                    block.x_delayable(k).contains(i),
                    block.n_usable(k).contains(i),
                    block.x_usable(k).contains(i),
                ];
                if !row.contains(&true) {
                    continue;
                }
                println!(
                    "{:<24} {:<10} {:>8} {:>8} {:>8} {:>8}",
                    instr.display(g.pool()),
                    eps.display(g.pool()),
                    row[0],
                    row[1],
                    row[2],
                    row[3],
                );
            }
        }
    }
    println!();
}
