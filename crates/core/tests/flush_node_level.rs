//! The node-level flush against the instruction-level reference.
//!
//! `am_core::flush` solves Table 3 over composed block transfers and
//! recovers the per-instruction facts block by block; `support` solves it
//! point by point, the way the paper states it. Both must agree on every
//! recovered fact of every point — `N-DELAYABLE*`, `X-DELAYABLE*`,
//! `N-USABLE*`, `X-USABLE*` and `X-LATEST` — and on the flushed program,
//! for any solver worker count.

mod support;

use am_bench::workloads::{inlined_program, nest_grid, wide_fan};
use am_bitset::BitSet;
use am_core::flush::{final_flush_observed, BlockFacts, FlushFacts};
use am_core::global::{optimize_with, GlobalConfig};
use am_core::init::initialize;
use am_dfa::PointGraph;
use am_ir::random::{corpus80, structured, unstructured, StructuredConfig, UnstructuredConfig};
use am_ir::rng::SplitMix64;
use am_ir::text::to_text;
use am_ir::FlowGraph;
use am_obs::ProvRecorder;
use am_trace::Tracer;

/// The program the optimizer hands to the flush: `g` after edge
/// splitting, initialization and assignment motion.
fn after_motion(g: &FlowGraph) -> FlowGraph {
    let config = GlobalConfig {
        keep_snapshots: true,
        ..Default::default()
    };
    optimize_with(g, &config)
        .after_motion
        .expect("snapshots are kept")
}

/// `g` after edge splitting and initialization only: every instance still
/// sits in front of its use.
fn after_init(g: &FlowGraph) -> FlowGraph {
    let mut g = g.clone();
    g.split_critical_edges();
    initialize(&mut g);
    g
}

/// Compares the recovered facts of every point with the reference.
fn check_facts(label: &str, g: &FlowGraph) {
    let mut reference_graph = g.clone();
    let reference = support::analyze_flush(&mut reference_graph);
    let mut node_graph = g.clone();
    let facts = FlushFacts::solve(&mut node_graph, 1);
    assert_eq!(to_text(&node_graph), to_text(&reference_graph), "{label}");
    assert_eq!(facts.temps(), reference.temps.as_slice(), "{label}");
    let ep = facts.universe().expr_count();
    let pg = PointGraph::build(&reference_graph);
    let mut block = BlockFacts::new(ep);
    let mut x_latest = BitSet::new(ep);
    for n in node_graph.nodes() {
        facts.recover(n, &node_graph.block(n).instrs, &mut block);
        let first = pg.first_of(n).index();
        let last = pg.last_of(n).index();
        assert_eq!(block.points(), last - first + 1, "{label}");
        for k in 0..block.points() {
            let p = first + k;
            let at = || format!("{label}: node {} point {k}", node_graph.label(n));
            assert_eq!(
                block.n_delayable(k),
                &reference.delay.before[p],
                "N-DELAYABLE* {}",
                at()
            );
            assert_eq!(
                block.x_delayable(k),
                &reference.delay.after[p],
                "X-DELAYABLE* {}",
                at()
            );
            assert_eq!(
                block.n_usable(k),
                &reference.usable.before[p],
                "N-USABLE* {}",
                at()
            );
            assert_eq!(
                block.x_usable(k),
                &reference.usable.after[p],
                "X-USABLE* {}",
                at()
            );
            // The reference's X-LATEST, point by point and bit by bit.
            x_latest.clear();
            for i in reference.delay.after[p].iter() {
                if pg.succs()[p]
                    .iter()
                    .any(|&q| !reference.delay.before[q as usize].contains(i))
                {
                    x_latest.insert(i);
                }
            }
            if p == last {
                assert_eq!(block.x_latest(), &x_latest, "X-LATEST {}", at());
            } else {
                assert!(x_latest.is_empty(), "interior X-LATEST {}", at());
            }
        }
    }
}

/// Compares the flushed program and its statistics with the reference,
/// serially and on the partitioned solver.
fn check_output(label: &str, g: &FlowGraph) {
    let (expected, counts) = support::reference_flush(g);
    let expected = to_text(&expected);
    for workers in [1, 4] {
        let mut flushed = g.clone();
        let stats = final_flush_observed(
            &mut flushed,
            &Tracer::disabled(),
            &ProvRecorder::disabled(),
            workers,
        );
        assert_eq!(to_text(&flushed), expected, "{label} (workers {workers})");
        assert_eq!(
            (stats.instances_removed, stats.inserted, stats.reconstructed),
            counts,
            "{label} (workers {workers})"
        );
    }
}

fn check(label: &str, g: &FlowGraph) {
    for (stage, input) in [("init", after_init(g)), ("motion", after_motion(g))] {
        let label = format!("{label} after {stage}");
        check_facts(&label, &input);
        check_output(&label, &input);
    }
}

#[test]
fn matches_the_reference_on_corpus80() {
    for (name, g) in corpus80() {
        check(&name, &g);
    }
}

/// The 200 seeded programs of the golden-hash fixture, generated exactly
/// as `examples/golden_hashes.rs` does.
#[test]
fn matches_the_reference_on_the_seeded_golden_programs() {
    for seed in 1000..1100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = structured(
            &mut rng,
            &StructuredConfig {
                allow_div: seed % 2 == 0,
                max_depth: 2 + (seed as usize % 3),
                ..Default::default()
            },
        );
        check(&format!("structured {seed}"), &g);
    }
    for seed in 2000..2100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 4 + (seed as usize % 16),
                extra_edges: 1 + (seed as usize % 10),
                max_instrs: 4,
                num_vars: 6,
                allow_div: seed % 3 == 0,
            },
        );
        check(&format!("unstructured {seed}"), &g);
    }
}

/// Unstructured graphs with self-loops added: every self-loop of a node
/// with another successor is a critical edge, so edge splitting leaves
/// empty pass-through blocks on the loops.
#[test]
fn matches_the_reference_on_self_loops_and_empty_split_blocks() {
    let mut empty_blocks = 0;
    for seed in 0..120u64 {
        let mut rng = SplitMix64::new(seed);
        let mut g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 3 + (seed as usize % 12),
                extra_edges: seed as usize % 8,
                max_instrs: 1 + (seed as usize % 5),
                num_vars: 4,
                allow_div: false,
            },
        );
        let interior: Vec<_> = g
            .nodes()
            .filter(|&n| n != g.start() && n != g.end())
            .collect();
        for (j, &n) in interior.iter().enumerate() {
            if (seed as usize + j).is_multiple_of(3) {
                g.add_edge(n, n);
            }
        }
        assert_eq!(g.validate(), Ok(()), "seed {seed}");
        let input = after_motion(&g);
        empty_blocks += input
            .nodes()
            .filter(|&n| input.block(n).instrs.is_empty())
            .count();
        check(&format!("self-loops {seed}"), &g);
    }
    assert!(empty_blocks > 0, "no empty split block was exercised");
}

/// The smallest rung of each XL family of `bench_dataflow --xl`.
#[test]
fn matches_the_reference_on_the_smallest_xl_rungs() {
    for (name, g) in [
        ("xl nest c=700", nest_grid(700, 2, 8)),
        ("xl fan b=3500", wide_fan(3500, 4)),
        ("xl inline c=1200", inlined_program(1200, 48)),
    ] {
        let input = after_motion(&g);
        check_facts(name, &input);
        check_output(name, &input);
    }
}
