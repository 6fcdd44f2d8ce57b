//! Seeded inputs. The program under test only ever sees the bytes made
//! here: IR text, the form `amopt` reads from `.ir` files and `amserve`
//! receives on the wire. The same seed gives the same bytes.

use std::collections::HashSet;

use am_bench::workloads::{inlined_program, nest_grid, wide_fan};
use am_ir::alpha::{canonical_text, stable_hash};
use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::FlowGraph;

/// One generated program.
#[derive(Clone, Debug)]
pub struct Input {
    /// Display name (family and parameters).
    pub name: String,
    /// The bytes handed to the program under test.
    pub text: String,
    /// CFG nodes of the input.
    pub nodes: usize,
    /// Size rung (0 = smallest); XL inputs only.
    pub rung: usize,
}

impl Input {
    fn new(name: String, graph: &FlowGraph, rung: usize) -> Input {
        Input {
            name,
            text: canonical_text(graph),
            nodes: graph.node_count(),
            rung,
        }
    }
}

/// Target node counts of the XL size rungs.
pub const XL_RUNGS: [usize; 3] = [3_500, 6_000, 10_000];

/// The xl-batch pool: one seeded variant of each XL family at each size
/// rung, sizes jittered by up to 5% and shape parameters drawn per seed
/// from narrow ranges, so that every seed weighs the families alike.
pub fn xl_pool(seed: u64) -> Vec<Input> {
    let mut rng = SplitMix64::new(seed ^ 0x584C_0000);
    let mut pool = Vec::new();
    for (rung, &target) in XL_RUNGS.iter().enumerate() {
        let jitter = |rng: &mut SplitMix64| target - target / 20 + rng.gen_range(0..=target / 10);
        // nest_grid: 2 + copies * (1 + 2 * depth) nodes.
        let depth = 2;
        let width = rng.gen_range(7..=8usize);
        let copies = (jitter(&mut rng) - 2) / (1 + 2 * depth);
        pool.push(Input::new(
            format!("nest_grid({copies},{depth},{width})"),
            &nest_grid(copies, depth, width),
            rung,
        ));
        // wide_fan: branches + 3 nodes.
        let width = 4;
        let branches = jitter(&mut rng) - 3;
        pool.push(Input::new(
            format!("wide_fan({branches},{width})"),
            &wide_fan(branches, width),
            rung,
        ));
        // inlined_program: 3 * calls + 3 nodes (calls rounded to 8 lanes).
        let procs = rng.gen_range(8..=10usize);
        let calls = (jitter(&mut rng) - 3) / 3;
        pool.push(Input::new(
            format!("inlined_program({calls},{procs})"),
            &inlined_program(calls, procs),
            rung,
        ));
    }
    pool
}

/// Node-count range of the small programs served by the serve workloads.
pub const SMALL_NODES: std::ops::RangeInclusive<usize> = 4..=20;

/// `count` distinct small programs (distinct stable hashes), alternating
/// the structured and unstructured generators, every one with a node
/// count in [`SMALL_NODES`].
pub fn small_programs(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = SplitMix64::new(seed ^ 0x5E_7E00);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let structured_turn = out.len() % 2 == 0;
        let g = if structured_turn {
            let cfg = StructuredConfig {
                max_depth: rng.gen_range(2..=3usize),
                max_stmts: rng.gen_range(2..=4usize),
                num_vars: rng.gen_range(3..=6usize),
                allow_div: rng.gen_bool(0.3),
            };
            structured(&mut rng, &cfg)
        } else {
            let cfg = UnstructuredConfig {
                nodes: rng.gen_range(SMALL_NODES),
                extra_edges: rng.gen_range(1..=8usize),
                max_instrs: rng.gen_range(2..=4usize),
                num_vars: rng.gen_range(3..=6usize),
                allow_div: rng.gen_bool(0.3),
            };
            unstructured(&mut rng, &cfg)
        };
        if !SMALL_NODES.contains(&g.node_count()) || !seen.insert(stable_hash(&g)) {
            continue;
        }
        let kind = if structured_turn {
            "structured"
        } else {
            "unstructured"
        };
        out.push(Input::new(format!("{kind}/{}", out.len()), &g, 0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::alpha::stable_hash_text;

    fn hashes(inputs: &[Input]) -> Vec<u64> {
        inputs.iter().map(|i| stable_hash_text(&i.text)).collect()
    }

    #[test]
    fn same_seed_same_programs_and_hashes() {
        let a = small_programs(7, 200);
        let b = small_programs(7, 200);
        assert_eq!(
            a.iter().map(|i| &i.text).collect::<Vec<_>>(),
            b.iter().map(|i| &i.text).collect::<Vec<_>>()
        );
        assert_eq!(hashes(&a), hashes(&b));
        let other = small_programs(8, 200);
        assert_ne!(hashes(&a), hashes(&other));
    }

    #[test]
    fn small_programs_are_distinct_and_in_range() {
        let p = small_programs(1, 500);
        let distinct: HashSet<u64> = hashes(&p).into_iter().collect();
        assert_eq!(distinct.len(), 500);
        assert!(p.iter().all(|i| SMALL_NODES.contains(&i.nodes)));
    }

    #[test]
    fn xl_pool_is_seeded_and_sized() {
        let a = xl_pool(3);
        let b = xl_pool(3);
        assert_eq!(hashes(&a), hashes(&b));
        assert_ne!(hashes(&a), hashes(&xl_pool(4)));
        assert_eq!(a.len(), 9);
        for i in &a {
            let target = XL_RUNGS[i.rung];
            assert!(
                i.nodes >= target * 9 / 10 && i.nodes <= target * 11 / 10,
                "{}: {} nodes for rung {target}",
                i.name,
                i.nodes
            );
        }
    }
}
