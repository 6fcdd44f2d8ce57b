//! Bounded enumeration of the program universe `G` (Sec. 3.1).
//!
//! The paper's optimality results quantify over *every* program reachable
//! from `G` by admissible assignment hoistings and redundant assignment
//! eliminations (which, after the initialization phase, subsume expression
//! motion — Lemma 4.1). For small programs that universe can be explored
//! mechanically:
//!
//! * one **elimination step** removes a single redundant occurrence
//!   (Def. 3.4 allows eliminating any subset);
//! * one **hoisting step** applies the Table 1 insertion step for a single
//!   assignment pattern (an admissible hoisting by construction).
//!
//! Programs are deduplicated up to renaming of temporaries. The test suite
//! uses the enumeration to check Thm 5.2 against the universe itself: the
//! global algorithm's output evaluates no more expressions than *any*
//! enumerated program on corresponding complete runs, and all terminal
//! (irreducible) programs of the universe are cost-equivalent — the
//! consequence of local confluence (Lemma 3.6) the optimality proof rests
//! on.

use std::collections::{HashMap, HashSet, VecDeque};

use am_ir::alpha::canonical_text;
use am_ir::FlowGraph;

use crate::hoist::analyze_hoisting;
use crate::rae::{redundant_locs, remove_locs};

/// Limits for [`explore`].
#[derive(Clone, Copy, Debug)]
pub struct UniverseConfig {
    /// Maximum number of distinct programs to collect.
    pub max_programs: usize,
    /// Maximum BFS depth (number of transformation steps).
    pub max_depth: usize,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            max_programs: 512,
            max_depth: 12,
        }
    }
}

/// The explored fragment of the universe.
#[derive(Debug)]
pub struct Universe {
    /// The distinct programs found, starting with the origin.
    pub programs: Vec<FlowGraph>,
    /// Indices of programs with no outgoing transformation (relatively
    /// optimal in the explored fragment).
    pub terminal: Vec<usize>,
    /// Whether exploration hit a limit before exhausting the fragment.
    pub truncated: bool,
}

/// All single-step successors of `g` (excluding `g` itself).
pub fn successors(g: &FlowGraph) -> Vec<FlowGraph> {
    let mut out = Vec::new();
    // Single eliminations.
    let (locs, _) = redundant_locs(g);
    for &loc in &locs {
        let mut next = g.clone();
        remove_locs(&mut next, &[loc]);
        out.push(next);
    }
    // Per-pattern hoisting steps.
    let analysis = analyze_hoisting(g);
    for i in 0..analysis.universe.assign_count() {
        let mut next = g.clone();
        if analysis.hoist_one(&mut next, i).changed {
            out.push(next);
        }
    }
    out
}

/// Breadth-first exploration of the universe fragment reachable from `g`.
///
/// Critical edges of `g` should already be split. Programs are identified
/// up to alpha-renaming of temporaries.
/// # Examples
///
/// ```
/// use am_core::universe::{explore, UniverseConfig};
/// use am_core::restricted::fig8_example;
///
/// let mut g = fig8_example();
/// g.split_critical_edges();
/// let universe = explore(&g, &UniverseConfig::default());
/// assert!(!universe.truncated);
/// assert!(universe.programs.len() > 1);
/// ```
pub fn explore(g: &FlowGraph, config: &UniverseConfig) -> Universe {
    let mut programs = vec![g.clone()];
    let mut index: HashMap<String, usize> = HashMap::new();
    index.insert(canonical_text(g), 0);
    let mut terminal = Vec::new();
    let mut truncated = false;
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    queue.push_back((0, 0));
    let mut expanded: HashSet<usize> = HashSet::new();

    while let Some((id, depth)) = queue.pop_front() {
        if !expanded.insert(id) {
            continue;
        }
        if depth >= config.max_depth {
            truncated = true;
            continue;
        }
        let succs = successors(&programs[id]);
        let mut has_new_shape = false;
        for next in succs {
            let key = canonical_text(&next);
            let next_id = match index.get(&key) {
                Some(&existing) => existing,
                None => {
                    if programs.len() >= config.max_programs {
                        truncated = true;
                        continue;
                    }
                    let new_id = programs.len();
                    programs.push(next);
                    index.insert(key, new_id);
                    new_id
                }
            };
            if next_id != id {
                has_new_shape = true;
                queue.push_back((next_id, depth + 1));
            }
        }
        if !has_new_shape {
            terminal.push(id);
        }
    }
    Universe {
        programs,
        terminal,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::optimize;
    use crate::init::initialize;
    use am_ir::interp::{run, Config, Oracle, StopReason};
    use am_ir::text::parse;

    fn costs(g: &FlowGraph, seed: u64) -> Option<(u64, u64)> {
        let cfg = Config {
            oracle: Oracle::random(seed, 8),
            inputs: vec![
                ("a".into(), 2),
                ("b".into(), 3),
                ("p".into(), 1),
                ("y".into(), 4),
                ("z".into(), 5),
            ],
            ..Config::default()
        };
        let r = run(g, &cfg);
        (r.stop == StopReason::ReachedEnd).then_some((r.expr_evals, r.assign_execs))
    }

    #[test]
    fn fig8_universe_is_finite_and_small() {
        let mut g = crate::restricted::fig8_example();
        g.split_critical_edges();
        let universe = explore(&g, &UniverseConfig::default());
        assert!(!universe.truncated, "Fig. 8's universe fits the budget");
        assert!(
            universe.programs.len() >= 3,
            "hoists and eliminations exist"
        );
        assert!(!universe.terminal.is_empty());
    }

    #[test]
    fn global_algorithm_dominates_the_explored_universe() {
        // Thm 5.2 against the universe itself (AM fragment; EM included via
        // initialization): no enumerated program beats the output on any
        // complete corresponding run.
        let sources = [
            crate::restricted::fig8_example(),
            parse(
                "start 1\nend 4\n\
                 node 1 { skip }\n\
                 node 2 { x := a+b; out(x) }\n\
                 node 3 { x := a+b }\n\
                 node 4 { out(x) }\n\
                 edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
            )
            .unwrap(),
        ];
        for (src_id, source) in sources.into_iter().enumerate() {
            let optimized = optimize(&source).program;
            let mut initialized = source.clone();
            initialized.split_critical_edges();
            initialize(&mut initialized);
            let universe = explore(&initialized, &UniverseConfig::default());
            for (pid, candidate) in universe.programs.iter().enumerate() {
                for seed in 0..6 {
                    let (Some((cand_evals, _)), Some((opt_evals, _))) =
                        (costs(candidate, seed), costs(&optimized, seed))
                    else {
                        continue;
                    };
                    assert!(
                        opt_evals <= cand_evals,
                        "universe program {pid} of source {src_id} beats the output \
                         ({cand_evals} < {opt_evals}) on seed {seed}:\n{}",
                        canonical_text(candidate)
                    );
                }
            }
        }
    }

    #[test]
    fn terminal_programs_are_cost_equivalent() {
        // Local confluence (Lemma 3.6) + improvement-only steps imply all
        // relatively optimal programs agree on expression costs.
        let mut g = crate::restricted::fig8_example();
        g.split_critical_edges();
        let universe = explore(&g, &UniverseConfig::default());
        assert!(!universe.truncated);
        let mut profiles: Vec<Vec<(u64, u64)>> = Vec::new();
        for &t in &universe.terminal {
            let profile: Vec<(u64, u64)> = (0..6)
                .filter_map(|seed| costs(&universe.programs[t], seed))
                .collect();
            profiles.push(profile);
        }
        for pair in profiles.windows(2) {
            let evals_a: Vec<u64> = pair[0].iter().map(|c| c.0).collect();
            let evals_b: Vec<u64> = pair[1].iter().map(|c| c.0).collect();
            assert_eq!(evals_a, evals_b, "terminal programs differ in evaluations");
        }
    }

    #[test]
    fn every_universe_member_is_semantically_equal() {
        let mut g = crate::restricted::fig8_example();
        g.split_critical_edges();
        let universe = explore(&g, &UniverseConfig::default());
        for (pid, candidate) in universe.programs.iter().enumerate() {
            assert_eq!(candidate.validate(), Ok(()), "program {pid}");
            for seed in 0..6 {
                let cfg = Config {
                    oracle: Oracle::random(seed, 8),
                    inputs: vec![("y".into(), 3), ("z".into(), -2)],
                    ..Config::default()
                };
                let a = run(&g, &cfg);
                let b = run(candidate, &cfg);
                assert_eq!(
                    a.observable(),
                    b.observable(),
                    "program {pid} differs:\n{}",
                    canonical_text(candidate)
                );
            }
        }
    }

    #[test]
    fn successors_of_a_stable_program_are_few() {
        // A fully optimized program's successors only reorder candidates.
        let g =
            parse("start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2").unwrap();
        let succs = successors(&g);
        // Hoisting x := a+b within node 1 is a no-op (already at entry).
        assert!(succs.is_empty());
    }
}
