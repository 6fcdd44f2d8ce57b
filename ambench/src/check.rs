//! The output check, run outside every timed window: each optimized
//! program is parsed back from the bytes the system returned and run
//! against its input in the `am-ir` counting interpreter on fixed seeded
//! oracles and inputs. The optimizer takes no part in the verdict.

use am_ir::interp::{run, Config, Oracle, RunResult, StopReason};
use am_ir::random::SplitMix64;
use am_ir::text::parse;
use am_ir::{FlowGraph, Instr};
use am_lang::{compile_source, SourceKind};

/// Oracle runs per checked program pair.
pub const RUNS: usize = 3;

/// What the interpreter counted on one verified pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Expression evaluations of the input, summed over the oracle runs.
    pub input_evals: u64,
    /// Expression evaluations of the output, summed over the oracle runs.
    pub output_evals: u64,
    /// Instructions of the input.
    pub input_instrs: u64,
    /// Instructions of the output.
    pub output_instrs: u64,
    /// Outputs that `am_ir::text::parse` rejects as printed and that were
    /// read with split-node labels relabeled (see [`read_output`]).
    pub relabeled: u64,
}

impl Counts {
    /// Component-wise sum.
    pub fn add(&mut self, other: &Counts) {
        self.input_evals += other.input_evals;
        self.output_evals += other.output_evals;
        self.input_instrs += other.input_instrs;
        self.output_instrs += other.output_instrs;
        self.relabeled += other.relabeled;
    }

    /// Output evaluations over input evaluations: the generated code's
    /// run time.
    pub fn evals_ratio(&self) -> f64 {
        self.output_evals as f64 / self.input_evals.max(1) as f64
    }

    /// Output instructions over input instructions: its size.
    pub fn size_ratio(&self) -> f64 {
        self.output_instrs as f64 / self.input_instrs.max(1) as f64
    }
}

/// Checks that `output` (IR text as returned) behaves like `input` (the
/// IR text sent) on [`RUNS`] fixed oracles, each with its own seeded
/// values for every program variable of the input.
pub fn check(input: &str, output: &str, seed: u64) -> Result<Counts, String> {
    let before = compile_source(SourceKind::Ir, input).map_err(|e| format!("input: {e}"))?;
    let (after, relabeled) = read_output(output)?;
    let mut counts = check_graphs(&before, &after, seed)?;
    counts.relabeled = relabeled as u64;
    Ok(counts)
}

/// Parses returned IR text. The printer labels the node that splits the
/// critical edge `m -> n` as `Sm,n`, which `am_ir::text::parse` cannot
/// read back (a comma ends a label). When the text as printed does not
/// parse, it is read again with every comma inside a label written as
/// `'`, and the result says so: such an output is checked for its
/// behaviour and counted as not round-tripping.
pub fn read_output(text: &str) -> Result<(FlowGraph, bool), String> {
    let strict = match parse(text) {
        Ok(g) => return Ok((g, false)),
        Err(e) => e,
    };
    let mut relabeled = String::with_capacity(text.len());
    for line in text.lines() {
        let head = line.trim_start();
        if ["start ", "end ", "node ", "edge "]
            .iter()
            .any(|k| head.starts_with(k))
        {
            // Target lists are joined with ", "; a comma with no space
            // after it is part of a label.
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                let in_label = c == ',' && chars.peek().is_some_and(|&n| n != ' ');
                relabeled.push(if in_label { '\'' } else { c });
            }
        } else {
            relabeled.push_str(line);
        }
        relabeled.push('\n');
    }
    parse(&relabeled)
        .map(|g| (g, true))
        .map_err(|_| format!("output does not parse: {strict}"))
}

/// [`check`] on parsed programs.
pub fn check_graphs(before: &FlowGraph, after: &FlowGraph, seed: u64) -> Result<Counts, String> {
    after
        .validate()
        .map_err(|e| format!("output is malformed: {e:?}"))?;
    let vars: Vec<String> = before
        .pool()
        .iter()
        .filter(|&v| !before.pool().is_temp(v))
        .map(|v| before.pool().name(v).to_owned())
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x0C4E_C000);
    let mut counts = Counts {
        input_instrs: before.instr_count() as u64,
        output_instrs: after.instr_count() as u64,
        ..Counts::default()
    };
    for i in 0..RUNS {
        let config = Config {
            // Enough decisions to cross the whole program; every loop has
            // a branch, so the oracle (not the step limit) ends each run
            // and both programs stop at corresponding points.
            oracle: Oracle::random(rng.next_u64(), 4 * before.node_count() + 64),
            max_steps: u64::MAX,
            inputs: vars
                .iter()
                .map(|name| (name.clone(), rng.gen_range(1..=9usize) as i64 - 4))
                .collect(),
        };
        let a = run(before, &config);
        let b = run(after, &config);
        if !corresponding(&a, &b) {
            return Err(format!(
                "run {i}: input gave {:?} trap {:?} ({:?}), output gave {:?} trap {:?} ({:?})",
                a.outputs, a.trap, a.stop, b.outputs, b.trap, b.stop
            ));
        }
        counts.input_evals += a.expr_evals;
        counts.output_evals += b.expr_evals;
    }
    Ok(counts)
}

/// Observable equivalence of two runs on one oracle: equal outputs and
/// trap; or the same trap with one output sequence a prefix of the other
/// (a moved division may trap earlier or later on the path); or one run
/// cut off by the oracle while the other trapped, outputs agreeing up to
/// the shorter.
fn corresponding(a: &RunResult, b: &RunResult) -> bool {
    let prefix = |x: &[Vec<i64>], y: &[Vec<i64>]| y.starts_with(x) || x.starts_with(y);
    match (a.trap, b.trap) {
        (None, None) => a.outputs == b.outputs && a.stop == b.stop,
        (Some(ta), Some(tb)) => ta == tb && prefix(&a.outputs, &b.outputs),
        (None, Some(_)) => cut_off(a) && prefix(&a.outputs, &b.outputs),
        (Some(_), None) => cut_off(b) && prefix(&a.outputs, &b.outputs),
    }
}

fn cut_off(r: &RunResult) -> bool {
    matches!(r.stop, StopReason::OracleExhausted | StopReason::StepLimit)
}

/// The checker's self-test: optimize a small program whose every
/// instruction is observable, then drop each instruction of the output in
/// turn; every corrupted copy must fail the check while the intact output
/// passes.
pub fn self_test() -> Result<(), String> {
    const SRC: &str = "start 1\nend 3\nnode 1 { x := a+b; y := x*c }\n\
        node 2 { z := a+b; branch z > y }\nnode 3 { w := y-z; out(x,y,z,w) }\n\
        edge 1 -> 2\nedge 2 -> 2, 3";
    let input = compile_source(SourceKind::Ir, SRC).map_err(|e| e.to_string())?;
    let optimized = am_core::global::optimize(&input).program;
    check_graphs(&input, &optimized, 1).map_err(|e| format!("intact output rejected: {e}"))?;
    let mut dropped = 0;
    for n in optimized.nodes() {
        for i in 0..optimized.block(n).len() {
            let mut corrupt = optimized.clone();
            let removed = corrupt.block_mut(n).instrs.remove(i);
            if matches!(removed, Instr::Branch(_) | Instr::Skip) {
                continue; // control and no-ops: nothing observable to lose
            }
            if check_graphs(&input, &corrupt, 1).is_ok() {
                return Err(format!(
                    "dropping {removed:?} from node {} was not caught",
                    optimized.label(n)
                ));
            }
            dropped += 1;
        }
    }
    if dropped == 0 {
        return Err("self-test program has no instruction to drop".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::alpha::canonical_text;

    #[test]
    fn a_dropped_instruction_is_caught() {
        self_test().unwrap();
    }

    #[test]
    fn optimized_corpus_passes_and_counts_ratios() {
        let mut total = Counts::default();
        for (name, g) in am_ir::random::corpus80() {
            let text = canonical_text(&g);
            let out = canonical_text(&am_core::global::optimize(&g).program);
            total.add(&check(&text, &out, 5).unwrap_or_else(|e| panic!("{name}: {e}")));
        }
        assert!(total.evals_ratio() < 1.0, "{total:?}");
        assert!(total.input_evals > 0 && total.output_instrs > 0);
        // Split critical edges give labels the parser cannot read back.
        assert!(total.relabeled > 0, "{total:?}");
    }

    #[test]
    fn split_node_labels_are_read_back() {
        let text =
            "start s\nend e\nnode s { branch a > 0 }\nnode b { skip }\nnode Ss,e { x := a+1 }\n\
                    node e { out(x) }\nedge s -> b, Ss,e\nedge b -> e\nedge Ss,e -> e";
        assert!(parse(text).is_err());
        let (g, relabeled) = read_output(text).unwrap();
        assert!(relabeled);
        assert_eq!(g.node_count(), 4);
        assert!(g.nodes().any(|n| g.label(n) == "Ss'e"));
        assert!(
            !read_output("start s\nend e\nnode s { skip }\nnode e { skip }\nedge s -> e")
                .unwrap()
                .1
        );
    }

    #[test]
    fn a_changed_constant_is_caught() {
        let input = "start 1\nend 2\nnode 1 { x := a+1 }\nnode 2 { out(x) }\nedge 1 -> 2";
        let output = "start 1\nend 2\nnode 1 { x := a+2 }\nnode 2 { out(x) }\nedge 1 -> 2";
        assert!(check(input, output, 0).is_err());
        assert!(check(input, input, 0).is_ok());
    }
}
