//! `ambench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ambench/Cargo.toml -- \
//!     --workload xl-batch|serve-hot|serve-cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed as `metric NAME = VALUE UNIT`; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `ambench/README.md` for the workloads, the metric
//! definitions and which layer metric should move which end-to-end one.

mod alloc;
mod check;
mod gen;
mod layers;
mod serve;
mod stats;
mod xl;

use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload with tracing off. The
/// tails `lat_p99_ms` and `lat_p99_ms.high` are printed on every run but
/// not listed: on a shared 2-core machine they swing too far between runs
/// for any bound (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("max_rps", "req/s"),
    ("nodes_per_s", "nodes/s"),
    ("peak_heap_mib", "MiB"),
    ("evals_ratio", "ratio"),
    ("size_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.parse_share", "share"),
    ("lang.alloc_mib", "MiB"),
    ("ir.hash_ms", "ms"),
    ("ir.split_ms", "ms"),
    ("ir.encode_ms", "ms"),
    ("ir.out_kib", "KiB"),
    ("core.init_ms", "ms"),
    ("core.motion_ms", "ms"),
    ("core.flush_ms", "ms"),
    ("core.flush_share", "share"),
    ("core.motion_rounds", "count"),
    ("core.useful_round_ratio", "ratio"),
    ("core.motion_alloc_mib", "MiB"),
    ("core.flush_alloc_mib", "MiB"),
    ("dfa.motion_pushes", "count"),
    ("dfa.flush_pushes", "count"),
    ("dfa.pushes_per_point", "ratio"),
    ("pipeline.hit_rate", "share"),
    ("pipeline.evictions", "count"),
    ("pipeline.coalesced", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.wire_ms_p99", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.busy", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog", "count"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["xl-batch", "serve-hot", "serve-cold"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// serve-hot: hits only; capacity about 7000-8500 req/s on 2 vCPUs.
const SERVE_HOT: serve::Spec = serve::Spec {
    name: "serve-hot",
    programs: 64,
    hot: true,
    low_rps: 200.0,
    high_rps: 3000.0,
    limit_ms: 100.0,
    ladder: (1000.0, 16000.0),
};

/// serve-cold: misses only; capacity about 1500-2000 req/s on 2 vCPUs.
const SERVE_COLD: serve::Spec = serve::Spec {
    name: "serve-cold",
    programs: 8192,
    hot: false,
    low_rps: 200.0,
    high_rps: 800.0,
    limit_ms: 100.0,
    ladder: (250.0, 8000.0),
};

/// What a run measured and found.
pub struct Outcome {
    /// No output failed the check and the run was valid.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: errors, refusals, timeouts, unconverged motion,
    /// outputs failing the check.
    pub failed: u64,
    /// Everything measured, in order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable context printed before the result.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Records the tail percentile of `values` under `name`, noting the
    /// percentile it is and the sample count it rests on.
    pub fn tail_metric(&mut self, name: &str, values: &[f64]) {
        let t = stats::tail(values, 99.0);
        self.metric(name, t.value, "ms");
        self.notes.push(format!(
            "{name} is p{:.2} over {} samples",
            t.percentile, t.samples
        ));
    }

    /// A recorded metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Counts `n` outputs that failed the check.
    pub fn check_failures(&mut self, n: u64) {
        if n > 0 {
            self.correct = false;
            self.failed += n;
        }
    }

    /// Records what the output check counted.
    pub fn checked(&mut self, counts: &check::Counts) {
        self.metric("evals_ratio", counts.evals_ratio(), "ratio");
        self.metric("size_ratio", counts.size_ratio(), "ratio");
        self.metric("check.relabeled_outputs", counts.relabeled as f64, "count");
        if counts.relabeled > 0 {
            self.notes.push(format!(
                "{} distinct outputs do not parse as printed: split-node labels contain ','",
                counts.relabeled
            ));
        }
    }

    /// Marks the run invalid.
    pub fn invalid(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("invalid run: {why}"));
    }

    /// Writes the traced run's events through the `am-trace` JSONL
    /// exporter under `.bench_out/` in the working directory.
    pub fn export_trace(&mut self, workload: &str, seed: u64, events: &[am_trace::Event]) {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{workload}-seed{seed}.trace.jsonl"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, am_trace::export::jsonl(events)));
        match written {
            Ok(()) => self.notes.push(format!(
                "trace: {} events in {}",
                events.len(),
                path.display()
            )),
            Err(e) => self.notes.push(format!("trace not written: {e}")),
        }
    }
}

/// The lang/ir/core/dfa metrics from a traced replay.
pub fn layer_metrics(t: &layers::Totals, out: &mut Outcome) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let share = |part: std::time::Duration, whole: std::time::Duration| {
        part.as_secs_f64() / whole.as_secs_f64().max(f64::MIN_POSITIVE)
    };
    let mib = |b: u64| alloc::mib(b as f64);
    out.metric("lang.parse_ms", ms(t.parse), "ms");
    out.metric("lang.parse_share", share(t.parse, t.attributed()), "share");
    out.metric("lang.alloc_mib", mib(t.parse_alloc), "MiB");
    out.metric("ir.hash_ms", ms(t.hash), "ms");
    out.metric("ir.split_ms", ms(t.split), "ms");
    out.metric("ir.encode_ms", ms(t.encode), "ms");
    out.metric("ir.out_kib", t.out_bytes as f64 / 1024.0, "KiB");
    out.metric("core.init_ms", ms(t.init), "ms");
    out.metric("core.motion_ms", ms(t.motion), "ms");
    out.metric("core.flush_ms", ms(t.flush), "ms");
    out.metric("core.flush_share", share(t.flush, t.optimize()), "share");
    out.metric("core.motion_rounds", t.rounds as f64, "count");
    out.metric(
        "core.useful_round_ratio",
        t.rounds.saturating_sub(t.optimized) as f64 / t.rounds.max(1) as f64,
        "ratio",
    );
    out.metric("core.motion_alloc_mib", mib(t.motion_alloc), "MiB");
    out.metric("core.flush_alloc_mib", mib(t.flush_alloc), "MiB");
    out.metric("dfa.motion_pushes", t.motion_pushes as f64, "count");
    out.metric("dfa.flush_pushes", t.flush_pushes as f64, "count");
    out.metric(
        "dfa.pushes_per_point",
        (t.motion_pushes + t.flush_pushes) as f64 / t.points.max(1) as f64,
        "ratio",
    );
    out.notes.push(format!(
        "layers: parse {:.3} ms, hash {:.3} ms, split {:.3} ms, init {:.3} ms, motion {:.3} ms, \
         flush {:.3} ms, encode {:.3} ms over {} full chains",
        ms(t.parse),
        ms(t.hash),
        ms(t.split),
        ms(t.init),
        ms(t.motion),
        ms(t.flush),
        ms(t.encode),
        t.optimized
    ));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    // JSON has no infinities; a tail made of failed requests is reported
    // as the largest finite number (the run is already not `correct`).
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ambench: {e}");
            eprintln!(
                "usage: ambench --workload {} --seed N [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "xl-batch" => xl::run(args.seed, args.seconds, args.trace),
        "serve-hot" => serve::run(&SERVE_HOT, args.seed, args.seconds, args.trace),
        _ => serve::run(&SERVE_COLD, args.seed, args.seconds, args.trace),
    };
    if let Err(e) = check::self_test() {
        out.invalid(format!("checker self-test: {e}"));
    }
    let errors = out.attempted.max(1);
    out.metric("error_rate", out.failed as f64 / errors as f64, "share");

    println!(
        "ambench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let Some(value) = out.value(name) else {
            eprintln!(
                "ambench: metric {name} was not measured on {}",
                args.workload
            );
            return ExitCode::FAILURE;
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct && out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// workloads and metrics this binary reports, with valid names.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = am_trace::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        all.extend(WORKLOADS);
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "names are used once");
    }

    #[test]
    fn ladders_are_ascending_and_bracket_the_high_rates() {
        for spec in [&SERVE_HOT, &SERVE_COLD] {
            let ladder = spec.ladder();
            assert!(ladder.windows(2).all(|w| w[0] < w[1] && w[1] / w[0] < 1.08));
            assert_eq!(ladder.first(), Some(&spec.ladder.0));
            assert_eq!(ladder.last(), Some(&spec.ladder.1));
            assert!(spec.low_rps < spec.high_rps && spec.high_rps < spec.ladder.1);
        }
        assert_eq!(SERVE_HOT.ladder().len(), 49);
    }
}
