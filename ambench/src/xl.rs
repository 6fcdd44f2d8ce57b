//! xl-batch: a closed loop, one XL program at a time, through
//! `am_pipeline::Pipeline` with one worker, as `amopt` drives it. Every
//! job gets a fresh pipeline, so it is a cache miss and the optimizer runs
//! in full.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use am_ir::alpha::stable_hash_text;
use am_ir::random::SplitMix64;
use am_lang::SourceKind;
use am_pipeline::{Job, JobOutcome, Pipeline, PipelineConfig};

use crate::alloc;
use crate::check::{self, Counts};
use crate::gen::{self, Input, XL_RUNGS};
use crate::layers::Replay;
use crate::stats::median;
use crate::Outcome;

fn pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers: Some(1),
        ..PipelineConfig::default()
    })
}

struct Sample {
    prog: usize,
    wall: Duration,
}

/// Runs xl-batch.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set up several times; the median is `setup_s`, the last one is used.
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        pool = gen::xl_pool(seed);
        std::hint::black_box(pipeline());
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups), "s");
    let jobs: Vec<Job> = pool
        .iter()
        .map(|p| Job::from_source(p.name.clone(), SourceKind::Ir, p.text.clone()))
        .collect();
    alloc::reset_peak();

    // The timed closed loop. Traced runs spend half the time here and
    // replay the same sequence through the layer calls afterwards.
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let mut rng = SplitMix64::new(seed ^ 0xBA7C);
    let mut samples = Vec::new();
    let mut outputs: HashMap<usize, String> = HashMap::new();
    let mut extra: Vec<(usize, String)> = Vec::new();
    let (mut hits, mut evictions) = (0u64, 0u64);
    let started = Instant::now();
    'passes: loop {
        // Each pass: the pool in a seeded order, with the top rung twice
        // so that `.high` rests on as many samples as the rest.
        let mut order: Vec<usize> = (0..pool.len())
            .chain((0..pool.len()).filter(|&p| pool[p].rung == XL_RUNGS.len() - 1))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for prog in order {
            if started.elapsed() >= budget {
                break 'passes;
            }
            // A fresh engine per job: every job is a cache miss.
            let engine = pipeline();
            let t = Instant::now();
            let report = engine.run_job(&jobs[prog]);
            let wall = t.elapsed();
            let stats = engine.cache().stats();
            hits += stats.hits;
            evictions += stats.evictions;
            out.attempted += 1;
            match report.outcome {
                JobOutcome::Optimized(o) if o.result.motion.converged => {
                    samples.push(Sample { prog, wall });
                    match outputs.get(&prog) {
                        None => {
                            outputs.insert(prog, o.result.canonical.clone());
                        }
                        Some(first) if *first == o.result.canonical => {}
                        Some(_) => extra.push((prog, o.result.canonical.clone())),
                    }
                }
                JobOutcome::Optimized(_) => {
                    out.failed += 1;
                    out.notes
                        .push(format!("{}: motion did not converge", pool[prog].name));
                }
                JobOutcome::Failed(e) | JobOutcome::Panicked(e) => {
                    out.failed += 1;
                    out.notes.push(format!("{}: {e}", pool[prog].name));
                }
            }
        }
    }
    out.metric(
        "peak_heap_mib",
        alloc::mib(alloc::peak_bytes() as f64),
        "MiB",
    );

    let ms = |s: &Sample| s.wall.as_secs_f64() * 1e3;
    let lat: Vec<f64> = samples.iter().map(ms).collect();
    let top = XL_RUNGS.len() - 1;
    let lat_top: Vec<f64> = samples
        .iter()
        .filter(|s| pool[s.prog].rung == top)
        .map(ms)
        .collect();
    let busy: f64 = samples.iter().map(|s| s.wall.as_secs_f64()).sum();
    let nodes: usize = samples.iter().map(|s| pool[s.prog].nodes).sum();
    out.metric("lat_p50_ms", median(&lat), "ms");
    out.tail_metric("lat_p99_ms", &lat);
    out.metric("lat_p50_ms.high", median(&lat_top), "ms");
    out.tail_metric("lat_p99_ms.high", &lat_top);
    out.metric(
        "max_rps",
        samples.len() as f64 / busy.max(f64::MIN_POSITIVE),
        "req/s",
    );
    out.metric(
        "nodes_per_s",
        nodes as f64 / busy.max(f64::MIN_POSITIVE),
        "nodes/s",
    );
    out.notes.push(format!(
        "{} programs ({} nodes) in {:.3} s of pipeline time; .high = the {}-node rung",
        samples.len(),
        nodes,
        busy,
        XL_RUNGS[top]
    ));

    // Output check, outside the timed window.
    let mut counts = Counts::default();
    let mut bad = 0;
    let mut checked: Vec<(&usize, &String)> = outputs.iter().collect();
    checked.sort();
    for (&prog, text) in checked.into_iter().chain(extra.iter().map(|(p, t)| (p, t))) {
        match check::check(&pool[prog].text, text, seed ^ prog as u64) {
            Ok(c) => counts.add(&c),
            Err(e) => {
                bad += 1;
                out.notes
                    .push(format!("check failed on {}: {e}", pool[prog].name));
            }
        }
    }
    out.check_failures(bad);
    out.checked(&counts);

    out.metric(
        "pipeline.hit_rate",
        hits as f64 / samples.len().max(1) as f64,
        "share",
    );
    out.metric("pipeline.evictions", evictions as f64, "count");
    out.metric("pipeline.coalesced", 0.0, "count");
    if traced {
        attribute(&pool, &samples, &outputs, &mut out, seed);
    }
    out
}

/// Replays the timed sequence through the layer calls and reports where
/// the time went; every replayed output must hash like the pipeline's.
fn attribute(
    pool: &[Input],
    samples: &[Sample],
    outputs: &HashMap<usize, String>,
    out: &mut Outcome,
    seed: u64,
) {
    let mut replay = Replay::default();
    let started = Instant::now();
    let mut mismatched = Vec::new();
    for (req, s) in samples.iter().enumerate() {
        match replay.optimize(req as u64, &pool[s.prog].text) {
            Ok(text) if stable_hash_text(&text) == stable_hash_text(&outputs[&s.prog]) => {}
            Ok(_) => mismatched.push(pool[s.prog].name.clone()),
            Err(e) => mismatched.push(format!("{}: {e}", pool[s.prog].name)),
        }
    }
    let traced = started.elapsed().as_secs_f64();
    if !mismatched.is_empty() {
        out.check_failures(mismatched.len() as u64);
        out.notes.push(format!(
            "traced replay disagrees with the pipeline on {mismatched:?}"
        ));
    }
    let untraced: f64 = samples.iter().map(|s| s.wall.as_secs_f64()).sum();
    let attributed = replay.totals.attributed().as_secs_f64();
    out.metric("trace.overhead_share", traced / untraced - 1.0, "share");
    out.metric(
        "trace.unattributed_share",
        1.0 - attributed / untraced,
        "share",
    );
    out.notes.push(format!(
        "replayed {} programs: untraced pipeline {:.3} s, traced layer calls {:.3} s, attributed {:.3} s",
        samples.len(),
        untraced,
        traced,
        attributed
    ));
    for name in [
        "serve.queue_ms_p50",
        "serve.queue_ms_p99",
        "serve.service_ms_p50",
        "serve.service_ms_p99",
        "serve.wire_ms_p50",
        "serve.wire_ms_p99",
        "serve.encode_us",
        "serve.decode_us",
        "serve.busy",
        "loadgen.lag_ms_p99",
        "loadgen.backlog",
    ] {
        // No server and no open-loop generator on this workload.
        let unit = crate::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed")
            .1;
        out.metric(name, 0.0, unit);
    }
    crate::layer_metrics(&replay.totals, out);
    out.export_trace("xl-batch", seed, &replay.events());
}
