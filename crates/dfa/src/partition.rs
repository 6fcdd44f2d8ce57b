//! Point-partitioned parallel fixed-point solves over a single graph.
//!
//! This module splits the *point set* across threads — the axis that
//! actually grows on XL workloads (10k–100k points over a universe of a few
//! hundred patterns), where splitting the bit universe would leave each
//! thread a handful of words. The design:
//!
//! * **Rank-contiguous partitions.** Points are permuted into the
//!   direction's priority order (the [`Schedule`] rank), and the rank axis
//!   is cut into contiguous chunks of roughly [`PartitionOptions::target_points`]
//!   points. Contiguity lets every worker own a `split_at_mut` slice of
//!   the fact arrays — no locks on the hot path.
//! * **Retreating-edge-safe cuts.** A cut between ranks `c-1` and `c` is
//!   only allowed when no edge runs from a rank `≥ c` back to a rank
//!   `< c`. Every loop (SCC) therefore sits wholly inside one partition,
//!   and all cross-partition edges point forward in rank order, so the
//!   partition dependency graph is acyclic.
//! * **Wavefront sweeps with boundary-frontier exchange.** Partitions are
//!   grouped into waves by longest-path level in that dependency DAG.
//!   Waves run in order; the partitions of one wave run concurrently on
//!   scoped workers, each draining a local priority worklist over its own
//!   slice. Between waves the frontier — the settled boundary rows a later
//!   wave reads — is snapshotted, so workers never observe a row mid-update.
//!
//! Because every cross-partition edge is forward in rank, a partition's
//! upstream rows are all settled by the time its wave runs: one pass over
//! the waves reaches the fixed point. The converged facts are **bit-identical**
//! to the serial solver's for any worker count — chaotic iteration of a
//! monotone gen/kill system from ⊤ (must) or ⊥ (may) can only stop at the
//! greatest (resp. least) fixed point, which is unique. Partition geometry,
//! wave order and metric accumulation depend only on the graph and the
//! options, never on thread timing, so iteration counters are deterministic
//! too (though, being per-partition sums, they differ from the serial
//! solver's counters).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use am_bitset::{ActiveWords, BitSet};

use crate::adjacency::Adjacency;
use crate::solve::{solve_scheduled, Confluence, Direction, Problem, Schedule, Solution};

/// Tuning knobs for [`solve_partitioned_with`].
#[derive(Clone, Debug)]
pub struct PartitionOptions {
    /// Worker threads to run wave partitions on. `1` falls back to the
    /// serial scheduled solver.
    pub workers: usize,
    /// Preferred points per partition; actual sizes stretch to the nearest
    /// retreating-edge-safe cut.
    pub target_points: usize,
    /// Graphs with fewer points than this are solved serially — partition
    /// bookkeeping only pays off once the point set is large.
    pub min_points: usize,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            workers: 1,
            target_points: 2048,
            min_points: 4096,
        }
    }
}

impl PartitionOptions {
    /// Options for `workers` threads with the default size thresholds.
    pub fn with_workers(workers: usize) -> Self {
        PartitionOptions {
            workers,
            ..PartitionOptions::default()
        }
    }
}

/// Solves `problem` with the point set partitioned across `workers`
/// threads, using default size thresholds.
///
/// Facts are bit-identical to [`solve_scheduled`] for every worker count;
/// see the module docs for the argument. Falls back to the serial solver
/// for small graphs, `workers <= 1`, or when the rank axis admits no safe
/// cut (e.g. one giant loop).
///
/// # Panics
///
/// Panics under the same conditions as [`solve_scheduled`], and if
/// `workers == 0`.
pub fn solve_partitioned(
    succs: &Adjacency,
    preds: &Adjacency,
    problem: &Problem,
    schedule: &Schedule,
    workers: usize,
) -> Solution {
    solve_partitioned_with(
        succs,
        preds,
        problem,
        schedule,
        &PartitionOptions::with_workers(workers),
    )
}

/// [`solve_partitioned`] with explicit size thresholds (tests use tiny
/// thresholds to force partitioning on small graphs).
pub fn solve_partitioned_with(
    succs: &Adjacency,
    preds: &Adjacency,
    problem: &Problem,
    schedule: &Schedule,
    opts: &PartitionOptions,
) -> Solution {
    assert!(opts.workers > 0, "at least one worker required");
    let n = succs.len();
    if opts.workers == 1 || n < opts.min_points {
        return solve_scheduled(succs, preds, problem, schedule);
    }
    let (upstream, downstream) = match problem.direction {
        Direction::Forward => (preds, succs),
        Direction::Backward => (succs, preds),
    };
    let seq = schedule.seq(problem.direction);
    let ranks = schedule.ranks(problem.direction);
    assert_eq!(seq.len(), n, "schedule length mismatch");

    // Adjacency in rank space: up_ranks[r] lists the ranks feeding rank r.
    let mut up_ranks: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut down_ranks: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 0..n {
        let p = seq[r] as usize;
        up_ranks[r] = upstream[p].iter().map(|&q| ranks[q as usize]).collect();
        down_ranks[r] = downstream[p].iter().map(|&q| ranks[q as usize]).collect();
    }

    let cuts = safe_cuts(&down_ranks, opts.target_points);
    if cuts.len() < 2 {
        // No admissible interior cut: the whole rank axis is one loop.
        return solve_scheduled(succs, preds, problem, schedule);
    }
    let parts = partition_ranges(&cuts);
    let waves = wave_levels(&parts, &up_ranks);

    // State permuted into rank order so each partition owns a contiguous
    // slice. Initialized to the confluence's neutral start, same as the
    // serial cold solve.
    let top = match problem.confluence {
        Confluence::Must => BitSet::full(problem.universe),
        Confluence::May => BitSet::new(problem.universe),
    };
    let mut in_by_rank: Vec<BitSet> = vec![top.clone(); n];
    let mut out_by_rank: Vec<BitSet> = vec![top; n];

    // Per-point transfer rows, indexed by rank, built eagerly (the cold
    // partitioned solve visits every point at least once).
    let rows: Vec<ActiveWords> = (0..n)
        .map(|r| {
            let p = seq[r] as usize;
            ActiveWords::build(&problem.gen[p], &problem.kill[p])
        })
        .collect();

    let mut iterations: u64 = 0;
    let mut worklist_pushes: u64 = 0;
    let mut max_worklist_len: usize = 0;

    for wave in &waves {
        // Boundary-frontier exchange: snapshot every settled row this
        // wave's partitions read from outside themselves. All such rows
        // are at lower ranks (cuts admit no retreating cross edge) and
        // belong to earlier waves, so they are final.
        let mut frontier: Vec<Option<BitSet>> = vec![None; n];
        for &k in wave {
            let range = &parts[k];
            for r in range.clone() {
                for &u in &up_ranks[r] {
                    let u = u as usize;
                    if !range.contains(&u) && frontier[u].is_none() {
                        frontier[u] = Some(out_by_rank[u].clone());
                    }
                }
            }
        }

        // Hand each partition of the wave its own contiguous slices.
        let mut jobs: Vec<PartitionJob> = Vec::with_capacity(wave.len());
        {
            let mut in_rest: &mut [BitSet] = &mut in_by_rank;
            let mut out_rest: &mut [BitSet] = &mut out_by_rank;
            let mut consumed = 0usize;
            for &k in wave {
                let range = parts[k].clone();
                let (_, in_tail) = in_rest.split_at_mut(range.start - consumed);
                let (in_slice, in_tail) = in_tail.split_at_mut(range.len());
                let (_, out_tail) = out_rest.split_at_mut(range.start - consumed);
                let (out_slice, out_tail) = out_tail.split_at_mut(range.len());
                in_rest = in_tail;
                out_rest = out_tail;
                consumed = range.end;
                jobs.push(PartitionJob {
                    range,
                    input: in_slice,
                    output: out_slice,
                    metrics: LocalMetrics::default(),
                });
            }
        }

        let threads = opts.workers.min(jobs.len());
        if threads <= 1 {
            for job in &mut jobs {
                run_partition(job, problem, seq, &up_ranks, &down_ranks, &rows, &frontier);
            }
        } else {
            let next = AtomicUsize::new(0);
            let job_cells: Vec<std::sync::Mutex<&mut PartitionJob>> =
                jobs.iter_mut().map(std::sync::Mutex::new).collect();
            let frontier = &frontier;
            let up_ranks = &up_ranks;
            let down_ranks = &down_ranks;
            let rows = &rows;
            let job_cells = &job_cells;
            let next = &next;
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= job_cells.len() {
                            break;
                        }
                        let mut job = job_cells[i].lock().expect("job lock");
                        run_partition(&mut job, problem, seq, up_ranks, down_ranks, rows, frontier);
                    });
                }
            });
        }

        // Metrics accumulate in partition order — worker-count independent.
        for job in &jobs {
            iterations += job.metrics.iterations;
            worklist_pushes += job.metrics.worklist_pushes;
            max_worklist_len = max_worklist_len.max(job.metrics.max_worklist_len);
        }
    }

    // Permute back to point order and undo the direction normalization.
    let mut merged_in = vec![BitSet::new(problem.universe); n];
    let mut transferred = vec![BitSet::new(problem.universe); n];
    for r in 0..n {
        let p = seq[r] as usize;
        std::mem::swap(&mut merged_in[p], &mut in_by_rank[r]);
        std::mem::swap(&mut transferred[p], &mut out_by_rank[r]);
    }
    let (before, after) = match problem.direction {
        Direction::Forward => (merged_in, transferred),
        Direction::Backward => (transferred, merged_in),
    };
    Solution {
        before,
        after,
        iterations,
        worklist_pushes,
        max_worklist_len,
    }
}

/// One wave-partition work item: the partition's rank range and its
/// exclusive slices of the rank-ordered fact arrays.
struct PartitionJob<'a> {
    range: std::ops::Range<usize>,
    input: &'a mut [BitSet],
    output: &'a mut [BitSet],
    metrics: LocalMetrics,
}

#[derive(Default)]
struct LocalMetrics {
    iterations: u64,
    worklist_pushes: u64,
    max_worklist_len: usize,
}

/// Drains one partition's local priority worklist. Upstream rows inside
/// the partition are read live from the owned slice; rows outside come
/// from the frozen `frontier` snapshot.
fn run_partition(
    job: &mut PartitionJob<'_>,
    problem: &Problem,
    seq: &[u32],
    up_ranks: &[Vec<u32>],
    down_ranks: &[Vec<u32>],
    rows: &[ActiveWords],
    frontier: &[Option<BitSet>],
) {
    let start = job.range.start;
    let len = job.range.len();
    let mut on_list = vec![true; len];
    // Seed every owned rank, lowest first — the cold-solve seeding.
    let mut heap: BinaryHeap<Reverse<u32>> =
        (start..job.range.end).map(|r| Reverse(r as u32)).collect();
    job.metrics.worklist_pushes += len as u64;
    job.metrics.max_worklist_len = job.metrics.max_worklist_len.max(heap.len());
    while let Some(Reverse(r)) = heap.pop() {
        let r = r as usize;
        let local = r - start;
        on_list[local] = false;
        job.metrics.iterations += 1;
        let p = seq[r] as usize;
        // Merge incoming facts into the owned entry row.
        if up_ranks[r].is_empty() {
            job.input[local].copy_from(&problem.boundary);
        } else {
            let mut first = true;
            for &q in &up_ranks[r] {
                let q = q as usize;
                // Borrow dance: the upstream row either lives in our own
                // output slice or in the frontier snapshot.
                let row: &BitSet = if job.range.contains(&q) {
                    &job.output[q - start]
                } else {
                    frontier[q]
                        .as_ref()
                        .expect("cross-partition upstream row must be frozen")
                };
                if first {
                    job.input[local].copy_from(row);
                    first = false;
                } else {
                    match problem.confluence {
                        Confluence::Must => job.input[local].intersect_with(row),
                        Confluence::May => job.input[local].union_with(row),
                    };
                }
            }
        }
        // Fused transfer with exact change detection.
        let changed = {
            let (input_row, output_row) = (&job.input[local], &mut job.output[local]);
            output_row.transfer_from(input_row, &problem.gen[p], &problem.kill[p], &rows[r])
        };
        if changed {
            for &q in &down_ranks[r] {
                let q = q as usize;
                // Downstream ranks outside the partition are handled by
                // later waves (cross edges always point rank-forward).
                if job.range.contains(&q) && !on_list[q - start] {
                    on_list[q - start] = true;
                    heap.push(Reverse(q as u32));
                    job.metrics.worklist_pushes += 1;
                }
            }
            job.metrics.max_worklist_len = job.metrics.max_worklist_len.max(heap.len());
        }
    }
}

/// Cut positions over the rank axis: ascending, always starting with 0 and
/// ending with `n`. A cut at `c` is admissible when no edge runs from a
/// rank `>= c` to a rank `< c` (no retreating edge across the cut), so
/// every loop stays inside one partition. Cuts are placed greedily at the
/// first admissible position at or after each `target_points` stride.
fn safe_cuts(down_ranks: &[Vec<u32>], target_points: usize) -> Vec<usize> {
    let n = down_ranks.len();
    let target = target_points.max(1);
    // unsafe_before[c] == true when some edge spans the boundary between
    // ranks c-1 and c. An edge a -> b with rank(b) <= rank(a) blocks every
    // cut in (rank(b), rank(a)].
    let mut retreat_from: Vec<u32> = vec![0; n]; // by target rank: max source
    let mut has_retreat = vec![false; n];
    for (a, downs) in down_ranks.iter().enumerate() {
        for &b in downs {
            let b = b as usize;
            if b <= a {
                has_retreat[b] = true;
                retreat_from[b] = retreat_from[b].max(a as u32);
            }
        }
    }
    let mut cuts = vec![0usize];
    let mut blocked_until = 0usize; // cuts <= this are blocked
    let mut next_target = target;
    for c in 1..n {
        if has_retreat[c - 1] {
            blocked_until = blocked_until.max(retreat_from[c - 1] as usize);
        }
        if c >= next_target && c > blocked_until {
            cuts.push(c);
            next_target = c + target;
        }
    }
    cuts.push(n);
    cuts
}

/// Expands cut positions into per-partition rank ranges.
fn partition_ranges(cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Longest-path levels of the partition dependency DAG, grouped into
/// waves: `waves[l]` lists the partitions of level `l` in rank order.
/// Partition `k` depends on `j` when some point of `k` has an upstream
/// rank inside `j`; all such `j < k`, so one ascending pass suffices.
fn wave_levels(parts: &[std::ops::Range<usize>], up_ranks: &[Vec<u32>]) -> Vec<Vec<usize>> {
    let part_of = |rank: usize| -> usize { parts.partition_point(|range| range.end <= rank) };
    let mut level = vec![0usize; parts.len()];
    for (k, range) in parts.iter().enumerate() {
        let mut lvl = 0usize;
        for r in range.clone() {
            for &u in &up_ranks[r] {
                let j = part_of(u as usize);
                if j != k {
                    debug_assert!(j < k, "cross edges must point rank-forward");
                    lvl = lvl.max(level[j] + 1);
                }
            }
        }
        level[k] = lvl;
    }
    let depth = level.iter().max().map_or(0, |&l| l + 1);
    let mut waves = vec![Vec::new(); depth];
    for (k, &l) in level.iter().enumerate() {
        waves[l].push(k);
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;

    fn tiny_opts(workers: usize) -> PartitionOptions {
        PartitionOptions {
            workers,
            target_points: 4,
            min_points: 0,
        }
    }

    fn random_setup(
        seed: u64,
        points: usize,
        universe: usize,
        confluence: Confluence,
        direction: Direction,
    ) -> (Adjacency, Adjacency, Problem) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut succs = vec![Vec::new(); points];
        let mut preds = vec![Vec::new(); points];
        for i in 0..points - 1 {
            succs[i].push(i + 1);
            preds[i + 1].push(i);
        }
        for _ in 0..points {
            let a = (next() as usize) % points;
            let b = (next() as usize) % points;
            if a != b && !succs[a].contains(&b) {
                succs[a].push(b);
                preds[b].push(a);
            }
        }
        let mut p = Problem::new(direction, confluence, points, universe);
        for _ in 0..universe * 2 {
            p.gen[(next() as usize) % points].insert((next() as usize) % universe);
            p.kill[(next() as usize) % points].insert((next() as usize) % universe);
        }
        (
            Adjacency::from_lists(&succs),
            Adjacency::from_lists(&preds),
            p,
        )
    }

    #[test]
    fn partitioned_matches_serial_on_random_graphs() {
        for seed in 0..12 {
            for (confluence, direction) in [
                (Confluence::Must, Direction::Forward),
                (Confluence::May, Direction::Forward),
                (Confluence::Must, Direction::Backward),
                (Confluence::May, Direction::Backward),
            ] {
                let (succs, preds, p) = random_setup(seed, 40, 24, confluence, direction);
                let schedule = Schedule::build(&succs, &preds);
                let serial = solve(&succs, &preds, &p);
                for workers in [1, 2, 4, 8] {
                    let par =
                        solve_partitioned_with(&succs, &preds, &p, &schedule, &tiny_opts(workers));
                    assert_eq!(
                        par.before, serial.before,
                        "seed {seed} {confluence:?} {direction:?} workers {workers}"
                    );
                    assert_eq!(
                        par.after, serial.after,
                        "seed {seed} {confluence:?} {direction:?} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_are_worker_count_independent() {
        let (succs, preds, p) = random_setup(7, 60, 16, Confluence::Must, Direction::Forward);
        let schedule = Schedule::build(&succs, &preds);
        let reference = solve_partitioned_with(&succs, &preds, &p, &schedule, &tiny_opts(2));
        for workers in [3, 4, 8] {
            let par = solve_partitioned_with(&succs, &preds, &p, &schedule, &tiny_opts(workers));
            assert_eq!(par.iterations, reference.iterations, "workers {workers}");
            assert_eq!(par.worklist_pushes, reference.worklist_pushes);
            assert_eq!(par.max_worklist_len, reference.max_worklist_len);
        }
    }

    #[test]
    fn small_graphs_fall_back_to_the_serial_path() {
        let (succs, preds, p) = random_setup(3, 20, 8, Confluence::Must, Direction::Forward);
        let schedule = Schedule::build(&succs, &preds);
        let opts = PartitionOptions {
            workers: 4,
            target_points: 4,
            min_points: 1000,
        };
        let par = solve_partitioned_with(&succs, &preds, &p, &schedule, &opts);
        let serial = solve_scheduled(&succs, &preds, &p, &schedule);
        assert_eq!(par.before, serial.before);
        // Serial fallback also means serial counters.
        assert_eq!(par.iterations, serial.iterations);
        assert_eq!(par.worklist_pushes, serial.worklist_pushes);
    }

    #[test]
    fn one_giant_loop_admits_no_cut_and_falls_back() {
        // A single cycle through every point: every interior cut crosses
        // the back edge.
        let n = 32;
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, s) in succs.iter_mut().enumerate() {
            let j = (i + 1) % n;
            s.push(j);
            preds[j].push(i);
        }
        let succs = Adjacency::from_lists(&succs);
        let preds = Adjacency::from_lists(&preds);
        let mut p = Problem::new(Direction::Forward, Confluence::Must, n, 4);
        p.gen[0].insert(0);
        p.kill[5].insert(0);
        let schedule = Schedule::build(&succs, &preds);
        let par = solve_partitioned_with(&succs, &preds, &p, &schedule, &tiny_opts(4));
        let serial = solve_scheduled(&succs, &preds, &p, &schedule);
        assert_eq!(par.before, serial.before);
        assert_eq!(par.after, serial.after);
    }

    #[test]
    fn loops_never_straddle_a_cut() {
        // Three 8-point cycles chained together; target_points of 4 wants
        // to cut inside each cycle but must defer to its boundary.
        let n = 24;
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let link =
            |a: usize, b: usize, succs: &mut Vec<Vec<usize>>, preds: &mut Vec<Vec<usize>>| {
                succs[a].push(b);
                preds[b].push(a);
            };
        for c in 0..3 {
            let base = c * 8;
            for i in 0..7 {
                link(base + i, base + i + 1, &mut succs, &mut preds);
            }
            // Back edge to the loop header, exit edge to the next loop.
            link(base + 7, base, &mut succs, &mut preds);
            if c < 2 {
                link(base + 7, base + 8, &mut succs, &mut preds);
            }
        }
        let succs = Adjacency::from_lists(&succs);
        let preds = Adjacency::from_lists(&preds);
        let down_ranks: Vec<Vec<u32>> = {
            let schedule = Schedule::build(&succs, &preds);
            let ranks = schedule.ranks(Direction::Forward);
            let seq = schedule.seq(Direction::Forward);
            (0..n)
                .map(|r| {
                    succs[seq[r] as usize]
                        .iter()
                        .map(|&q| ranks[q as usize])
                        .collect()
                })
                .collect()
        };
        let cuts = safe_cuts(&down_ranks, 4);
        // Cuts may only fall on cycle boundaries (ranks 0, 8, 16, 24).
        for &c in &cuts {
            assert_eq!(c % 8, 0, "cut {c} lands inside a cycle");
        }
        assert!(cuts.len() > 2, "chained cycles admit interior cuts");

        let mut p = Problem::new(Direction::Forward, Confluence::Must, n, 6);
        p.gen[0].insert(0);
        p.gen[0].insert(3);
        p.kill[9].insert(3);
        p.gen[12].insert(1);
        let schedule = Schedule::build(&succs, &preds);
        let serial = solve_scheduled(&succs, &preds, &p, &schedule);
        for workers in [2, 4] {
            let par = solve_partitioned_with(&succs, &preds, &p, &schedule, &tiny_opts(workers));
            assert_eq!(par.before, serial.before);
            assert_eq!(par.after, serial.after);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let (succs, preds, p) = random_setup(1, 8, 4, Confluence::Must, Direction::Forward);
        let schedule = Schedule::build(&succs, &preds);
        solve_partitioned(&succs, &preds, &p, &schedule, 0);
    }
}
