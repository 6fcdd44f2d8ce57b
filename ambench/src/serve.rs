//! serve-hot and serve-cold: an in-process `amserve` (`am_serve::Server`)
//! on localhost TCP, driven by an open-loop generator over one
//! connection. Requests are sent on a fixed schedule and timed from the
//! moment each was due, so a stall also delays the requests queued behind
//! it.

use std::collections::HashMap;
use std::net::Shutdown;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use am_ir::random::SplitMix64;
use am_lang::SourceKind;
use am_serve::proto::{self, Envelope, OptimizeRequest};
use am_serve::{Client, Endpoint, NetStream, Reply, Server, ServerConfig, StatsSnapshot};
use am_trace::Tracer;

use crate::alloc;
use crate::check::{self, Counts};
use crate::gen::{self, Input};
use crate::layers::Replay;
use crate::stats::{median, tail, Tail};
use crate::Outcome;

/// One serve workload's fixed parameters.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Distinct programs in play: the hot set, or the cold pool.
    pub programs: usize,
    /// Draw requests at random from the set (hot) or walk it in order so
    /// no program repeats within `programs` requests (cold).
    pub hot: bool,
    /// The low fixed rate, requests per second.
    pub low_rps: f64,
    /// The high fixed rate, about half the measured capacity.
    pub high_rps: f64,
    /// Latency limit on the tail percentile, milliseconds.
    pub limit_ms: f64,
    /// The stretch of the `max_rps` ladder searched: lowest and highest
    /// rate, requests per second.
    pub ladder: (f64, f64),
}

/// Mantissas of the Renard R40 series: 40 steps a decade, about 6% each.
const R40: [f64; 40] = [
    1.00, 1.06, 1.12, 1.18, 1.25, 1.32, 1.40, 1.50, 1.60, 1.70, 1.80, 1.90, 2.00, 2.12, 2.24, 2.36,
    2.50, 2.65, 2.80, 3.00, 3.15, 3.35, 3.55, 3.75, 4.00, 4.25, 4.50, 4.75, 5.00, 5.30, 5.60, 6.00,
    6.30, 6.70, 7.10, 7.50, 8.00, 8.50, 9.00, 9.50,
];

impl Spec {
    /// The `max_rps` ladder: the R40 rates from `ladder.0` to `ladder.1`.
    pub fn ladder(&self) -> Vec<f64> {
        (1..6)
            .flat_map(|e| {
                R40.iter()
                    .map(move |m| (m * 10f64.powi(e) * 100.0).round() / 100.0)
            })
            .filter(|&r| r >= self.ladder.0 && r <= self.ladder.1)
            .collect()
    }
}

/// The generator's own lateness bound: a fixed-rate step whose sends ran
/// later than this at p99 makes the run invalid.
const LAG_BOUND_MS: f64 = 50.0;
/// Requests due this early in a step are sent, answered and checked but
/// left out of its latency statistics: the first requests after an idle
/// connection measure the idle, not the rate.
const LEAD_IN: Duration = Duration::from_millis(250);
/// Most windows, each on its own connection, per fixed-rate step. A
/// ladder step is one window: a backlog must be able to build up.
const WINDOWS: usize = 6;
/// Fewest requests per window: enough for a p99 with ten beyond it after
/// the lead-in.
const WINDOW_MIN: usize = 1100;
/// Ladder probes the ladder budget is cut into: bisection over about 50
/// rungs plus a retry of each failed probe.
const LADDER_PROBES: f64 = 10.0;
/// How long a step waits for its last replies before counting timeouts.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Server workers and the in-memory cache capacity (`amserve` defaults).
const WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 1024;

struct Arrival {
    id: u64,
    done: Instant,
    decode: Duration,
    reply: Result<Reply, String>,
}

struct Sent {
    prog: usize,
    lead_in: bool,
    due: Instant,
    encode: Duration,
    send: Duration,
}

/// What one request came to.
struct Answer {
    id: u64,
    lead_in: bool,
    prog: usize,
    latency_ms: f64,
    encode: Duration,
    send: Duration,
    decode: Duration,
    queue_micros: u64,
    service_micros: u64,
}

/// Replies as they arrive, reduced to what the statistics need; each
/// returned program goes straight to [`Outputs`].
#[derive(Default)]
struct Tally {
    answers: Vec<Answer>,
    /// Replies read, matched or not.
    arrived: usize,
    /// Replies matched to a request.
    answered: usize,
    /// Replies that were not a converged result.
    failed: u64,
}

impl Tally {
    fn absorb(&mut self, a: Arrival, first_id: u64, sent: &[Sent], outputs: &mut Outputs) {
        self.arrived += 1;
        let Some(s) =
            a.id.checked_sub(first_id)
                .and_then(|i| sent.get(i as usize))
        else {
            self.failed += 1;
            return;
        };
        self.answered += 1;
        match a.reply {
            Ok(Reply::Result(r)) if r.converged => {
                outputs.record(s.prog, r.canonical);
                self.answers.push(Answer {
                    id: a.id,
                    lead_in: s.lead_in,
                    prog: s.prog,
                    latency_ms: a.done.duration_since(s.due).as_secs_f64() * 1e3,
                    encode: s.encode,
                    send: s.send,
                    decode: a.decode,
                    queue_micros: r.queue_micros,
                    service_micros: r.service_micros,
                });
            }
            // Busy, error, unconverged or unexpected: failed.
            _ => self.failed += 1,
        }
    }
}

/// One rate step's results.
struct Step {
    rps: f64,
    answers: Vec<Answer>,
    attempted: u64,
    failed: u64,
    /// How late each send was, milliseconds.
    lags: Vec<f64>,
    /// Outstanding replies after the last send (the largest over the
    /// step's windows).
    backlog: usize,
    /// Outstanding replies when the first, second and third quarter of
    /// the last window's requests had been sent.
    quarters: [usize; 3],
    aborted: bool,
    /// The tail latency of each window.
    tails: Vec<Tail>,
}

impl Step {
    fn latencies(&self) -> Vec<f64> {
        // A failed request misses every limit: it counts as infinitely late.
        let mut v: Vec<f64> = self
            .answers
            .iter()
            .filter(|a| !a.lead_in)
            .map(|a| a.latency_ms)
            .collect();
        v.extend((0..self.failed).map(|_| f64::INFINITY));
        v
    }

    /// The step's tail latency: the median over its windows of each
    /// window's tail, so one window hit by a scheduling burst does not set
    /// the figure. Reported at the lowest percentile any window reached.
    fn tail(&self) -> Tail {
        let values: Vec<f64> = self.tails.iter().map(|t| t.value).collect();
        Tail {
            value: median(&values),
            percentile: self
                .tails
                .iter()
                .map(|t| t.percentile)
                .fold(100.0, f64::min),
            samples: self.tails.iter().map(|t| t.samples).sum(),
        }
    }

    fn lag(&self) -> Tail {
        tail(&self.lags, 99.0)
    }

    /// Whether the backlog grew: rising at every quarter of the step and
    /// past a floor that the start-of-step transient stays under.
    fn growing(&self) -> bool {
        let [q1, q2, q3] = self.quarters;
        q1 < q2 && q2 < q3 && q3 < self.backlog && self.backlog > 16
    }

    fn merge(mut self, next: Step) -> Step {
        self.answers.extend(next.answers);
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.lags.extend(next.lags);
        self.backlog = self.backlog.max(next.backlog);
        self.quarters = next.quarters;
        self.aborted |= next.aborted;
        self.tails.extend(next.tails);
        self
    }

    fn summary(&self, label: &str) -> String {
        let lat = self.latencies();
        let (t, lag) = (self.tail(), self.lag());
        format!(
            "step {label}: {:.0} req/s, {} sent, {} failed, p50 {:.3} ms, p{:.2} {:.3} ms \
             (median of window tails {:.3?}, {} samples), \
             lag p{:.2} {:.3} ms, backlog {:?} then {}{}",
            self.rps,
            self.attempted,
            self.failed,
            median(&lat),
            t.percentile,
            t.value,
            self.tails.iter().map(|t| t.value).collect::<Vec<_>>(),
            t.samples,
            lag.percentile,
            lag.value,
            self.quarters,
            self.backlog,
            if self.aborted {
                ", aborted (backlog over limit)"
            } else {
                ""
            }
        )
    }
}

/// One load connection and the thread reading its replies.
struct Conn {
    writer: NetStream,
    reader: JoinHandle<()>,
    arrivals: Receiver<Arrival>,
    received: Arc<AtomicUsize>,
}

impl Conn {
    fn open(endpoint: &Endpoint, tracer: &Tracer) -> Result<Conn, String> {
        let stream = NetStream::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let (tx, arrivals) = channel();
        let received = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&received);
        let tracer = tracer.clone();
        let reader = thread::spawn(move || {
            let mut stream = stream;
            // Ends when the connection closes.
            while let Ok(Some(payload)) = proto::read_frame(&mut stream) {
                let span = tracer.span("client", "decode");
                let parsed = proto::parse_response(&payload);
                let decode = span.end();
                let done = Instant::now();
                let (id, reply) = match parsed {
                    Ok((id, reply)) => (id, Ok(reply)),
                    Err(e) => (0, Err(e)),
                };
                counter.fetch_add(1, Ordering::SeqCst);
                if tx
                    .send(Arrival {
                        id,
                        done,
                        decode,
                        reply,
                    })
                    .is_err()
                {
                    return;
                }
            }
        });
        Ok(Conn {
            writer,
            reader,
            arrivals,
            received,
        })
    }

    /// Closes both directions, which ends the reader, and joins it.
    fn close(self) {
        let _ = match &self.writer {
            NetStream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            NetStream::Unix(s) => s.shutdown(Shutdown::Both),
        };
        let _ = self.reader.join();
    }
}

/// A running server.
struct Session {
    endpoint: Endpoint,
    server: JoinHandle<std::io::Result<()>>,
    next_id: u64,
    tracer: Tracer,
}

impl Session {
    /// Boots a server, a traced one keeping every request's trace for
    /// `trace-tail`, and returns it with a first load connection. That
    /// connection is made before the accept loop starts, so it is taken
    /// at once rather than at the loop's next poll.
    fn start(traced: bool, tracer: Tracer) -> Result<(Session, Conn), String> {
        let defaults = ServerConfig::default();
        let server = Server::bind(ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_owned()),
            workers: WORKERS.min(nproc()),
            // Deep enough that overload shows as latency, not as `busy`.
            queue_depth: 1 << 16,
            cache_capacity: CACHE_CAPACITY,
            trace_ring: if traced { 1 << 16 } else { defaults.trace_ring },
            ..defaults
        })
        .map_err(|e| format!("bind: {e}"))?;
        let endpoint = server.endpoint().clone();
        let conn = Conn::open(&endpoint, &tracer)?;
        let server = thread::spawn(move || server.run());
        let session = Session {
            endpoint,
            server,
            next_id: 1,
            tracer,
        };
        Ok((session, conn))
    }

    fn control(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("control connect: {e}"))
    }

    fn stats(&self) -> Result<StatsSnapshot, String> {
        self.control()?.stats().map_err(|e| e.to_string())
    }

    /// Drains the server and joins its thread.
    fn stop(self) -> Result<(), String> {
        let result = self.control()?.shutdown().map_err(|e| e.to_string());
        match self.server.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }

    /// Sends `count` requests at `rps` in windows of at least
    /// [`WINDOW_MIN`] requests (at most `max_windows` of them), each on a
    /// fresh connection: how a TCP connection's send and ACK timing
    /// settles differs from one connection to the next, and a step spread
    /// over several connections reports their mixture instead of one draw.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        programs: &[Input],
        rps: f64,
        count: usize,
        max_windows: usize,
        traced: bool,
        abort_backlog: Option<usize>,
        pick: &mut dyn FnMut(usize) -> usize,
        outputs: &mut Outputs,
    ) -> Result<Step, String> {
        let windows = (count / WINDOW_MIN).clamp(1, max_windows);
        let per = count.div_ceil(windows).max(1);
        let mut step: Option<Step> = None;
        let mut left = count;
        while left > 0 {
            let n = per.min(left);
            left -= n;
            let mut conn = Conn::open(&self.endpoint, &self.tracer)?;
            let part = self.window(
                &mut conn,
                programs,
                rps,
                n,
                traced,
                abort_backlog,
                pick,
                outputs,
            );
            conn.close();
            step = Some(match step {
                None => part,
                Some(s) => s.merge(part),
            });
        }
        Ok(step.expect("count is at least one"))
    }

    /// One window of a step: sends `count` requests at `rps` on `conn`,
    /// the `k`-th for program `pick(k)`, with trace ids when `traced`;
    /// waits for every reply. With `abort_backlog`, stops sending once
    /// that many replies are outstanding (an overloaded ladder step).
    #[allow(clippy::too_many_arguments)]
    fn window(
        &mut self,
        conn: &mut Conn,
        programs: &[Input],
        rps: f64,
        count: usize,
        traced: bool,
        abort_backlog: Option<usize>,
        pick: &mut dyn FnMut(usize) -> usize,
        outputs: &mut Outputs,
    ) -> Step {
        let first_id = self.next_id;
        let mut sent: Vec<Sent> = Vec::with_capacity(count);
        let mut lags = Vec::with_capacity(count);
        let mut aborted = false;
        let mut tally = Tally::default();
        let gap = Duration::from_secs_f64(1.0 / rps);
        let start = Instant::now() + Duration::from_millis(2);
        let mut send_failed = 0u64;
        let mut quarters = [0; 3];
        let quarter = (count / 4).max(1);
        let outstanding = |sent: usize| sent - conn.received.load(Ordering::SeqCst);
        for k in 0..count {
            let due = start + gap * k as u32;
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            lags.push(due.elapsed().as_secs_f64() * 1e3);
            let prog = pick(k);
            let id = self.next_id;
            self.next_id += 1;
            let span = self.tracer.span("client", "encode");
            let payload = proto::encode_request(&Envelope {
                id,
                request: proto::Request::Optimize(OptimizeRequest {
                    name: programs[prog].name.clone(),
                    kind: SourceKind::Ir,
                    text: programs[prog].text.clone(),
                    trace: traced.then(|| format!("{id:016x}")),
                }),
            });
            let encode = span.end();
            let span = self.tracer.span("client", "send");
            let ok = proto::write_frame(&mut conn.writer, &payload).is_ok();
            let send = span.end();
            if !ok {
                send_failed += 1;
            }
            sent.push(Sent {
                prog,
                lead_in: due < start + LEAD_IN,
                due,
                encode,
                send,
            });
            for a in conn.arrivals.try_iter() {
                tally.absorb(a, first_id, &sent, outputs);
            }
            let now_outstanding = outstanding(sent.len());
            if (k + 1) % quarter == 0 && (k + 1) / quarter <= 3 {
                quarters[(k + 1) / quarter - 1] = now_outstanding;
            }
            if abort_backlog.is_some_and(|limit| now_outstanding > limit) {
                aborted = true;
                break;
            }
        }
        let backlog = outstanding(sent.len());
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while tally.arrived < sent.len() - send_failed as usize {
            let left = deadline.saturating_duration_since(Instant::now());
            match conn.arrivals.recv_timeout(left) {
                Ok(a) => tally.absorb(a, first_id, &sent, outputs),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        // Never answered: timed out.
        let failed = send_failed
            + tally.failed
            + (sent.len() - send_failed as usize).saturating_sub(tally.answered) as u64;
        let mut step = Step {
            rps,
            attempted: sent.len() as u64,
            failed,
            answers: tally.answers,
            lags,
            backlog,
            quarters,
            aborted,
            tails: Vec::new(),
        };
        step.tails.push(tail(&step.latencies(), 99.0));
        step
    }
}

fn nproc() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Every distinct output seen per program; each is checked once after
/// the timed steps, and a repeat is byte-compared for free.
#[derive(Default)]
struct Outputs {
    seen: HashMap<usize, Vec<String>>,
}

impl Outputs {
    fn record(&mut self, prog: usize, canonical: String) {
        let outs = self.seen.entry(prog).or_default();
        if !outs.contains(&canonical) {
            outs.push(canonical);
        }
    }

    /// Checks every distinct (input, output) pair; returns the counts
    /// summed over all pairs and the number of failing pairs.
    fn check(&self, programs: &[Input], seed: u64, notes: &mut Vec<String>) -> (Counts, u64) {
        let mut total = Counts::default();
        let mut bad = 0;
        let mut keys: Vec<&usize> = self.seen.keys().collect();
        keys.sort();
        for &prog in keys {
            for out in &self.seen[&prog] {
                match check::check(&programs[prog].text, out, seed ^ prog as u64) {
                    Ok(c) => total.add(&c),
                    Err(e) => {
                        bad += 1;
                        notes.push(format!("check failed on {}: {e}", programs[prog].name));
                    }
                }
            }
        }
        (total, bad)
    }
}

struct Picker {
    rng: SplitMix64,
    next: usize,
    programs: usize,
    hot: bool,
}

impl Picker {
    fn pick(&mut self) -> usize {
        if self.hot {
            self.rng.gen_range(0..self.programs)
        } else {
            let p = self.next % self.programs;
            self.next += 1;
            p
        }
    }
}

/// Sets up the inputs and a running server (warm for the hot set).
fn setup(
    spec: &Spec,
    seed: u64,
    traced: bool,
    tracer: &Tracer,
) -> Result<(Vec<Input>, Session), String> {
    let programs = gen::small_programs(seed, spec.programs);
    let (mut session, mut conn) = Session::start(traced, tracer.clone())?;
    if spec.hot {
        let mut outputs = Outputs::default();
        let warm = session.window(
            &mut conn,
            &programs,
            2000.0,
            programs.len(),
            false,
            None,
            &mut |k| k,
            &mut outputs,
        );
        if warm.failed > 0 {
            return Err(format!(
                "warm-up: {} of {} failed",
                warm.failed, warm.attempted
            ));
        }
    }
    conn.close();
    Ok((programs, session))
}

/// Runs one serve workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(spec, seed, seconds, traced, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.correct = false;
            out.failed += 1;
            out.attempted += 1;
            out.notes.push(format!("error: {e}"));
        }
    }
    out
}

fn run_inner(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut replay = traced.then(Replay::default);
    let tracer = replay
        .as_ref()
        .map_or_else(Tracer::disabled, |r| r.tracer().clone());
    // Set up several times; the median is `setup_s`, the last one is used.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..crate::SETUPS {
        if let Some((_, old)) = kept.take() {
            Session::stop(old)?;
        }
        let t = Instant::now();
        kept = Some(setup(spec, seed, traced, &tracer)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (programs, mut session) = kept.expect("set-ups ran");
    out.metric("setup_s", median(&setups), "s");
    alloc::reset_peak();

    let mut outputs = Outputs::default();
    let mut picker = Picker {
        rng: SplitMix64::new(seed ^ 0x10AD),
        next: 0,
        programs: programs.len(),
        hot: spec.hot,
    };
    let before = session.stats()?;
    let mut steps: Vec<(String, Step)> = Vec::new();
    // Untraced: the low rate for 40% of the time, the high rate for 15%,
    // the ladder for the rest. Traced: the low rate untraced, then traced
    // (tracing every request of the high rate would make the generator
    // itself late).
    let plan: &[(&str, f64, f64, bool)] = if traced {
        &[
            ("low-untraced", spec.low_rps, 0.4, false),
            ("low", spec.low_rps, 0.4, true),
        ]
    } else {
        &[
            ("low", spec.low_rps, 0.4, false),
            ("high", spec.high_rps, 0.15, false),
        ]
    };
    for &(label, rps, share, traced_step) in plan {
        let count = (rps * seconds * share).round().max(1.0) as usize;
        let s = session.step(
            &programs,
            rps,
            count,
            WINDOWS,
            traced_step,
            None,
            &mut |_| picker.pick(),
            &mut outputs,
        )?;
        steps.push((label.to_owned(), s));
    }
    // The heap at the workload's own rates; the ladder's overloaded probes
    // pile up queued requests in proportion to how far past capacity the
    // bisection happened to probe.
    out.metric(
        "peak_heap_mib",
        alloc::mib(alloc::peak_bytes() as f64),
        "MiB",
    );
    if !traced {
        let budget = Duration::from_secs_f64(seconds * 0.45);
        let max_rps = ladder(
            spec,
            &mut session,
            &programs,
            budget,
            &mut picker,
            &mut outputs,
            &mut steps,
        )?;
        out.metric("max_rps", max_rps, "req/s");
    }
    let after = session.stats()?;
    let entries = if traced {
        let (entries, dropped) = session
            .control()?
            .trace_tail(1 << 16)
            .map_err(|e| e.to_string())?;
        if dropped > 0 {
            out.notes
                .push(format!("trace ring dropped {dropped} entries"));
        }
        entries
    } else {
        Vec::new()
    };
    session.stop()?;

    for (label, s) in &steps {
        out.notes.push(s.summary(label));
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    // The fixed-rate steps: low and high untraced; the traced low step.
    let fixed: Vec<(&str, &Step)> = steps
        .iter()
        .filter_map(|(label, s)| match label.as_str() {
            "low" => Some(("", s)),
            "high" => Some((".high", s)),
            _ => None,
        })
        .collect();
    for &(suffix, step) in &fixed {
        let lag = step.lag();
        if lag.value > LAG_BOUND_MS {
            out.invalid(format!(
                "generator ran late: lag p{:.2} {:.3} ms at {:.0} req/s exceeds {LAG_BOUND_MS} ms",
                lag.percentile, lag.value, step.rps
            ));
        }
        out.metric(
            &format!("lat_p50_ms{suffix}"),
            median(&step.latencies()),
            "ms",
        );
        let t = step.tail();
        out.metric(&format!("lat_p99_ms{suffix}"), t.value, "ms");
        out.notes.push(format!(
            "lat_p99_ms{suffix} is the median over {} windows of p{:.2} ({} samples in all)",
            step.tails.len(),
            t.percentile,
            t.samples
        ));
    }

    // Output check, outside every timed window.
    let (counts, bad) = outputs.check(&programs, seed, &mut out.notes);
    out.check_failures(bad);
    out.checked(&counts);
    let mean_nodes = programs.iter().map(|p| p.nodes).sum::<usize>() as f64 / programs.len() as f64;
    if let Some(max_rps) = out.value("max_rps") {
        out.metric("nodes_per_s", max_rps * mean_nodes, "nodes/s");
    }

    // Server-side attribution from data the server returns.
    let d = |f: fn(&StatsSnapshot) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let requests = d(|s| s.requests_optimize).max(1.0);
    out.metric(
        "pipeline.hit_rate",
        d(|s| s.memory_hits) / requests,
        "share",
    );
    out.metric(
        "pipeline.evictions",
        d(|s| s.memory_cache.evictions),
        "count",
    );
    out.metric("pipeline.coalesced", d(|s| s.coalesced), "count");
    out.metric("serve.busy", d(|s| s.busy), "count");
    out.notes.push(format!(
        "server: {} optimize requests, {} fresh, {} memory hits, queue peak {}, request p50/p99 {}/{} us",
        after.requests_optimize - before.requests_optimize,
        after.fresh - before.fresh,
        after.memory_hits - before.memory_hits,
        after.queue_peak,
        after.latency_request.p50,
        after.latency_request.p99
    ));
    out.metric(
        "loadgen.lag_ms_p99",
        fixed.iter().map(|(_, s)| s.lag().value).fold(0.0, f64::max),
        "ms",
    );
    out.metric(
        "loadgen.backlog",
        fixed.iter().map(|(_, s)| s.backlog).max().unwrap_or(0) as f64,
        "count",
    );
    if let Some(replay) = replay.as_mut() {
        attribute(spec, &steps, &entries, &programs, &outputs, replay, out);
        out.export_trace(spec.name, seed, &replay.events());
    }
    Ok(())
}

/// How one ladder probe went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Pass,
    /// Over the latency limit or with a growing backlog.
    Fail,
    /// So far past capacity that the probe was cut short.
    Overload,
}

/// Bisects the ladder, within `budget`, for the highest rate whose tail
/// latency meets the limit with no growing backlog. A probe that failed
/// without being cut short is run once more and the second verdict
/// stands: a burst of outside load can fail one short probe below
/// capacity, while real overload fails both.
fn ladder(
    spec: &Spec,
    session: &mut Session,
    programs: &[Input],
    budget: Duration,
    picker: &mut Picker,
    outputs: &mut Outputs,
    steps: &mut Vec<(String, Step)>,
) -> Result<f64, String> {
    let started = Instant::now();
    let ladder = spec.ladder();
    let mut probe = |rung: usize, steps: &mut Vec<(String, Step)>| -> Result<Verdict, String> {
        let rps = ladder[rung];
        let count = (rps * budget.as_secs_f64() / LADDER_PROBES)
            .round()
            .max(1.0) as usize;
        // Past this backlog the step has failed and sending more only
        // lengthens the drain.
        let abort = (rps * 0.3) as usize + 64;
        let s = session.step(
            programs,
            rps,
            count,
            1,
            false,
            Some(abort),
            &mut |_| picker.pick(),
            outputs,
        )?;
        // Generator lateness needs no test of its own here: latency is
        // timed from the due time, so a late send already counts.
        let pass = !s.aborted && !s.growing() && s.failed == 0 && s.tail().value <= spec.limit_ms;
        let verdict = match (pass, s.aborted) {
            (true, _) => Verdict::Pass,
            (false, false) => Verdict::Fail,
            (false, true) => Verdict::Overload,
        };
        steps.push((format!("ladder {rps} {verdict:?}"), s));
        Ok(verdict)
    };
    let (mut lo, mut hi) = (None::<usize>, ladder.len());
    while lo.map_or(0, |l| l + 1) < hi && started.elapsed() < budget {
        let mid = (lo.map_or(0, |l| l + 1) + hi) / 2;
        let pass = match probe(mid, steps)? {
            Verdict::Pass => true,
            Verdict::Fail => probe(mid, steps)? == Verdict::Pass,
            Verdict::Overload => false,
        };
        if pass {
            lo = Some(mid);
        } else {
            hi = mid;
        }
    }
    Ok(lo.map_or(0.0, |l| ladder[l]))
}

/// The traced run's per-layer attribution: trace-tail entries joined to
/// the client spans by wire trace id, then the low step's inputs replayed
/// through the layer calls, each replayed output hash compared with the
/// server's.
fn attribute(
    spec: &Spec,
    steps: &[(String, Step)],
    entries: &[am_obs::TraceEntry],
    programs: &[Input],
    outputs: &Outputs,
    replay: &mut Replay,
    out: &mut Outcome,
) {
    let find = |label: &str| &steps.iter().find(|(l, _)| l == label).expect("step ran").1;
    let (low, untraced) = (find("low"), find("low-untraced"));
    let ring: HashMap<u64, &am_obs::TraceEntry> = entries
        .iter()
        .filter_map(|e| u64::from_str_radix(&e.trace_id, 16).ok().map(|id| (id, e)))
        .collect();
    let (mut queue, mut service, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spanned, mut total) = (0.0, 0.0);
    let mut unjoined = 0;
    let ms = |micros: u64| micros as f64 / 1e3;
    for a in &low.answers {
        let (q, s) = match ring.get(&a.id) {
            Some(e) => (e.queue_micros, e.service_micros),
            None => {
                unjoined += 1;
                (a.queue_micros, a.service_micros)
            }
        };
        let w = a.latency_ms - ms(q + s);
        queue.push(ms(q));
        service.push(ms(s));
        wire.push(w);
        let client = (a.encode + a.send + a.decode).as_secs_f64() * 1e3;
        spanned += client + ms(q + s);
        total += a.latency_ms;
        replay.tracer().counter(
            "serve",
            "request",
            &[
                ("req", a.id as i64),
                ("latency_us", (a.latency_ms * 1e3) as i64),
                ("queue_us", q as i64),
                ("service_us", s as i64),
                ("wire_us", (w * 1e3) as i64),
            ],
        );
    }
    if unjoined > 0 {
        out.notes.push(format!(
            "{unjoined} requests missing from trace-tail; used their result fields"
        ));
    }
    out.metric("serve.queue_ms_p50", median(&queue), "ms");
    out.tail_metric("serve.queue_ms_p99", &queue);
    out.metric("serve.service_ms_p50", median(&service), "ms");
    out.tail_metric("serve.service_ms_p99", &service);
    out.metric("serve.wire_ms_p50", median(&wire), "ms");
    out.tail_metric("serve.wire_ms_p99", &wire);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    out.metric(
        "serve.encode_us",
        low.answers.iter().map(|a| us(a.encode + a.send)).sum(),
        "us",
    );
    out.metric(
        "serve.decode_us",
        low.answers.iter().map(|a| us(a.decode)).sum(),
        "us",
    );
    out.metric(
        "trace.overhead_share",
        median(&low.latencies()) / median(&untraced.latencies()) - 1.0,
        "share",
    );
    out.metric(
        "trace.unattributed_share",
        1.0 - spanned / total.max(f64::MIN_POSITIVE),
        "share",
    );

    // Replay what the server computed. A hot request is a hit: parse and
    // hash, then lookup; the optimizer ran once per hot program, at warm-up.
    let mut mismatched = Vec::new();
    let mut full = |req: u64, prog: usize, replay: &mut Replay| match replay
        .optimize(req, &programs[prog].text)
    {
        Ok(text) => {
            if !outputs.seen.get(&prog).is_some_and(|o| o.contains(&text)) {
                mismatched.push(programs[prog].name.clone());
            }
        }
        Err(e) => mismatched.push(format!("{}: {e}", programs[prog].name)),
    };
    if spec.hot {
        for prog in 0..programs.len() {
            full(prog as u64, prog, replay);
        }
        for a in &low.answers {
            if let Err(e) = replay.lookup(a.id, &programs[a.prog].text) {
                mismatched.push(format!("{}: {e}", programs[a.prog].name));
            }
        }
    } else {
        for a in &low.answers {
            full(a.id, a.prog, replay);
        }
    }
    if !mismatched.is_empty() {
        out.check_failures(mismatched.len() as u64);
        out.notes.push(format!(
            "traced replay disagrees with the server on {mismatched:?}"
        ));
    }
    crate::layer_metrics(&replay.totals, out);
}
