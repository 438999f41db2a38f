//! # perfbench — the repository's benchmark
//!
//! A single-threaded harness that runs fixed DSM workloads on FAST/GM and
//! UDP/GM under the conservative lockstep scheduler, validates every
//! result, and reports two clocks kept apart:
//!
//! * **modeled** metrics — virtual time the simulation computes for the
//!   paper's testbed. They depend only on the code and the workload seed.
//! * **host** metrics — wall and CPU seconds the simulator costs on the
//!   machine running it.
//!
//! An untraced run times whole passes over the workload's cells and
//! reports the end-to-end metrics; a traced run adds per-layer counts, op
//! latencies and a span trace. See `README.md` in this directory.

pub mod host;
pub mod json;
pub mod run;
pub mod trace;
pub mod workload;

use std::sync::Arc;
use std::time::Instant;

use tm_fast::Transport;
use tm_sim::stats::NodeStats;
use tmk::metrics::GAUGE_RPC_DEPTH;

use run::{run_cell, CellRun, OpSamples};
use tm_sim::SimParams;
use trace::{chrome_json, TraceSink};
use workload::{setup, tag, Body, Cell, MixPlan, Setup, Sizes, Workload};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds the untraced run keeps starting passes for.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Set-ups an untraced run times; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Passes an untraced run makes at least, whatever `seconds` says.
const MIN_PASSES: usize = 3;

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::paper(),
        }
    }
}

/// A named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Free text printed next to the value (sample counts and the like).
    pub note: String,
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Passes timed (untraced) or made (traced).
    pub passes: usize,
    /// Chrome trace-event JSON of the traced pass.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The machine-read last line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of virtual-ns samples, in microseconds.
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One pass: every cell of the workload, in the seed's order.
struct Pass {
    cells: Vec<CellRun>,
}

impl Pass {
    fn run(setup: &Setup, trace: Option<&Arc<TraceSink>>) -> Pass {
        Pass {
            cells: setup
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| run_cell(c, i, trace))
                .collect(),
        }
    }

    fn on(&self, t: Transport) -> impl Iterator<Item = &CellRun> {
        self.cells.iter().filter(move |c| c.transport == t)
    }

    fn modeled_ms(&self, t: Transport) -> f64 {
        self.on(t).map(|c| c.modeled_ns as f64 / 1e6).sum()
    }

    fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    fn cpu_s(&self) -> f64 {
        self.cells.iter().map(|c| c.cpu_s).sum()
    }

    fn stats(&self, t: Option<Transport>) -> NodeStats {
        let mut s = NodeStats::default();
        for c in self
            .cells
            .iter()
            .filter(|c| t.is_none_or(|t| c.transport == t))
        {
            s.merge(&c.stats);
        }
        s
    }

    fn ops(&self, t: Transport) -> OpSamples {
        let mut o = OpSamples::default();
        for c in self.on(t) {
            o.extend(&c.ops);
        }
        o
    }
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.note(name, unit, value, String::new());
    }

    fn note(&mut self, name: impl Into<String>, unit: &'static str, value: f64, note: String) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            // An empty f64 sum is -0.0; report it as 0.
            value: value + 0.0,
            note,
        });
    }
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    let (metrics, passes, trace_json) = if opts.trace {
        let (m, json) = traced_run(opts, &mut tally);
        (m, 2, Some(json))
    } else {
        let (m, n) = timed_run(opts, &mut tally);
        (m, n, None)
    };
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        passes,
        trace_json,
    }
}

/// Set-up: inputs and references, then the warm-up clusters.
fn set_up(opts: &Options, trace: Option<&Arc<TraceSink>>, tally: &mut Tally) -> Setup {
    let su = setup(opts.workload, opts.seed, &opts.sizes, trace);
    for w in warm_up_cells(&su, opts.seed) {
        tally.add(&run_cell(&w, 0, None));
    }
    su
}

/// Validated checks attempted and failed so far.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, c: &CellRun) {
        self.attempted += c.attempted;
        self.failed += c.failed;
    }
}

/// Untraced: `SETUP_REPS` timed set-ups, passes until `opts.seconds`
/// would be exceeded, then the end-to-end metrics as medians.
fn timed_run(opts: &Options, tally: &mut Tally) -> (Vec<Metric>, usize) {
    let mut setup_s = Vec::new();
    let mut su = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        su = Some(set_up(opts, None, tally));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let su = &su.expect("at least one set-up");
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t0 = Instant::now();
        let p = Pass::run(su, None);
        p.cells.iter().for_each(|c| tally.add(c));
        passes.push(p);
        let last = t0.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + last > opts.seconds {
            break;
        }
    }
    let n = passes.len();
    let values = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    // Host time per pass: each cell's least time over the passes, summed.
    // Load from elsewhere on a shared host only ever adds time, so a cell
    // needs one quiet moment in the run, not a quiet run.
    let host = |f: fn(&CellRun) -> f64| -> (f64, String) {
        let per_cell = (0..su.cells.len())
            .map(|i| {
                passes
                    .iter()
                    .map(|p| f(&p.cells[i]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let sums = values(&|p| p.cells.iter().map(f).sum());
        let note = format!(
            "Σ per-cell minima of {n} passes (median pass {:.3})",
            median(&sums)
        );
        (per_cell, note)
    };
    let mut out = Out(Vec::new());
    for t in [Transport::Fast, Transport::Udp] {
        let cells = su.cells.iter().filter(|c| c.transport == t).count();
        out.note(
            format!("modeled_{}_ms", tag(t)),
            "ms",
            median(&values(&|p| p.modeled_ms(t))),
            format!("sum over {cells} {} cells, median of {n} passes", t.label()),
        );
    }
    let (wall, note) = host(|c| c.wall_s);
    out.note("wall_s", "s", wall, note);
    let (cpu, note) = host(|c| c.cpu_s);
    out.note("cpu_s", "s", cpu, note);
    out.note(
        "setup_s",
        "s",
        median(&setup_s),
        format!("median of {} set-ups", setup_s.len()),
    );
    out.put("peak_rss_mb", "MiB", host::peak_rss_mb());
    (out.0, n)
}

/// Traced: one traced set-up, an untraced pass, a traced pass, then every
/// FAST cell again; returns the per-layer metrics and the Chrome trace.
fn traced_run(opts: &Options, tally: &mut Tally) -> (Vec<Metric>, String) {
    let sink = TraceSink::new();
    let su = &set_up(opts, Some(&sink), tally);
    let u = Pass::run(su, None);
    let traced = Pass::run(su, Some(&sink));
    let mut fast_cells = 0;
    let mut replay_mismatch = 0;
    for (i, c) in su.cells.iter().enumerate() {
        if c.transport == Transport::Fast {
            let (a, b) = (&u.cells[i], run_cell(c, i, None));
            tally.add(&b);
            fast_cells += 1;
            replay_mismatch +=
                u64::from(a.modeled_ns != b.modeled_ns || a.stats.msgs_sent != b.stats.msgs_sent);
        }
    }
    u.cells
        .iter()
        .chain(&traced.cells)
        .for_each(|c| tally.add(c));
    let labels: Vec<String> = su.cells.iter().map(|c| c.label.clone()).collect();
    let trace_json = chrome_json(&sink.take(), &labels);

    let mut out = Out(Vec::new());
    let all = u.stats(None);
    let ms = |ns: u64| ns as f64 / 1e6;
    let node_time_ns: u64 = u.cells.iter().map(|c| c.node_time_ns).sum();
    out.put(
        "sim.sched.host_us_per_msg",
        "us",
        ratio(u.wall_s() * 1e6, all.msgs_recv as f64),
    );
    out.put(
        "sim.sched.cpu_per_wall",
        "ratio",
        ratio(u.cpu_s(), u.wall_s()),
    );
    out.note(
        "sim.sched.replay_mismatch",
        "count",
        replay_mismatch as f64,
        format!("of {fast_cells} FAST cells run twice"),
    );
    out.put(
        "sim.node_host_cpu_s",
        "s",
        u.cells.iter().map(|c| c.node_cpu_s).sum(),
    );
    out.put("sim.clock.compute_ms", "ms", ms(all.compute_time.0));
    out.put("sim.clock.service_ms", "ms", ms(all.service_time.0));
    out.put("sim.clock.idle_ms", "ms", ms(all.idle_time.0));
    out.put(
        "sim.clock.idle_share",
        "ratio",
        ratio(all.idle_time.0 as f64, node_time_ns as f64),
    );
    for (app, _) in &opts.sizes.apps {
        for t in [Transport::Fast, Transport::Udp] {
            let v = u
                .on(t)
                .filter(|c| c.app == Some(app))
                .map(|c| ms(c.modeled_ns))
                .sum();
            out.put(format!("apps.{app}.modeled_{}_ms", tag(t)), "ms", v);
        }
    }
    out.put("apps.seq_ref_s", "s", su.seq_ref_s);

    let events = |k: &str| -> u64 {
        traced
            .cells
            .iter()
            .filter_map(|c| c.metrics.get(k))
            .map(|e| e.count)
            .sum()
    };
    let counts = [
        ("tmk.coherence.page_faults", all.page_faults),
        ("tmk.coherence.pages_fetched", all.pages_fetched),
        ("tmk.coherence.diffs_created", all.diffs_created),
        ("tmk.coherence.diffs_applied", all.diffs_applied),
        ("tmk.coherence.twins_created", all.twins_created),
        ("tmk.coherence.diff_fanout", events("diff_fanout")),
        ("tmk.sync.remote_acquires", all.remote_acquires),
        ("tmk.sync.barriers", all.barriers),
        ("tmk.rpc.requests_served", all.requests_served),
        ("tmk.rpc.retransmits", all.retransmits),
        ("tmk.rpc.dup_suppressed", all.dup_requests_suppressed),
        ("tmk.rpc.stale_dropped", all.stale_responses_dropped),
        ("substrate.gm.token_stalls", all.token_stalls),
        ("substrate.udp.dgrams_dropped", all.dgrams_dropped),
        ("substrate.udp.crc_rejected", all.crc_rejected),
        ("substrate.udp.malformed_dropped", all.malformed_dropped),
    ];
    for (name, v) in counts {
        out.put(name, "count", v as f64);
    }
    let issued = events("prefetch_issued");
    out.note(
        "tmk.coherence.prefetch_hit_ratio",
        "ratio",
        ratio(events("prefetch_hit") as f64, issued as f64),
        format!("{issued} issued"),
    );
    out.note(
        "tmk.rpc.rtx_per_drop",
        "ratio",
        ratio(all.retransmits as f64, all.dgrams_dropped as f64),
        format!(
            "{} retransmits / {} drops",
            all.retransmits, all.dgrams_dropped
        ),
    );
    let depth = traced
        .cells
        .iter()
        .filter_map(|c| c.metrics.gauge(GAUGE_RPC_DEPTH))
        .max();
    out.put(
        "tmk.rpc.max_outstanding",
        "count",
        depth.unwrap_or(0) as f64,
    );

    for t in [Transport::Fast, Transport::Udp] {
        let x = tag(t);
        let ops = u.ops(t);
        let every = ops.all();
        let kinds: [(String, &[u64]); 4] = [
            (format!("op_{{q}}_us.{x}"), &every),
            (format!("tmk.coherence.fault_{{q}}_us.{x}"), &ops.fault),
            (format!("tmk.sync.acquire_{{q}}_us.{x}"), &ops.acquire),
            (format!("tmk.sync.barrier_{{q}}_us.{x}"), &ops.barrier),
        ];
        for (pattern, samples) in kinds {
            for (q, qn) in [(0.5, "p50"), (0.99, "p99")] {
                let n = samples.len();
                out.note(
                    pattern.replace("{q}", qn),
                    "us",
                    percentile_us(samples, q),
                    format!("n={n}"),
                );
            }
        }
        let s = u.stats(Some(t));
        let ops = s.page_faults + s.remote_acquires + s.barriers;
        out.put(format!("substrate.msgs.{x}"), "count", s.msgs_sent as f64);
        out.put(format!("substrate.bytes.{x}"), "bytes", s.bytes_sent as f64);
        out.put(
            format!("substrate.msgs_per_op.{x}"),
            "ratio",
            ratio(s.msgs_sent as f64, ops as f64),
        );
        out.put(
            format!("substrate.bytes_per_msg.{x}"),
            "bytes",
            ratio(s.bytes_sent as f64, s.msgs_sent as f64),
        );
    }
    out.put("trace.overhead_s", "s", traced.wall_s() - u.wall_s());
    out.put(
        "error_rate",
        "ratio",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    (out.0, trace_json)
}

/// Set-up's warm-up: the synchronization mix, eight rounds, once per
/// transport the workload uses, at the workload's node count. It starts
/// the node threads, the allocator and the scheduler once before timing.
fn warm_up_cells(su: &Setup, seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for c in &su.cells {
        if cells.iter().all(|w| w.transport != c.transport) {
            let mut w = c.clone();
            w.label = format!("warm-up.{}", tag(c.transport));
            w.app = None;
            w.params = Arc::new(SimParams::lockstep_testbed());
            w.body = Body::Mix(Arc::new(MixPlan::new(seed, c.nodes, 8, 1)));
            cells.push(w);
        }
    }
    cells
}
