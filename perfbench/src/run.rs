//! Running one cell: the node bodies, result validation and the per-call
//! recorder that feeds both the op-latency samples and the span trace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tm_bench::AppResult;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, Transport};
use tm_sim::runner::{cluster_stats, cluster_time, NodeOutcome};
use tm_sim::stats::NodeStats;
use tmk::page::Access;
use tmk::{LayerMetrics, MetricsHandle, SharedId, Substrate, Tmk, TmkConfig};

use crate::host;
use crate::trace::{Span, TraceSink, APPS_LAYER, BENCH_LAYER, SHMEM_LAYER, SIM_LAYER, SYNC_LAYER};
use crate::workload::{Body, Cell, MixPlan};

/// Modeled latencies (virtual ns) of the blocking DSM calls a node made.
#[derive(Debug, Clone, Default)]
pub struct OpSamples {
    pub acquire: Vec<u64>,
    pub barrier: Vec<u64>,
    /// Reads whose page was not readable before the call.
    pub fault: Vec<u64>,
}

impl OpSamples {
    pub fn extend(&mut self, o: &OpSamples) {
        self.acquire.extend(&o.acquire);
        self.barrier.extend(&o.barrier);
        self.fault.extend(&o.fault);
    }

    /// Every blocking call, of any kind.
    pub fn all(&self) -> Vec<u64> {
        [&self.acquire, &self.barrier, &self.fault]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }
}

#[derive(Clone, Copy)]
enum Op {
    Acquire,
    Barrier,
    Fault,
}

/// Exact equality, except the SOR residual: a 1e-9 relative tolerance.
fn app_result_ok(got: &AppResult, want: &AppResult) -> bool {
    match (got, want) {
        (AppResult::ChecksumResidual(gs, gr), AppResult::ChecksumResidual(ws, wr)) => {
            gs == ws && (gr - wr).abs() <= 1e-9 * wr.abs().max(1.0)
        }
        _ => got == want,
    }
}

fn vnow<S: Substrate>(tmk: &Tmk<S>) -> u64 {
    tmk.clock().borrow().now().0
}

/// Per-node recorder wrapped around every `Tmk` call the benchmark makes.
struct Recorder<'a> {
    trace: Option<&'a TraceSink>,
    node: usize,
    cell: usize,
    parent: u64,
    spans: Vec<Span>,
    ops: OpSamples,
    /// Checks passed so far.
    ok: u64,
}

impl Recorder<'_> {
    fn call<S: Substrate, R>(
        &mut self,
        tmk: &mut Tmk<S>,
        name: &'static str,
        layer: usize,
        op: Option<Op>,
        f: impl FnOnce(&mut Tmk<S>) -> R,
    ) -> R {
        let v0 = vnow(tmk);
        let h0 = self.trace.map(TraceSink::host_us);
        let r = f(tmk);
        let v1 = vnow(tmk);
        match op {
            Some(Op::Acquire) => self.ops.acquire.push(v1 - v0),
            Some(Op::Barrier) => self.ops.barrier.push(v1 - v0),
            Some(Op::Fault) => self.ops.fault.push(v1 - v0),
            None => {}
        }
        if let (Some(t), Some(h0)) = (self.trace, h0) {
            self.spans.push(Span {
                id: t.next_id(),
                parent: Some(self.parent),
                name,
                layer,
                node: Some(self.node),
                cell: Some(self.cell),
                v_begin_ns: v0,
                v_end_ns: v1,
                h_begin_us: h0,
                h_end_us: t.host_us(),
            });
        }
        r
    }

    fn acquire<S: Substrate>(&mut self, tmk: &mut Tmk<S>, lock: u32) {
        self.call(tmk, "Tmk::acquire", SYNC_LAYER, Some(Op::Acquire), |t| {
            t.acquire(lock)
        })
    }

    fn release<S: Substrate>(&mut self, tmk: &mut Tmk<S>, lock: u32) {
        self.call(tmk, "Tmk::release", SYNC_LAYER, None, |t| t.release(lock))
    }

    fn barrier<S: Substrate>(&mut self, tmk: &mut Tmk<S>, id: u32) {
        self.call(tmk, "Tmk::barrier", SYNC_LAYER, Some(Op::Barrier), |t| {
            t.barrier(id)
        })
    }

    fn get_u32<S: Substrate>(&mut self, tmk: &mut Tmk<S>, id: SharedId, idx: usize) -> u32 {
        let faulting = !matches!(tmk.page_state(id, idx * 4), Access::Read | Access::Write);
        let op = faulting.then_some(Op::Fault);
        self.call(tmk, "Tmk::get_u32", SHMEM_LAYER, op, |t| t.get_u32(id, idx))
    }

    fn set_u32<S: Substrate>(&mut self, tmk: &mut Tmk<S>, id: SharedId, idx: usize, v: u32) {
        self.call(tmk, "Tmk::set_u32", SHMEM_LAYER, None, |t| {
            t.set_u32(id, idx, v)
        })
    }

    fn check(&mut self, ok: bool) {
        self.ok += u64::from(ok);
    }
}

/// The synchronization mix on one node. Each round: take the plan's lock,
/// increment that lock's counter, release, write this node's word, cross a
/// barrier, read the plan's neighbour's word (a diff fault). The word
/// region is double-buffered by round parity, so one barrier per round is
/// race-free. After a final barrier every node checks every counter.
fn mix_body<S: Substrate>(tmk: &mut Tmk<S>, plan: &MixPlan, rec: &mut Recorder) {
    let me = tmk.proc_id();
    let words_per_page = tmk.params().dsm.page_size / 4;
    let counters = tmk.malloc(plan.locks * words_per_page * 4);
    let words = tmk.malloc(2 * words_per_page * 4);
    rec.barrier(tmk, 0);
    for r in 0..plan.rounds {
        let lock = plan.lock(me, r);
        let ctr = lock as usize * words_per_page;
        rec.acquire(tmk, lock);
        let v = rec.get_u32(tmk, counters, ctr);
        rec.set_u32(tmk, counters, ctr, v + 1);
        rec.release(tmk, lock);
        let buf = (r % 2) * words_per_page;
        rec.set_u32(tmk, words, buf + me, plan.value(me, r));
        rec.barrier(tmk, 1 + r as u32);
        let nb = plan.neighbour(me, r);
        let got = rec.get_u32(tmk, words, buf + nb);
        rec.check(got == plan.value(nb, r));
    }
    rec.barrier(tmk, 1 + plan.rounds as u32);
    for l in 0..plan.locks {
        let got = rec.get_u32(tmk, counters, l * words_per_page);
        rec.check(got == plan.totals[l]);
    }
}

/// What a cell's node bodies share.
struct Job {
    body: Body,
    trace: Option<Arc<TraceSink>>,
    cell: usize,
    cell_span: u64,
}

/// One node's account of its run.
struct NodeReport {
    ok: u64,
    ops: OpSamples,
    cpu_s: f64,
    metrics: Option<LayerMetrics>,
    spans: Vec<Span>,
}

fn node_body<S: Substrate>(tmk: &mut Tmk<S>, job: &Job) -> NodeReport {
    let cpu0 = host::thread_cpu_s();
    let trace = job.trace.as_deref();
    let metrics = trace.map(|_| MetricsHandle::install(tmk));
    let span_id = trace.map_or(0, TraceSink::next_id);
    let v0 = vnow(tmk);
    let h0 = trace.map(TraceSink::host_us);
    let mut rec = Recorder {
        trace,
        node: tmk.proc_id(),
        cell: job.cell,
        parent: span_id,
        spans: Vec::new(),
        ops: OpSamples::default(),
        ok: 0,
    };
    // A node that panics fails its remaining checks. The run goes on only if
    // its peers can still finish without it, as after its last barrier; a
    // panic that strands peers in a barrier or lock ends the run instead.
    let _ = catch_unwind(AssertUnwindSafe(|| match &job.body {
        Body::App { spec, want } => {
            let got = rec.call(tmk, "AppSpec::body", APPS_LAYER, None, |t| spec.body(t));
            rec.check(app_result_ok(&got, want));
        }
        Body::Mix(plan) => mix_body(tmk, plan, &mut rec),
    }));
    if let (Some(t), Some(h0)) = (trace, h0) {
        rec.spans.push(Span {
            id: span_id,
            parent: Some(job.cell_span),
            name: "node body",
            layer: SIM_LAYER,
            node: Some(rec.node),
            cell: Some(job.cell),
            v_begin_ns: v0,
            v_end_ns: vnow(tmk),
            h_begin_us: h0,
            h_end_us: t.host_us(),
        });
    }
    NodeReport {
        ok: rec.ok,
        ops: rec.ops,
        cpu_s: host::thread_cpu_s() - cpu0,
        metrics: metrics.map(|m| m.snapshot()),
        spans: rec.spans,
    }
}

/// The measured result of one cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub label: String,
    pub transport: Transport,
    pub app: Option<&'static str>,
    /// Modeled completion time: the slowest node's virtual clock.
    pub modeled_ns: u64,
    pub stats: NodeStats,
    pub attempted: u64,
    pub failed: u64,
    pub ops: OpSamples,
    /// Host wall and process-CPU seconds of the cluster run.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Σ CPU seconds of the node threads, around each node body.
    pub node_cpu_s: f64,
    /// Σ of the nodes' final virtual clocks.
    pub node_time_ns: u64,
    /// Merged `TmkEvent` tallies (traced runs only; empty otherwise).
    pub metrics: LayerMetrics,
}

/// Run `cell` (index `idx` in its pass) once. With a trace sink the run
/// records spans and installs each node's `MetricsHandle`.
pub fn run_cell(cell: &Cell, idx: usize, trace: Option<&Arc<TraceSink>>) -> CellRun {
    let cell_span = trace.map_or(0, |t| t.next_id());
    let h0 = trace.map(|t| t.host_us());
    let job = Arc::new(Job {
        body: cell.body.clone(),
        trace: trace.cloned(),
        cell: idx,
        cell_span,
    });
    let n = cell.nodes;
    let params = Arc::clone(&cell.params);
    let (outcomes, wall_s, cpu_s) = host::timed(|| {
        catch_unwind(AssertUnwindSafe(|| match cell.transport {
            Transport::Fast => {
                let cfg = FastConfig::paper(&params);
                run_fast_dsm(n, params, cfg, TmkConfig::default(), move |t| {
                    node_body(t, &job)
                })
            }
            Transport::Udp => {
                run_udp_dsm(n, params, TmkConfig::default(), move |t| node_body(t, &job))
            }
        }))
    });
    let outcomes: Vec<NodeOutcome<NodeReport>> = outcomes.unwrap_or_default();
    let attempted = cell.body.checks_per_node() * n as u64;
    let modeled_ns = cluster_time(&outcomes).0;
    let stats = cluster_stats(&outcomes);
    let mut run = CellRun {
        label: cell.label.clone(),
        transport: cell.transport,
        app: cell.app,
        modeled_ns,
        stats,
        attempted,
        failed: attempted,
        ops: OpSamples::default(),
        wall_s,
        cpu_s,
        node_cpu_s: 0.0,
        node_time_ns: outcomes.iter().map(|o| o.finish.0).sum(),
        metrics: LayerMetrics::default(),
    };
    for o in outcomes {
        let r = o.result;
        run.failed -= r.ok.min(run.failed);
        run.ops.extend(&r.ops);
        run.node_cpu_s += r.cpu_s;
        if let Some(m) = &r.metrics {
            run.metrics.merge(m);
        }
        if let Some(t) = trace {
            t.push(r.spans);
        }
    }
    if let (Some(t), Some(h0)) = (trace, h0) {
        let name = match cell.transport {
            Transport::Fast => "tm_fast::run_fast_dsm",
            Transport::Udp => "tm_fast::run_udp_dsm",
        };
        t.push([Span {
            id: cell_span,
            parent: None,
            name,
            layer: BENCH_LAYER,
            node: None,
            cell: Some(idx),
            v_begin_ns: 0,
            v_end_ns: modeled_ns,
            h_begin_us: h0,
            h_end_us: t.host_us(),
        }]);
    }
    run
}
