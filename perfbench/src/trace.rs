//! In-memory span trace, written once as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around the calls it makes into the
//! layers' public functions: the cell (`tm_fast::run_*_dsm`), each node's
//! body, and each `Tmk` call or application body inside it. Every span
//! carries both clocks: the node's virtual time, which the simulation
//! models, and host time, which running the simulation costs. The JSON
//! timeline (`ts`/`dur`) is host time, the only clock that orders cells
//! run one after another; virtual begin/end are in each event's `args`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chrome-trace process id of the benchmark's main thread.
pub const MAIN_PID: usize = 1000;

/// Layer names; a span's Chrome-trace `tid` is its layer's index here.
pub const LAYERS: [&str; 5] = ["bench", "sim", "apps", "tmk.sync", "tmk.shmem"];
pub const BENCH_LAYER: usize = 0;
pub const SIM_LAYER: usize = 1;
pub const APPS_LAYER: usize = 2;
pub const SYNC_LAYER: usize = 3;
pub const SHMEM_LAYER: usize = 4;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Index into [`LAYERS`].
    pub layer: usize,
    /// Simulated node, or `None` for the main thread.
    pub node: Option<usize>,
    /// Index of the cell the span belongs to (into the run's cell
    /// labels); `None` during set-up.
    pub cell: Option<usize>,
    pub v_begin_ns: u64,
    pub v_end_ns: u64,
    /// Host microseconds since the trace epoch.
    pub h_begin_us: f64,
    pub h_end_us: f64,
}

/// Shared span sink for one traced pass.
pub struct TraceSink {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl TraceSink {
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn host_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans
            .lock()
            .expect("a node thread panicked while pushing spans")
            .extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a node thread panicked while pushing spans"),
        )
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render spans as Chrome trace-event JSON (`"ph":"X"`, pid = node,
/// tid = layer), with name metadata so Perfetto labels the rows.
pub fn chrome_json(spans: &[Span], cell_labels: &[String]) -> String {
    let mut ev: Vec<String> = Vec::new();
    let mut pids: Vec<usize> = spans.iter().map(|s| s.node.unwrap_or(MAIN_PID)).collect();
    pids.sort_unstable();
    pids.dedup();
    for &pid in &pids {
        let name = if pid == MAIN_PID {
            "main".to_string()
        } else {
            format!("node {pid}")
        };
        ev.push(format!(
            r#"{{"ph":"M","name":"process_name","pid":{pid},"tid":0,"args":{{"name":"{name}"}}}}"#
        ));
        for (tid, layer) in LAYERS.iter().enumerate() {
            ev.push(format!(
                r#"{{"ph":"M","name":"thread_name","pid":{pid},"tid":{tid},"args":{{"name":"{layer}"}}}}"#
            ));
        }
    }
    for s in spans {
        let mut e = String::new();
        let _ = write!(
            e,
            r#"{{"ph":"X","name":"{}","cat":"{}","pid":{},"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"id":{},"parent":{},"cell":"{}","v_begin_ns":{},"v_end_ns":{}}}}}"#,
            esc(s.name),
            LAYERS[s.layer],
            s.node.unwrap_or(MAIN_PID),
            s.layer,
            s.h_begin_us,
            (s.h_end_us - s.h_begin_us).max(0.0),
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            esc(s
                .cell
                .and_then(|c| cell_labels.get(c))
                .map_or("setup", String::as_str)),
            s.v_begin_ns,
            s.v_end_ns,
        );
        ev.push(e);
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}
