//! # tm-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index): E1 latency/bandwidth, E2 microbenchmarks (Figure 3), E3
//! execution time vs system size (Figure 4), E4 execution time vs
//! application size (Figure 5 + Table 1), E5 the §2.2.2 registered-memory
//! arithmetic, E6 the §2.2.4 async-handling ablation.
//!
//! This library holds the shared pieces: application specs with their
//! size ladders, transport-sweeping runners that also *validate every
//! timed run against the sequential reference*, and table formatting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tm_apps::{
    fft_parallel, fft_seq, jacobi_parallel, jacobi_seq, sor_parallel, sor_seq, tsp_parallel,
    tsp_seq, FftConfig, JacobiConfig, SorConfig, TspConfig,
};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig, Transport};
use tm_sim::runner::cluster_time;
use tm_sim::{Ns, SimParams};
use tmk::{LayerMetrics, MetricsHandle, Substrate, Tmk, TmkConfig};

/// Cross-run metrics accumulator: when a sweep binary turns
/// instrumentation on ([`set_metrics_enabled`]), every [`run_spec_with`]
/// run taps each node's event hook and folds the tallies in here. The
/// hook charges no virtual time, so timed results are unchanged.
static METRICS: Mutex<Option<LayerMetrics>> = Mutex::new(None);
static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Enable/disable per-layer event tallying for subsequent runs.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// Take (and clear) the accumulated metrics, if any were recorded.
pub fn take_metrics() -> Option<LayerMetrics> {
    METRICS.lock().unwrap().take()
}

fn with_metrics<S: Substrate, R>(tmk: &mut Tmk<S>, body: impl FnOnce(&mut Tmk<S>) -> R) -> R {
    let handle = METRICS_ON
        .load(Ordering::Relaxed)
        .then(|| MetricsHandle::install(tmk));
    let r = body(tmk);
    if let Some(h) = handle {
        METRICS
            .lock()
            .unwrap()
            .get_or_insert_with(LayerMetrics::default)
            .merge(&h.snapshot());
        tmk.clear_event_hook();
    }
    r
}

/// What an application run returns (for validation).
#[derive(Debug, Clone, PartialEq)]
pub enum AppResult {
    Checksum(f64),
    ChecksumResidual(f64, f64),
    TourLength(u32),
}

/// A runnable, validatable application instance.
#[derive(Debug, Clone)]
pub enum AppSpec {
    Jacobi(JacobiConfig),
    Sor(SorConfig),
    Tsp(TspConfig),
    Fft(FftConfig),
}

impl AppSpec {
    pub fn name(&self) -> &'static str {
        match self {
            AppSpec::Jacobi(_) => "Jacobi",
            AppSpec::Sor(_) => "SOR",
            AppSpec::Tsp(_) => "TSP",
            AppSpec::Fft(_) => "3Dfft",
        }
    }

    /// Short description of the problem size.
    pub fn size_label(&self) -> String {
        match self {
            AppSpec::Jacobi(c) => format!("{}x{}", c.size, c.size),
            AppSpec::Sor(c) => format!("{}x{}", c.rows, c.cols),
            AppSpec::Tsp(c) => format!("{} cities", c.cities),
            AppSpec::Fft(c) => format!("{0}x{0}x{0}", c.size),
        }
    }

    /// Run on one node of the cluster (generic over transport).
    pub fn body<S: Substrate>(&self, tmk: &mut Tmk<S>) -> AppResult {
        match self {
            AppSpec::Jacobi(c) => AppResult::Checksum(jacobi_parallel(tmk, c)),
            AppSpec::Sor(c) => {
                let (s, r) = sor_parallel(tmk, c);
                AppResult::ChecksumResidual(s, r)
            }
            AppSpec::Tsp(c) => AppResult::TourLength(tsp_parallel(tmk, c)),
            AppSpec::Fft(c) => AppResult::Checksum(fft_parallel(tmk, c)),
        }
    }

    /// The sequential reference answer.
    pub fn expected(&self) -> AppResult {
        match self {
            AppSpec::Jacobi(c) => AppResult::Checksum(jacobi_seq(c)),
            AppSpec::Sor(c) => {
                let (s, r) = sor_seq(c);
                AppResult::ChecksumResidual(s, r)
            }
            AppSpec::Tsp(c) => AppResult::TourLength(tsp_seq(c)),
            AppSpec::Fft(c) => AppResult::Checksum(fft_seq(c)),
        }
    }

    fn results_match(&self, got: &AppResult, want: &AppResult) -> bool {
        match (got, want) {
            (AppResult::ChecksumResidual(gs, gr), AppResult::ChecksumResidual(ws, wr)) => {
                gs == ws && (gr - wr).abs() <= 1e-9 * wr.abs().max(1.0)
            }
            _ => got == want,
        }
    }

    /// The paper's default problem instance (§3.3.1, with iteration
    /// counts scaled to keep harness runtime reasonable).
    pub fn default_instance(app: &str) -> AppSpec {
        match app {
            "jacobi" => AppSpec::Jacobi(JacobiConfig::new(1024, 10)),
            "sor" => AppSpec::Sor(SorConfig::new(1024, 512, 10)),
            "tsp" => AppSpec::Tsp(TspConfig::new(12)),
            "fft" => AppSpec::Fft(FftConfig::new(32)),
            other => panic!("unknown app {other}"),
        }
    }

    /// The four problem sizes of Table 1 (reconstructed — the OCR of the
    /// paper lost the digits; ladders chosen to span ~an order of
    /// magnitude like the original).
    pub fn size_ladder(app: &str) -> Vec<AppSpec> {
        match app {
            "jacobi" => [256, 512, 1024, 1536]
                .iter()
                .map(|&z| AppSpec::Jacobi(JacobiConfig::new(z, 10)))
                .collect(),
            "sor" => [256, 512, 1024, 2048]
                .iter()
                .map(|&r| AppSpec::Sor(SorConfig::new(r, 512, 10)))
                .collect(),
            "tsp" => [10, 11, 12, 13]
                .iter()
                .map(|&c| AppSpec::Tsp(TspConfig::new(c)))
                .collect(),
            "fft" => [8, 16, 32, 64]
                .iter()
                .map(|&z| AppSpec::Fft(FftConfig::new(z)))
                .collect(),
            other => panic!("unknown app {other}"),
        }
    }

    pub const APPS: [&'static str; 4] = ["jacobi", "sor", "tsp", "fft"];
}

/// Run `spec` on an `n`-node cluster over `transport`; returns the
/// cluster execution time. Panics if any node's answer deviates from the
/// sequential reference — a timed run that computed the wrong thing is
/// worthless.
pub fn run_spec(transport: Transport, n: usize, spec: &AppSpec) -> Ns {
    let want = spec.expected();
    run_spec_with(transport, n, spec, &want)
}

/// Like [`run_spec`] but with a precomputed sequential reference — sweep
/// binaries compute the reference once per problem instance.
pub fn run_spec_with(transport: Transport, n: usize, spec: &AppSpec, want: &AppResult) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    let outcomes = match transport {
        Transport::Fast => {
            let cfg = FastConfig::paper(&params);
            let s = spec.clone();
            run_fast_dsm(n, params, cfg, TmkConfig::default(), move |tmk| {
                with_metrics(tmk, |tmk| s.body(tmk))
            })
        }
        Transport::Udp => {
            let s = spec.clone();
            run_udp_dsm(n, params, TmkConfig::default(), move |tmk| {
                with_metrics(tmk, |tmk| s.body(tmk))
            })
        }
    };
    for o in &outcomes {
        assert!(
            spec.results_match(&o.result, want),
            "{} on {} x{n}: node {} returned {:?}, sequential reference {:?}",
            spec.name(),
            transport.label(),
            o.id,
            o.result,
            want
        );
    }
    cluster_time(&outcomes)
}

/// Pretty table helper.
pub fn print_header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// A two-transport comparison row.
pub fn print_row(label: &str, udp: Ns, fast: Ns) {
    println!(
        "{label:<28} {:>14} {:>14} {:>8.2}x",
        format!("{udp}"),
        format!("{fast}"),
        udp.0 as f64 / fast.0.max(1) as f64
    );
}

pub fn print_row_header() {
    println!(
        "{:<28} {:>14} {:>14} {:>9}",
        "case", "UDP/GM", "FAST/GM", "factor"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_have_ladders_of_four() {
        for app in AppSpec::APPS {
            assert_eq!(AppSpec::size_ladder(app).len(), 4, "{app}");
            let _ = AppSpec::default_instance(app);
        }
    }

    #[test]
    fn small_runs_validate_on_both_transports() {
        let spec = AppSpec::Jacobi(JacobiConfig::new(128, 5));
        let tf = run_spec(Transport::Fast, 2, &spec);
        let tu = run_spec(Transport::Udp, 2, &spec);
        assert!(tu > tf, "udp {tu} vs fast {tf}");
    }

    #[test]
    fn tsp_validates_over_fast() {
        let spec = AppSpec::Tsp(TspConfig::new(8));
        let t = run_spec(Transport::Fast, 3, &spec);
        assert!(t > Ns::ZERO);
    }
}
