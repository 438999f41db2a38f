//! `perfbench --workload <apps16|sync8|lossy8> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit status is 1 if a check failed, 2 on a usage
//! error. `--trace 1` also writes a Chrome trace-event file
//! (default `perfbench/out/trace-<workload>-<seed>.json`, or `--trace-out`).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workload::Workload;
use perfbench::{run, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <apps16|sync8|lossy8> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };

    let opts = Options::new(workload, seed, seconds, trace);
    let out = run(&opts);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench {} seed={seed} trace={} passes={} host_cpus={cpus} (lockstep scheduler, default TmkConfig)",
        workload.name(),
        u8::from(trace),
        out.passes
    );
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "# validated: {} attempted, {} failed, error_rate {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    if let Some(json) = &out.trace_json {
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "perfbench/out/trace-{}-{seed}.json",
                workload.name()
            ))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, json) {
            Ok(()) => println!(
                "# trace: {} (open in https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", out.result_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
