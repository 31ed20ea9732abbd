//! Command line of the repo benchmark. The driver calls
//! `… -- --workload W --seed N --seconds S --trace 0|1` and reads the last
//! line of standard output; everything above it is for people.

use std::process::ExitCode;

use pmnet_benchmark::bench::{run_traced, run_untraced, Options};
use pmnet_benchmark::json::Json;
use pmnet_benchmark::manifest::{benchmark_json, END_TO_END, RUN_SECONDS};
use pmnet_benchmark::rig::Workload;
use pmnet_benchmark::stats::{agree, worse_by};

const USAGE: &str = "usage: pmnet-benchmark [--workload NAME|all] [--seed S] [--seconds N] \
[--trace [0|1]] [--smoke]\n       pmnet-benchmark --emit-manifest\n       pmnet-benchmark \
--compare RUN_A.txt RUN_B.txt";

struct Args {
    /// `None` = every workload, each in a process of its own.
    workload: Option<Workload>,
    options: Options,
    trace: bool,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        options: Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            shrink: 1,
        },
        trace: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => {
                let s = value("a number")?;
                args.options.seed = s.parse().map_err(|_| format!("bad seed {s}"))?;
            }
            "--seconds" => {
                let s = value("a number")?;
                let seconds: f64 = s.parse().map_err(|_| format!("bad seconds {s}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("seconds out of range: {s}"));
                }
                args.options.seconds = seconds;
            }
            // `--trace` alone means on; the driver always says 0 or 1.
            "--trace" => {
                let said = argv.next_if(|v| v == "0" || v == "1");
                args.trace = said.is_none_or(|v| v == "1");
            }
            "--smoke" => {
                args.options.shrink = 100;
                args.options.seconds = 0.0;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Measures one workload in this process.
fn measure(workload: Workload, args: &Args) -> std::io::Result<bool> {
    let report = if args.trace {
        run_traced(workload, args.options)
    } else {
        run_untraced(workload, args.options)
    };
    print!("{}", report.table());
    if let Some(trace) = &report.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let file = dir.join(format!("trace_{}.json", workload.name()));
        std::fs::write(file, trace.pretty(2))?;
    }
    // Last: the driver reads the last line.
    println!("{}", report.result_line());
    Ok(report.correct)
}

/// Measures every workload, each in a child process as the driver runs
/// them: allocation counts depend on what the process did before (the
/// `bytes` buffer pool is thread-local), so workloads sharing a process
/// would not read what the driver reads.
fn measure_all(args: &Args) -> std::io::Result<bool> {
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut child = std::process::Command::new(std::env::current_exe()?);
        child
            .args(["--workload", w.name()])
            .args(["--seed", &args.options.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.options.shrink == 1 {
            child.args(["--seconds", &args.options.seconds.to_string()]);
        } else {
            child.arg("--smoke");
        }
        all_correct &= child.status()?.success();
    }
    Ok(all_correct)
}

/// One captured run: for each workload printed, its digest and metrics.
fn read_run(path: &str) -> Result<Vec<(String, String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    let (mut name, mut digest) = (String::new(), String::new());
    for line in text.lines() {
        if let Some(w) = line.strip_prefix("workload ") {
            name = w.to_string();
        } else if let Some(d) = line.trim().strip_prefix("sim_digest ") {
            digest = d.to_string();
        } else if line.starts_with('{') {
            let result = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            out.push((name.clone(), digest.clone(), result));
        }
    }
    Ok(out)
}

/// The A/A check: two captured untraced runs of the same tree and seed
/// must agree on every end-to-end metric within its bound, and exactly on
/// the simulated ones.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (run_a, run_b) = (read_run(a)?, read_run(b)?);
    if run_a.len() != run_b.len() || run_a.is_empty() {
        return Err("the two runs hold different workloads".into());
    }
    let mut all = true;
    for ((name, digest_a, res_a), (name_b, digest_b, res_b)) in run_a.iter().zip(&run_b) {
        if name != name_b {
            return Err(format!("workload order differs: {name} vs {name_b}"));
        }
        let ok = digest_a == digest_b;
        all &= ok;
        println!(
            "{:<5} {name:<17} {:<20} {digest_a} vs {digest_b}",
            verdict(ok),
            "sim_digest"
        );
        for m in END_TO_END {
            let read = |res: &Json| {
                res.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no {} in a result line", m.name))
            };
            let (va, vb) = (read(res_a)?, read(res_b)?);
            let ok = if m.sim {
                va == vb
            } else {
                agree(m.better, m.bound, va, vb)
            };
            all &= ok;
            println!(
                "{:<5} {name:<17} {:<20} {va:>14.4} vs {vb:>14.4} {:<6} {:+.2}% (bound {})",
                verdict(ok),
                m.name,
                m.unit,
                100.0 * worse_by(m.better, va, vb),
                if m.sim {
                    "exact".to_string()
                } else {
                    format!("{}%", 100.0 * m.bound)
                },
            );
        }
    }
    Ok(all)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "FAIL"
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--emit-manifest") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some("--compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        _ => parse(argv.into_iter())
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| {
                match args.workload {
                    Some(w) => measure(w, &args),
                    None => measure_all(&args),
                }
                .map_err(|e| e.to_string())
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
