//! `dsebench` — the repository's benchmark of record.
//!
//! ```text
//! dsebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets a workload up several times, runs timed
//! passes over its design points for `--seconds` seconds, checks the
//! results, and prints the end-to-end metrics. With `--trace 1` it runs
//! one checked pass and then replays the workload's calls into each layer
//! on one thread, printing the per-layer metrics and writing the spans to
//! `.dsebench/spans-<workload>-seed<n>.jsonl`. Either way the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it records provenance. See
//! `README.md` beside this file for the workloads and metrics.

mod campaigns;
mod harness;
mod kernels;
mod spans;
mod stats;
mod sweeps;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{run_e2e, run_traced, Ctx, Outcome, Workload};

/// Directory (under the working directory) for run scratch and spans.
const OUT_DIR: &str = ".dsebench";

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sweep-cold",
    "atrc-stream",
    "campaign-rerun",
    "cosim-fabrics",
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(harness::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out commit, when the working directory is the top of a
/// git work tree; `unknown` otherwise (e.g. an exported source tree).
fn commit() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .output();
    let Some(out) = out.ok().filter(|o| o.status.success()) else {
        return "unknown".to_owned();
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    let top = lines.next().map(PathBuf::from);
    let here = std::env::current_dir().ok();
    match (top.and_then(|t| t.canonicalize().ok()), here, lines.next()) {
        (Some(top), Some(here), Some(head)) if here.canonicalize().ok().as_ref() == Some(&top) => {
            head.to_owned()
        }
        _ => "unknown".to_owned(),
    }
}

fn provenance<W: Workload>(args: &Args, ctx: &Ctx) -> String {
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"commit\":\"{}\",\"nproc\":{},\"sweep_threads\":{},\"rustc\":\"{}\",\
         \"result_cache\":\"{}\"}}}}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        ctx.threads,
        ctx.threads,
        env!("DSEBENCH_RUSTC_VERSION"),
        W::CACHE_MODE
    )
}

fn result_line(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &o.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    ))
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bench<W: Workload>(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let prov = provenance::<W>(args, ctx);
    let outcome = if args.trace {
        run_traced::<W>(ctx)?
    } else {
        run_e2e::<W>(ctx, args.seconds)?
    };
    if let Some(rec) = &outcome.spans {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", W::NAME, args.seed));
        rec.write_jsonl(&path, &prov)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans written to {}",
            W::NAME,
            rec.spans().len(),
            path.display()
        );
    }
    let line = result_line(&outcome)?;
    println!("{prov}");
    println!("{line}");
    Ok(outcome.correct)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let work = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        work,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    match args.workload.as_str() {
        "sweep-cold" => bench::<sweeps::SweepCold>(&args, &ctx),
        "atrc-stream" => bench::<sweeps::AtrcStream>(&args, &ctx),
        "campaign-rerun" => bench::<campaigns::CampaignRerun>(&args, &ctx),
        "cosim-fabrics" => bench::<campaigns::CosimFabrics>(&args, &ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dsebench: results are NOT correct");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("dsebench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload atrc-stream --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "atrc-stream".to_owned(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload sweep-cold --trace 2",
            "--workload sweep-cold --seconds 0",
            "--workload sweep-cold --seed",
            "--workload sweep-cold --color red",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark directory");
        let names_after = |key: &str| -> Vec<String> {
            let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
            let section = &section[..section.find(']').expect("list end")];
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name end")].to_owned())
                .collect()
        };
        assert_eq!(names_after("workloads"), WORKLOADS);
        let e2e: Vec<&str> = harness::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_after("end_to_end"), e2e);
        let layers: Vec<&str> = harness::PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_after("per_layer"), layers);
        for (name, unit) in harness::END_TO_END.iter().chain(&harness::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
            spans: None,
        };
        assert_eq!(
            result_line(&o).expect("finite"),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![("setup_s", f64::NAN, "s")],
            ..o
        };
        assert!(result_line(&bad).is_err());
    }
}
