//! One benchmark for the whole stack — see README.md.
//!
//! ```text
//! benchmark run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]]
//!               [--smoke] [--record <file>]
//! benchmark compare <setA> <setB>
//! benchmark spec [--markdown]
//! ```

mod compare;
mod kit;
mod probes;
mod run;
mod spec;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: kit::CountingAlloc = kit::CountingAlloc;

const USAGE: &str = "usage:
  benchmark run --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke] [--record <file>]
  benchmark compare <setA> <setB>
  benchmark spec [--markdown]";

fn parse_run(args: &[String]) -> Result<(String, run::Options), String> {
    let mut workload = None;
    let mut o = run::Options {
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        record: None,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned 64-bit number")?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or("--seconds takes a number of seconds")?
            }
            "--record" => o.record = Some(value("a file")?.into()),
            "--smoke" => o.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, o))
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let (name, o) = parse_run(args)?;
    // ROADMAP aim 1: a number from an unoptimised build is refused, not emitted.
    if cfg!(debug_assertions) {
        return Err("refused: debug-profile build; run with --release".into());
    }
    let selected: Vec<&workloads::Workload> = if name == "all" {
        workloads::WORKLOADS.iter().collect()
    } else {
        vec![workloads::find(&name).ok_or(format!("unknown workload {name}"))?]
    };
    let fp = kit::Fingerprint::collect();
    kit::keep_freed_memory();
    let mut correct = true;
    for w in selected {
        if w.threads > fp.available_parallelism {
            // A threaded measurement on too few hardware threads is scheduler noise.
            let why = format!(
                "refused: {} needs {} hardware threads, {} available",
                w.name, w.threads, fp.available_parallelism
            );
            if name != "all" {
                return Err(why);
            }
            eprintln!("{why}");
            correct = false;
            continue;
        }
        let out = run::run(w, &o).map_err(|e| format!("{}: {e}", w.name))?;
        run::report(w, &o, &out, &fp)?;
        correct &= out.correct;
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(args[1].as_ref(), args[2].as_ref()),
        Some("spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("spec") if args[1..] == ["--markdown"] => {
            print!("{}", spec::markdown());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
