//! `hercules-e2ebench` — the end-to-end design-session benchmark.
//!
//! One simulated designer drives the real REPL (`Ui::execute` under
//! `Env::real()`) through a seeded session, in a closed loop: the next
//! command is issued only after the previous one returned. Sessions of
//! the chosen workload repeat until `--seconds` have passed; every
//! session is set up afresh from the same seed.
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload edit-loop --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --self-test
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --suspects
//! ```
//!
//! With `--trace 0` the sessions run untraced and the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` untraced and traced sessions alternate and the JSON
//! carries the per-layer metrics (see `trace.rs`). Human-readable
//! report lines, including every workload-specific metric, come first.

mod gen;
mod report;
mod session;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Plan, Sizes, Workload};
use report::Outcome;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hercules-e2ebench --workload <edit-loop|fanout-cache> \
--seed <n> --seconds <n> --trace <0|1>\n       hercules-e2ebench --self-test\n       hercules-e2ebench --suspects";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Per-run scratch directory, inside the working directory.
fn work_root(workload: Workload) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Runs sessions of `plan` until `seconds` have passed and at least
/// the plan's minimum number of sessions ran. With `trace`, untraced
/// and traced sessions alternate.
fn measure(plan: &Plan, seconds: u64, trace: bool) -> Outcome {
    let min_sessions = plan.sizes.sessions;
    let root = work_root(plan.workload);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut outcome = Outcome::new(plan);
    let mut n = 0;
    while n < min_sessions || Instant::now() < deadline || (trace && n % 2 == 1) {
        let traced = trace && n % 2 == 1;
        let result = session::run_session(plan, &root.join(format!("s{n}")), traced);
        outcome.push(result);
        n += 1;
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_work");
    outcome
}

fn run(args: &Args) -> ExitCode {
    let sizes = Sizes::full(args.workload);
    let plan = Plan::generate(args.workload, args.seed, sizes);
    let outcome = measure(&plan, args.seconds, args.trace);
    print!("{}", outcome.render_report());
    let reproducible = Plan::generate(args.workload, args.seed, sizes).render() == plan.render();
    println!("{}", outcome.to_json(args.trace, reproducible));
    if outcome.correct(args.trace, reproducible) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Tiny-size self-test: every workload completes, every check passes,
/// every named metric is printed with its unit, and in the traced
/// sessions the layer self times plus `ui.unattributed_ms` add up to
/// the session time.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        let sizes = Sizes::tiny(workload);
        let plan = Plan::generate(workload, 7, sizes);
        if Plan::generate(workload, 7, sizes).render() != plan.render() {
            problems.push(format!(
                "{}: generator is not reproducible",
                workload.name()
            ));
        }
        let outcome = measure(&plan, 0, true);
        problems.extend(
            outcome
                .self_check()
                .into_iter()
                .map(|p| format!("{}: {p}", workload.name())),
        );
        for trace in [false, true] {
            let json = outcome.to_json(trace, true);
            for (name, unit) in report::metric_names(trace) {
                let needle = format!("\"{name}\": {{\"value\": ");
                if !json.contains(&needle) || !json.contains(&format!("\"unit\": \"{unit}\"")) {
                    problems.push(format!(
                        "{}: metric {name} ({unit}) missing",
                        workload.name()
                    ));
                }
            }
        }
        println!(
            "self-test {}: {} session(s)",
            workload.name(),
            outcome.sessions()
        );
    }
    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("self-test FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    if args.iter().any(|a| a == "--suspects") {
        print!("{}", session::suspects());
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Ok(args) => run(&args),
        Err(msg) => {
            eprintln!("hercules-e2ebench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
