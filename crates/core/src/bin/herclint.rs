//! `herclint` — whole-workspace static analyzer for the Hercules
//! reproduction.
//!
//! ```text
//! herclint --schema schema.json [--flow flow.json]   lint a schema (and a flow against it)
//! herclint --workspace DIR                           lint a saved durable workspace
//! herclint --conflicts DIR DIR                       predict conflicts between two saved workspaces
//! herclint --fixtures                                lint every built-in fixture
//! herclint --list-passes                             print the pass registry
//!
//! options:
//!   --format text|json     output format (default text; json includes per-pass timings)
//!   --suppress CODES       comma-separated codes to silence (repeatable)
//!   --fail-on SEV          exit 1 at or above error|warn|info; `never` always exits 0
//!                          (default error)
//! ```
//!
//! `--conflicts` recovers each workspace's session read-only, through
//! the same reader as `--workspace`: it takes no lease and repairs
//! nothing.
//!
//! Exit codes: 0 clean (below the `--fail-on` threshold), 1 findings at
//! or above the threshold, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hercules::audit::{lint_workspace, predict_conflicts, recover_workspace_in};
use hercules::sim::Env;
use hercules_analyze::{
    lint_flow_timed, lint_schema_spec, lint_schema_timed, render_passes, Diagnostics,
    JsonPassTiming, JsonReport, LintConfig, PassTiming, Severity,
};
use hercules_flow::{fixtures as flow_fixtures, FlowSpec, TaskGraph};
use hercules_schema::{fixtures as schema_fixtures, SchemaSpec, TaskSchema};

struct Args {
    schema: Option<PathBuf>,
    flow: Option<PathBuf>,
    workspace: Option<PathBuf>,
    conflicts: Option<(PathBuf, PathBuf)>,
    fixtures: bool,
    list_passes: bool,
    json: bool,
    config: LintConfig,
    fail_on: Option<Severity>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        schema: None,
        flow: None,
        workspace: None,
        conflicts: None,
        fixtures: false,
        list_passes: false,
        json: false,
        config: LintConfig::new(),
        fail_on: Some(Severity::Error),
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => args.schema = Some(PathBuf::from(value("--schema", &mut it)?)),
            "--flow" => args.flow = Some(PathBuf::from(value("--flow", &mut it)?)),
            "--workspace" => args.workspace = Some(PathBuf::from(value("--workspace", &mut it)?)),
            "--conflicts" => {
                let a = PathBuf::from(value("--conflicts", &mut it)?);
                let b = PathBuf::from(value("--conflicts", &mut it)?);
                args.conflicts = Some((a, b));
            }
            "--fixtures" => args.fixtures = true,
            "--list-passes" => args.list_passes = true,
            "--format" => match value("--format", &mut it)?.as_str() {
                "text" => args.json = false,
                "json" => args.json = true,
                other => return Err(format!("unknown format `{other}` (text|json)")),
            },
            "--suppress" => {
                for code in value("--suppress", &mut it)?.split(',') {
                    let code = code.trim();
                    if !code.is_empty() {
                        args.config = std::mem::take(&mut args.config).suppressing(code);
                    }
                }
            }
            "--fail-on" => {
                let v = value("--fail-on", &mut it)?;
                args.fail_on = match v.as_str() {
                    "never" => None,
                    other => Some(
                        Severity::parse(other)
                            .ok_or_else(|| format!("unknown severity `{other}`"))?,
                    ),
                };
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.flow.is_some() && args.schema.is_none() {
        return Err(String::from("--flow requires --schema"));
    }
    if !args.fixtures
        && !args.list_passes
        && args.schema.is_none()
        && args.workspace.is_none()
        && args.conflicts.is_none()
    {
        return Err(String::from(
            "nothing to lint: pass --schema, --workspace, --conflicts, --fixtures, \
             or --list-passes",
        ));
    }
    Ok(args)
}

const USAGE: &str = "usage: herclint [--schema FILE [--flow FILE]] [--workspace DIR]
                [--conflicts DIR DIR] [--fixtures] [--list-passes]
                [--format text|json] [--suppress CODES]
                [--fail-on error|warn|info|never]";

/// One lint target: a name, its collected findings, and its per-pass
/// timings (empty for targets the timed runner does not cover).
type Target = (String, Diagnostics, Vec<PassTiming>);

/// The real monotonic clock the timed runner gets. (The runner itself
/// never reads time; binaries are the only place wall clocks enter.)
fn wall_clock() -> impl FnMut() -> u64 {
    let start = Instant::now();
    move || start.elapsed().as_nanos() as u64
}

fn lint_file_targets(args: &Args, targets: &mut Vec<Target>) -> Result<(), String> {
    if let Some(path) = &args.schema {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec: SchemaSpec = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not a schema spec: {e}", path.display()))?;
        let mut out = Diagnostics::with_config(args.config.clone());
        let schema = lint_schema_spec(&spec, &mut out);
        targets.push((path.display().to_string(), out, Vec::new()));
        if let Some(flow_path) = &args.flow {
            let Some(schema) = schema else {
                return Err(format!(
                    "cannot lint {}: the schema did not build",
                    flow_path.display()
                ));
            };
            let text = std::fs::read_to_string(flow_path)
                .map_err(|e| format!("cannot read {}: {e}", flow_path.display()))?;
            let spec: FlowSpec = serde_json::from_str(&text)
                .map_err(|e| format!("{} is not a flow spec: {e}", flow_path.display()))?;
            let flow = spec
                .instantiate(Arc::new(schema))
                .map_err(|e| format!("{} does not instantiate: {e}", flow_path.display()))?;
            let mut out = Diagnostics::with_config(args.config.clone());
            let mut clock = wall_clock();
            let timings = lint_flow_timed(&flow, &mut out, &mut clock);
            targets.push((flow_path.display().to_string(), out, timings));
        }
    }
    if let Some(dir) = &args.workspace {
        let mut out = Diagnostics::with_config(args.config.clone());
        lint_workspace(dir, &mut out);
        targets.push((dir.display().to_string(), out, Vec::new()));
    }
    if let Some((a_path, b_path)) = &args.conflicts {
        let mut out = Diagnostics::with_config(args.config.clone());
        let env = Env::real();
        let a = recover_workspace_in(a_path, &env, &mut out);
        let b = recover_workspace_in(b_path, &env, &mut out);
        if let (Some(a), Some(b)) = (a, b) {
            predict_conflicts(&a, &b, &mut out);
        }
        let name = format!("conflicts:{}+{}", a_path.display(), b_path.display());
        targets.push((name, out, Vec::new()));
    }
    Ok(())
}

fn lint_fixture_targets(config: &LintConfig, targets: &mut Vec<Target>) {
    type SchemaFixture = fn() -> TaskSchema;
    let schemas: [(&str, SchemaFixture); 3] = [
        ("fixture:schema/fig1", schema_fixtures::fig1),
        ("fixture:schema/fig2", schema_fixtures::fig2),
        ("fixture:schema/odyssey", schema_fixtures::odyssey),
    ];
    for (name, make) in schemas {
        let mut out = Diagnostics::with_config(config.clone());
        let mut clock = wall_clock();
        let timings = lint_schema_timed(&make(), &mut out, &mut clock);
        targets.push((name.to_owned(), out, timings));
    }
    type FlowFixture = fn(Arc<TaskSchema>) -> Result<TaskGraph, hercules_flow::FlowError>;
    fn wide_parallel4(schema: Arc<TaskSchema>) -> Result<TaskGraph, hercules_flow::FlowError> {
        flow_fixtures::wide_parallel(schema, 4)
    }
    let flows: [(&str, FlowFixture); 8] = [
        ("fixture:flow/fig3", flow_fixtures::fig3),
        ("fixture:flow/fig4_edited", flow_fixtures::fig4_edited),
        ("fixture:flow/fig4_extracted", flow_fixtures::fig4_extracted),
        ("fixture:flow/fig5", flow_fixtures::fig5),
        ("fixture:flow/fig6", flow_fixtures::fig6),
        ("fixture:flow/fig8_synthesis", flow_fixtures::fig8_synthesis),
        (
            "fixture:flow/fig8_verification",
            flow_fixtures::fig8_verification,
        ),
        ("fixture:flow/wide_parallel4", wide_parallel4),
    ];
    let schema = Arc::new(schema_fixtures::fig1());
    for (name, make) in flows {
        let mut out = Diagnostics::with_config(config.clone());
        let timings = match make(schema.clone()) {
            Ok(flow) => {
                let mut clock = wall_clock();
                lint_flow_timed(&flow, &mut out, &mut clock)
            }
            Err(e) => {
                out.push(hercules_analyze::diagnose_flow_error(&e));
                Vec::new()
            }
        };
        targets.push((name.to_owned(), out, timings));
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    if args.list_passes {
        print!("{}", render_passes());
        return Ok(ExitCode::SUCCESS);
    }

    let mut targets: Vec<Target> = Vec::new();
    lint_file_targets(&args, &mut targets)?;
    if args.fixtures {
        lint_fixture_targets(&args.config, &mut targets);
    }
    for (_, out, _) in &mut targets {
        out.sort();
    }

    if args.json {
        let mut timings: Vec<JsonPassTiming> = Vec::new();
        for (name, _, target_timings) in &targets {
            timings.extend(JsonPassTiming::from_timings(name, target_timings));
        }
        let report = JsonReport::from_targets(targets.iter().map(|(n, d, _)| (n.as_str(), d)))
            .with_timings(timings);
        println!("{}", report.to_json().map_err(|e| e.to_string())?);
    } else {
        let mut errors = 0;
        let mut warnings = 0;
        let mut infos = 0;
        for (name, out, _) in &targets {
            errors += out.count(Severity::Error);
            warnings += out.count(Severity::Warn);
            infos += out.count(Severity::Info);
            if out.is_empty() {
                println!("{name}: clean");
            } else {
                println!("{name}:");
                for d in out.iter() {
                    println!("  {d}");
                }
            }
        }
        println!("{errors} error(s), {warnings} warning(s), {infos} info(s)");
    }

    let worst = targets
        .iter()
        .filter_map(|(_, d, _)| d.max_severity())
        .max();
    let failed = match (args.fail_on, worst) {
        (Some(threshold), Some(worst)) => worst >= threshold,
        _ => false,
    };
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
            } else {
                eprintln!("herclint: {msg}");
                eprintln!("{USAGE}");
            }
            ExitCode::from(2)
        }
    }
}
