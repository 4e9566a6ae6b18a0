//! `herctrace` — trace, profile, and export Hercules executions.
//!
//! Two sources, four renderings:
//!
//! * **Live** (default): executes a fixture flow (Fig. 5 by default)
//!   with simulated tool work, tracing every span, and renders the
//!   result.
//! * **Replay** (`--workspace DIR`): recovers a durable workspace and
//!   synthesizes the trace from the last persisted execution report —
//!   no tool re-runs.
//!
//! Formats: `report` (critical-path analysis), `gantt` (text chart),
//! `tree` (span tree), `chrome` (Chrome `trace_event` JSON — load the
//! file in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Two operational modes ride alongside:
//!
//! * **Postmortem** (`--postmortem DIR`): reads the workspace's
//!   `telemetry-N.jsonl` flight-recorder sidecars — tolerating a torn
//!   tail from a crash — and prints the reconstructed event tail.
//!   Exits nonzero when no parseable record survives.
//! * **Health** (`herctrace health --workspace DIR [--json]`): opens
//!   the workspace and renders the aggregated [`HealthReport`] exactly
//!   as the REPL `health` command does.
//!
//! ```text
//! herctrace --format gantt
//! herctrace --workspace /tmp/ws --format chrome --out trace.json
//! herctrace --postmortem /tmp/ws
//! herctrace health --workspace /tmp/ws --json
//! ```
//!
//! [`HealthReport`]: hercules_obs::HealthReport

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hercules::store::Workspace;
use hercules_exec::{report_to_trace, schedule_to_trace, toy, Binding, Executor};
use hercules_flow::TaskGraph;
use hercules_history::HistoryDb;
use hercules_obs::chrome::to_chrome_trace;
use hercules_obs::{profile, Metrics, RingBuffer, TraceEvent, Tracer};
use hercules_schema::fixtures;

const USAGE: &str = "\
herctrace — trace, profile, and export Hercules executions

USAGE:
    herctrace [OPTIONS]
    herctrace health --workspace <DIR> [--json]

SOURCE (choose one):
    (default)            execute a fixture flow live, traced
    --workspace <DIR>    replay the last execution of a durable workspace
    --schedule <N>       simulate an N-machine cluster schedule instead
    --postmortem <DIR>   reconstruct the flight-recorder tail of a
                         (possibly crashed) workspace; nonzero exit if
                         no record survives

OPTIONS:
    --fixture <fig5|fig6>   fixture flow for live/schedule mode [default: fig5]
    --format <report|gantt|tree|chrome>   rendering [default: report]
    --out <FILE>            write to FILE instead of stdout
    --work-ms <N>           simulated per-tool compute [default: 5]
    --serial                run subtasks serially (baseline comparison)
    -h, --help              print this help
";

struct Options {
    workspace: Option<String>,
    schedule: Option<usize>,
    postmortem: Option<String>,
    health: bool,
    json: bool,
    fixture: String,
    format: String,
    out: Option<String>,
    work_ms: u64,
    serial: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workspace: None,
        schedule: None,
        postmortem: None,
        health: false,
        json: false,
        fixture: "fig5".into(),
        format: "report".into(),
        out: None,
        work_ms: 5,
        serial: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "health" => opts.health = true,
            "--json" => opts.json = true,
            "--postmortem" => opts.postmortem = Some(value("--postmortem")?),
            "--workspace" => opts.workspace = Some(value("--workspace")?),
            "--schedule" => {
                opts.schedule = Some(
                    value("--schedule")?
                        .parse()
                        .map_err(|_| "--schedule needs a machine count".to_owned())?,
                );
            }
            "--fixture" => opts.fixture = value("--fixture")?,
            "--format" => opts.format = value("--format")?,
            "--out" => opts.out = Some(value("--out")?),
            "--work-ms" => {
                opts.work_ms = value("--work-ms")?
                    .parse()
                    .map_err(|_| "--work-ms needs a number".to_owned())?;
            }
            "--serial" => opts.serial = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.health && opts.workspace.is_none() {
        return Err("health needs --workspace <DIR>".to_owned());
    }
    if !matches!(opts.format.as_str(), "report" | "gantt" | "tree" | "chrome") {
        return Err(format!("unknown format `{}`", opts.format));
    }
    if !matches!(opts.fixture.as_str(), "fig5" | "fig6") {
        return Err(format!("unknown fixture `{}` (fig5 or fig6)", opts.fixture));
    }
    Ok(opts)
}

fn fixture_flow(name: &str) -> Result<TaskGraph, String> {
    let schema = Arc::new(fixtures::fig1());
    let flow = match name {
        "fig6" => hercules_flow::fixtures::fig6(schema),
        _ => hercules_flow::fixtures::fig5(schema),
    };
    flow.map_err(|e| format!("fixture: {e}"))
}

/// Executes the fixture flow live with tracing on; returns the trace
/// and the metrics it produced.
fn live_trace(opts: &Options) -> Result<(Vec<TraceEvent>, Metrics), String> {
    let flow = fixture_flow(&opts.fixture)?;
    let schema = flow.schema().clone();
    let mut db = HistoryDb::new(schema.clone());
    toy::seed_everything(&mut db, "herctrace");
    let mut binding = Binding::new();
    binding.bind_latest(&flow, &db);

    let ring = Arc::new(RingBuffer::new(65_536));
    let tracer = Tracer::new(ring.clone());
    let metrics = Metrics::new();
    let mut executor = Executor::new(toy::text_registry_with(
        &schema,
        toy::TextTool {
            work: Duration::from_millis(opts.work_ms),
            ..toy::TextTool::default()
        },
    ));
    executor.options_mut().parallel = !opts.serial;
    executor.options_mut().tracer = tracer;
    executor.options_mut().metrics = metrics.clone();
    executor
        .execute(&flow, &binding, &mut db)
        .map_err(|e| format!("execution: {e}"))?;
    Ok((ring.snapshot(), metrics))
}

/// Recovers a workspace and synthesizes the trace of its last run.
fn replayed_trace(dir: &str) -> Result<Vec<TraceEvent>, String> {
    let (_ws, session, recovery) =
        Workspace::open_session(Path::new(dir), |s| hercules::encaps::odyssey_registry(s))
            .map_err(|e| format!("workspace `{dir}`: {e}"))?;
    eprintln!("recovered workspace `{dir}`: {recovery}");
    eprintln!("recovery: {}", recovery.to_json());
    let report = session
        .last_report()
        .ok_or_else(|| format!("workspace `{dir}` holds no execution report"))?;
    Ok(report_to_trace(report, session.flow().ok()))
}

fn render(events: &[TraceEvent], format: &str, metrics: Option<&Metrics>) -> String {
    match format {
        "chrome" => to_chrome_trace(events),
        "tree" => profile::render_tree(&profile::build_spans(events)),
        "gantt" => profile::profile(events).render_gantt(80),
        _ => {
            let mut out = profile::profile(events).render_text();
            if let Some(metrics) = metrics {
                out.push('\n');
                out.push_str(&metrics.snapshot().render_text());
            }
            out
        }
    }
}

/// Reconstructs and prints the flight-recorder tail of a workspace.
/// `Err` when no parseable record survives (crash before the durable
/// session stamp, or no telemetry at all).
fn postmortem(dir: &str) -> Result<(), String> {
    let fs = hercules_sim::Fs::real();
    let report = hercules::read_postmortem(&fs, Path::new(dir))
        .map_err(|e| format!("postmortem `{dir}`: {e}"))?;
    print!("{}", report.render_text(20));
    if report.records.is_empty() {
        return Err(format!(
            "postmortem `{dir}`: no parseable telemetry record recovered"
        ));
    }
    Ok(())
}

/// Opens the workspace through the REPL machinery and renders its
/// health report, exactly as the REPL `health` command would.
fn health(dir: &str, json: bool) -> Result<String, String> {
    let mut ui = hercules::ui::Ui::new(hercules::Session::odyssey("herctrace"));
    ui.execute(&format!("open {dir}"))
        .map_err(|e| format!("workspace `{dir}`: {e}"))?;
    ui.execute(if json { "health --json" } else { "health" })
        .map_err(|e| format!("health: {e}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if let Some(dir) = &opts.postmortem {
        return postmortem(dir);
    }

    let output = if opts.health {
        let dir = opts.workspace.as_deref().expect("validated in parse_args");
        health(dir, opts.json)?
    } else if let Some(dir) = &opts.workspace {
        let events = replayed_trace(dir)?;
        render(&events, &opts.format, None)
    } else if let Some(machines) = opts.schedule {
        let flow = fixture_flow(&opts.fixture)?;
        let schedule = hercules_exec::cluster::simulate_schedule(&flow, machines)
            .map_err(|e| format!("schedule: {e}"))?;
        let events = schedule_to_trace(&schedule, Some(&flow));
        render(&events, &opts.format, None)
    } else {
        let (events, metrics) = live_trace(&opts)?;
        let mut out = render(&events, &opts.format, Some(&metrics));
        if opts.format == "report" {
            let flow = fixture_flow(&opts.fixture)?;
            let width = flow.max_parallelism().map_err(|e| format!("waves: {e}"))?;
            out.push_str(&format!(
                "flow `{}` schema-theoretic max parallelism (widest DAG level): {width}\n",
                opts.fixture
            ));
        }
        out
    };

    match &opts.out {
        Some(path) => {
            std::fs::write(path, &output).map_err(|e| format!("write `{path}`: {e}"))?;
            eprintln!("wrote {} bytes to `{path}`", output.len());
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("herctrace: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
