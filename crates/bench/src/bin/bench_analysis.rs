//! `bench_analysis` — the incremental-analysis perf harness behind
//! `BENCH_analysis.json`.
//!
//! Builds synthetic Fig. 1 design histories at several sizes (each
//! module is an edited-netlist → layout → extracted-netlist chain),
//! then measures three latencies per size:
//!
//! * a from-scratch full `HL05xx` lint;
//! * an incremental re-lint after a single netlist edit, on a copy of
//!   a linter warmed over the base history — the REPL's
//!   `lint --incremental` path;
//! * predicting the edit's retrace cone from the history's lookups.
//!
//! With `--check`, exits nonzero when the incremental re-lint at the
//! largest size is under 5× faster than the full lint — the gate that
//! keeps the dirty cone earning its keep as histories grow.
//!
//! ```sh
//! cargo run --release -p hercules-bench --bin bench_analysis -- --check
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use hercules::history::{Derivation, HistoryDb, InstanceId, Metadata, RetraceCone};
use hercules::schema::fixtures;
use hercules_analyze::{Diagnostics, HistoryLinter};
use serde::Value;

/// `--check` gate: the incremental re-lint after one edit must beat
/// the full lint by this factor at the largest history size.
const DEFAULT_GATE: f64 = 5.0;

/// `--baseline` slack: the current incremental speedup may fall to
/// half the committed baseline's before the diff counts it a
/// regression — wall-clock ratios move with the machine; a 2× collapse
/// does not.
const BASELINE_SPEEDUP_SLACK: f64 = 2.0;

const USAGE: &str = "\
bench_analysis — incremental-analysis perf harness; writes BENCH_analysis.json

USAGE:
    bench_analysis [--out FILE] [--iters N] [--sizes A,B,C] [--gate X]
                   [--baseline FILE] [--check]

    --out FILE       output path [default: BENCH_analysis.json]
    --iters N        measured iterations per size [default: 20]
    --sizes L        comma-separated module counts; each module is a
                     4-instance derivation chain [default: 32,128,512]
    --gate X         required incremental speedup at the largest size
                     [default: 5.0]
    --baseline FILE  diff this run against a committed BENCH_analysis.json:
                     deterministic counters (instances, solver visits,
                     dirty-cone and retrace-cone sizes) must match
                     exactly; the incremental speedup may not fall
                     below half the baseline's
    --check          fail (exit 1) when the largest size misses the
                     gate or the baseline diff finds a regression
";

struct Options {
    out: String,
    iters: usize,
    sizes: Vec<usize>,
    gate: f64,
    baseline: Option<String>,
    check: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_analysis.json".into(),
        iters: 20,
        sizes: vec![32, 128, 512],
        gate: DEFAULT_GATE,
        baseline: None,
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out")?,
            "--iters" => {
                opts.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "--iters: bad number".to_owned())?;
            }
            "--sizes" => {
                opts.sizes = value("--sizes")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| "--sizes: bad number".to_owned())
                    })
                    .collect::<Result<_, _>>()?;
                if opts.sizes.is_empty() {
                    return Err("--sizes: need at least one size".into());
                }
            }
            "--gate" => {
                opts.gate = value("--gate")?
                    .parse()
                    .map_err(|_| "--gate: bad number".to_owned())?;
            }
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--check" => opts.check = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    opts.iters = opts.iters.max(3);
    opts.sizes.sort_unstable();
    Ok(opts)
}

/// A synthetic history plus the handles the edit workload needs: the
/// first module's netlist (the edit target) and its extracted netlist
/// (the retrace goal).
struct SyntheticHistory {
    db: HistoryDb,
    editor: InstanceId,
    edit_target: InstanceId,
    goal: InstanceId,
}

/// Builds `modules` independent edited-netlist → layout → extracted-
/// netlist chains over the Fig. 1 schema. Each module gets its own
/// `CircuitEditor` instance: the dirty cone of an edit includes the
/// editing tool's fan-out, so sharing one editor would make every
/// module dirty and the fixture would measure nothing. Every chain is
/// a complete derivation record, so retrace cones are well defined
/// everywhere.
fn build_history(modules: usize) -> SyntheticHistory {
    let schema = Arc::new(fixtures::fig1());
    let mut db = HistoryDb::new(schema.clone());
    let t = |n: &str| schema.require(n).expect("known entity");
    let by = Metadata::by("bench");
    let placer = db
        .record_primary(t("Placer"), by.clone(), b"placer")
        .expect("records");
    let extractor = db
        .record_primary(t("Extractor"), by.clone(), b"ext")
        .expect("records");
    let rules = db
        .record_primary(t("PlacementRules"), by.clone(), b"rules")
        .expect("records");

    let mut first_editor = None;
    let mut edit_target = None;
    let mut goal = None;
    for m in 0..modules.max(1) {
        let editor = db
            .record_primary(t("CircuitEditor"), by.clone(), b"ed")
            .expect("records");
        let net = db
            .record_derived(
                t("EditedNetlist"),
                by.clone(),
                b"net",
                Derivation::by_tool(editor, []),
            )
            .expect("records");
        let layout = db
            .record_derived(
                t("Layout"),
                by.clone(),
                b"layout",
                Derivation::by_tool(placer, [net, rules]),
            )
            .expect("records");
        let extracted = db
            .record_derived(
                t("ExtractedNetlist"),
                by.clone(),
                b"x",
                Derivation::by_tool(extractor, [layout]),
            )
            .expect("records");
        if m == 0 {
            first_editor = Some(editor);
            edit_target = Some(net);
            goal = Some(extracted);
        }
    }
    SyntheticHistory {
        db,
        editor: first_editor.expect("at least one module"),
        edit_target: edit_target.expect("at least one module"),
        goal: goal.expect("at least one module"),
    }
}

fn median_ns(mut runs: Vec<u64>) -> u64 {
    runs.sort_unstable();
    runs[runs.len() / 2]
}

/// One measured history size.
struct SizeSample {
    modules: usize,
    instances: usize,
    full_ns: u64,
    full_visits: usize,
    incremental_ns: u64,
    incremental_analyzed: usize,
    cone_ns: u64,
    cone_rerun: usize,
    cone_recall: usize,
}

impl SizeSample {
    fn speedup(&self) -> f64 {
        self.full_ns as f64 / self.incremental_ns.max(1) as f64
    }
}

fn measure_size(modules: usize, opts: &Options) -> SizeSample {
    let base = build_history(modules);
    let instances = base.db.len();
    let edited_entity = base.db.schema().require("EditedNetlist").expect("known");

    // Full lint: a fresh linter over the whole history, every round.
    let mut full_runs = Vec::with_capacity(opts.iters);
    let mut full_visits = 0;
    for i in 0..=opts.iters {
        let mut out = Diagnostics::new();
        let mut linter = HistoryLinter::new();
        let started = Instant::now();
        linter.lint_full(&base.db, &mut out).expect("lints");
        if i > 0 {
            full_runs.push(started.elapsed().as_nanos() as u64);
            full_visits = linter.stats().solver_visits;
        }
    }

    // Incremental: warm a linter over the base history once, then per
    // round copy it and a clone of the base, record one edit, and time
    // only the re-lint — the REPL's edit/`lint --incremental` cycle.
    let mut warm = HistoryLinter::new();
    let mut out = Diagnostics::new();
    warm.lint_incremental(&base.db, &mut out).expect("lints");

    let mut inc_runs = Vec::with_capacity(opts.iters);
    let mut inc_analyzed = 0;
    let mut cone_runs = Vec::with_capacity(opts.iters);
    let mut cone_rerun = 0;
    let mut cone_recall = 0;
    for i in 0..=opts.iters {
        let mut db = base.db.clone();
        let mut linter = warm.clone();
        db.record_derived(
            edited_entity,
            Metadata::by("bench"),
            b"net v2",
            Derivation::by_tool(base.editor, [base.edit_target]),
        )
        .expect("records");

        let mut out = Diagnostics::new();
        let started = Instant::now();
        linter.lint_incremental(&db, &mut out).expect("lints");
        let lint_ns = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let cone = RetraceCone::compute(&db, base.goal).expect("cone");
        let cone_ns = started.elapsed().as_nanos() as u64;

        if i > 0 {
            inc_runs.push(lint_ns);
            cone_runs.push(cone_ns);
            inc_analyzed = linter.stats().instances_analyzed;
            cone_rerun = cone.rerun.len();
            cone_recall = cone.recall.len();
        }
    }

    SizeSample {
        modules,
        instances,
        full_ns: median_ns(full_runs),
        full_visits,
        incremental_ns: median_ns(inc_runs),
        incremental_analyzed: inc_analyzed,
        cone_ns: median_ns(cone_runs),
        cone_rerun,
        cone_recall,
    }
}

/// One size row parsed back out of a committed `BENCH_analysis.json`.
struct BaselineSize {
    modules: usize,
    instances: usize,
    full_visits: usize,
    incremental_analyzed: usize,
    cone_rerun: usize,
    cone_recall: usize,
    speedup: f64,
}

fn value_u64(v: Option<&Value>) -> Option<u64> {
    match v? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn value_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn load_baseline(path: &str) -> Result<Vec<BaselineSize>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("baseline `{path}`: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("baseline `{path}`: {e}"))?;
    let sizes = match root.get("sizes") {
        Some(Value::Seq(rows)) => rows,
        _ => return Err(format!("baseline `{path}`: no `sizes` array")),
    };
    let field = |row: &Value, name: &str| -> Result<u64, String> {
        value_u64(row.get(name)).ok_or_else(|| format!("baseline `{path}`: bad `{name}`"))
    };
    sizes
        .iter()
        .map(|row| {
            Ok(BaselineSize {
                modules: field(row, "modules")? as usize,
                instances: field(row, "instances")? as usize,
                full_visits: field(row, "full_solver_visits")? as usize,
                incremental_analyzed: field(row, "incremental_instances_analyzed")? as usize,
                cone_rerun: field(row, "cone_rerun")? as usize,
                cone_recall: field(row, "cone_recall")? as usize,
                speedup: value_f64(row.get("incremental_speedup"))
                    .ok_or_else(|| format!("baseline `{path}`: bad `incremental_speedup`"))?,
            })
        })
        .collect()
}

/// Diffs this run against the committed baseline. Deterministic
/// counters must match exactly — they only move when the analysis
/// itself changes behavior, which a baseline refresh should record
/// deliberately. Wall-clock speedups get [`BASELINE_SPEEDUP_SLACK`].
/// Returns the regression lines (empty = clean diff).
fn diff_baseline(samples: &[SizeSample], baseline: &[BaselineSize]) -> Vec<String> {
    let mut regressions = Vec::new();
    for b in baseline {
        let Some(s) = samples.iter().find(|s| s.modules == b.modules) else {
            regressions.push(format!(
                "size {} modules: in baseline but not measured (pass --sizes to match)",
                b.modules
            ));
            continue;
        };
        let mut exact = |name: &str, now: usize, then: usize| {
            if now != then {
                regressions.push(format!(
                    "size {} modules: {name} changed {then} -> {now}",
                    b.modules
                ));
            }
        };
        exact("instances", s.instances, b.instances);
        exact("full_solver_visits", s.full_visits, b.full_visits);
        exact(
            "incremental_instances_analyzed",
            s.incremental_analyzed,
            b.incremental_analyzed,
        );
        exact("cone_rerun", s.cone_rerun, b.cone_rerun);
        exact("cone_recall", s.cone_recall, b.cone_recall);
        let floor = b.speedup / BASELINE_SPEEDUP_SLACK;
        if s.speedup() < floor {
            regressions.push(format!(
                "size {} modules: incremental speedup {:.2}x fell below {:.2}x \
                 (baseline {:.2}x / slack {BASELINE_SPEEDUP_SLACK:.0})",
                b.modules,
                s.speedup(),
                floor,
                b.speedup
            ));
        }
    }
    regressions
}

fn render_json(opts: &Options, samples: &[SizeSample]) -> String {
    let stamp_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"analysis\",");
    let _ = writeln!(out, "  \"unix_ms\": {stamp_ms},");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"fixture\": \"fig1 netlist->layout->extract modules\", \
         \"iters\": {}}},",
        opts.iters
    );
    let _ = writeln!(out, "  \"gate_speedup\": {:.1},", opts.gate);
    out.push_str("  \"sizes\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"modules\": {}, \"instances\": {}, \
             \"full_lint_median_ns\": {}, \"full_solver_visits\": {}, \
             \"incremental_lint_median_ns\": {}, \"incremental_instances_analyzed\": {}, \
             \"incremental_speedup\": {:.3}, \
             \"retrace_cone_median_ns\": {}, \"cone_rerun\": {}, \"cone_recall\": {}}}",
            s.modules,
            s.instances,
            s.full_ns,
            s.full_visits,
            s.incremental_ns,
            s.incremental_analyzed,
            s.speedup(),
            s.cone_ns,
            s.cone_rerun,
            s.cone_recall
        );
        out.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    let samples: Vec<SizeSample> = opts
        .sizes
        .iter()
        .map(|&modules| measure_size(modules, &opts))
        .collect();

    let json = render_json(&opts, &samples);
    std::fs::write(&opts.out, &json).map_err(|e| format!("write `{}`: {e}", opts.out))?;

    for s in &samples {
        println!(
            "{} instances: full {:.1}µs ({} visits), incremental {:.1}µs \
             ({} analyzed) — {:.1}x; cone {:.1}µs ({} rerun, {} recalled)",
            s.instances,
            s.full_ns as f64 / 1e3,
            s.full_visits,
            s.incremental_ns as f64 / 1e3,
            s.incremental_analyzed,
            s.speedup(),
            s.cone_ns as f64 / 1e3,
            s.cone_rerun,
            s.cone_recall
        );
    }
    let largest = samples.last().expect("at least one size");
    println!(
        "incremental re-lint at {} instances: {:.1}x over full (gate {:.1}x) — wrote `{}`",
        largest.instances,
        largest.speedup(),
        opts.gate,
        opts.out
    );
    let mut failed = false;
    if opts.check && largest.speedup() < opts.gate {
        eprintln!(
            "bench_analysis: FAIL — incremental re-lint only {:.2}x over full \
             at the largest size (gate {:.1}x)",
            largest.speedup(),
            opts.gate
        );
        failed = true;
    }
    if let Some(path) = &opts.baseline {
        let regressions = diff_baseline(&samples, &load_baseline(path)?);
        if regressions.is_empty() {
            println!("baseline `{path}`: clean diff");
        } else {
            for line in &regressions {
                eprintln!("bench_analysis: baseline diff — {line}");
            }
            if opts.check {
                failed = true;
            }
        }
    }
    if failed {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench_analysis: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
