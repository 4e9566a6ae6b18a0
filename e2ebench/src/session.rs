//! Builds a workload's seeded session and drives its timed script
//! through the real REPL surface (`Ui::execute` under `Env::real()`,
//! product defaults, flight recorder on), checking outputs as it goes.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use hercules::eda::{cells, extract, place, PlacementRules};
use hercules::flow::{Expansion, NodeId};
use hercules::history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules::ui::Ui;
use hercules::{encaps, Session, SessionSpec, Workspace};
use hercules_analyze::{Diagnostics, HistoryLinter};

use crate::gen::{Plan, Sizes, Workload};
use crate::trace::{self, LayerStats, Tracer};

/// What one session measured.
#[derive(Debug, Default)]
pub struct SessionResult {
    /// Seconds spent building the seeded session, history and initial
    /// save.
    pub setup_s: f64,
    /// Seconds of the timed script (checks excluded).
    pub session_s: f64,
    /// `open` latencies, in ms. Only what the report needs is kept per
    /// session, so the run's own bookkeeping does not grow the peak
    /// resident set with the number of sessions.
    pub opens: Vec<f64>,
    /// Every timed step: kind and milliseconds.
    pub steps: Vec<(&'static str, f64)>,
    /// `run` latencies, with whether the cache was cold.
    pub runs: Vec<(bool, f64)>,
    /// Commands issued.
    pub attempted: usize,
    /// Commands that returned an error.
    pub failed: usize,
    /// Failed output checks, described.
    pub check_failures: Vec<String>,
    /// Checkpoint plus journal bytes on disk over history payload bytes.
    pub disk_ratio: f64,
    /// Per-layer metrics, on traced sessions.
    pub layers: Option<LayerStats>,
}

const USER: &str = "designer";

fn entity(session: &Session, name: &str) -> hercules::schema::EntityTypeId {
    session.schema().require(name).expect("odyssey entity")
}

/// The library's tool instance of `entity` named `name`.
fn library_tool(session: &Session, entity_name: &str, name: &str) -> InstanceId {
    let db = session.db();
    db.instances_of(entity(session, entity_name))
        .into_iter()
        .find(|&i| {
            db.instance(i)
                .map(|x| x.meta().name == name)
                .unwrap_or(false)
        })
        .expect("library tool instance")
}

/// Records one editor script per width: `CircuitEditor` instances whose
/// data is a ripple-adder netlist.
fn record_scripts(session: &mut Session, widths: &[usize]) -> Vec<InstanceId> {
    let editor = entity(session, "CircuitEditor");
    widths
        .iter()
        .enumerate()
        .map(|(k, &w)| {
            session
                .db_mut()
                .record_primary(
                    editor,
                    Metadata::by(USER).named(&format!("sced script: adder{w} edit{k}")),
                    &cells::ripple_adder(w).to_bytes(),
                )
                .expect("records script")
        })
        .collect()
}

/// Records the pre-grown project history and returns each module's
/// netlist. A module is netlist → layout → extracted netlist, recorded
/// with the library's own editor, placer and extractor instances; one
/// module per adder width, then a second netlist version of each
/// `revised` module, which makes its products stale. With
/// `real_payloads` every payload is what the tools would produce
/// (edit-loop runs tools on them); otherwise payloads are small tags.
fn grow_history(
    session: &mut Session,
    widths: &[usize],
    revised: &[usize],
    real_payloads: bool,
) -> Vec<InstanceId> {
    let editor = library_tool(session, "CircuitEditor", "sced (interactive)");
    let placer = library_tool(session, "Placer", "rowplace");
    let extractor = library_tool(session, "Extractor", "magic-ext");
    let rules = library_tool(session, "PlacementRules", "default rules");
    let (edited, layout_e, extracted_e) = (
        entity(session, "EditedNetlist"),
        entity(session, "Layout"),
        entity(session, "ExtractedNetlist"),
    );
    let mut modules = Vec::with_capacity(widths.len());
    for (m, &w) in widths.iter().enumerate() {
        let name = format!("m{m}_adder{w}");
        let (net_bytes, layout_bytes, extracted_bytes) = if real_payloads {
            let netlist = cells::ripple_adder(w);
            let layout = place(&netlist, &PlacementRules::default()).expect("adder places");
            let (ex, _) = extract(&layout);
            (netlist.to_bytes(), layout.to_bytes(), ex.to_bytes())
        } else {
            let tag = |kind: &str| format!("{kind} {name}").into_bytes();
            (tag("netlist"), tag("layout"), tag("extracted"))
        };
        let db = session.db_mut();
        let by = || Metadata::by(USER).named(&name);
        let netlist = db
            .record_derived(edited, by(), &net_bytes, Derivation::by_tool(editor, []))
            .expect("records netlist");
        let layout = db
            .record_derived(
                layout_e,
                by(),
                &layout_bytes,
                Derivation::by_tool(placer, [netlist, rules]),
            )
            .expect("records layout");
        db.record_derived(
            extracted_e,
            by(),
            &extracted_bytes,
            Derivation::by_tool(extractor, [layout]),
        )
        .expect("records extracted");
        modules.push(netlist);
    }
    for &m in revised {
        let bytes = format!("netlist m{m} v2").into_bytes();
        session
            .db_mut()
            .record_derived(
                edited,
                Metadata::by(USER).named(&format!("m{m} v2")),
                &bytes,
                Derivation::by_tool(editor, [modules[m]]),
            )
            .expect("records revision");
    }
    modules
}

/// Stores the catalog flow `edit`: an `EditedNetlist` expanded with its
/// optional prior `Netlist`, so each run records a new version.
fn store_edit_flow(session: &mut Session) {
    let netlist = entity(session, "Netlist");
    let out = session.start_from_goal("EditedNetlist").expect("goal");
    session
        .expand_with(out, &Expansion::new().with_optional(netlist))
        .expect("expands with prior");
    session
        .store_flow("edit", "edit a netlist into a new version")
        .expect("stores");
    session.clear_flow();
}

/// Order-sensitive digest of a history: record count plus, per
/// instance, its id, entity, name and payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryDigest {
    records: usize,
    hash: u64,
}

/// FNV-1a, 64 bit.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests the history and sums its payload bytes.
pub fn digest(db: &HistoryDb) -> (HistoryDigest, usize) {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut payload = 0;
    for inst in db.instances() {
        hash = fnv(hash, &inst.id().raw().to_le_bytes());
        hash = fnv(hash, db.schema().entity(inst.entity()).name().as_bytes());
        hash = fnv(hash, inst.meta().name.as_bytes());
        if let Ok(Some(data)) = db.data_of(inst.id()) {
            payload += data.len();
            hash = fnv(hash, data);
        }
    }
    (
        HistoryDigest {
            records: db.len(),
            hash,
        },
        payload,
    )
}

/// Bytes of the files in a workspace directory whose names start with
/// one of `prefixes`.
fn bytes_with_prefixes(ws: &Path, prefixes: &[&str]) -> u64 {
    fs::read_dir(ws)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    prefixes.iter().any(|p| name.starts_with(p))
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Milliseconds `f` takes.
fn time_ms(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e3
}

/// Placeholder values a script resolves against.
type Vars = BTreeMap<String, String>;

fn resolve(line: &str, vars: &Vars) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let close = rest[open..]
            .find('}')
            .map(|c| open + c)
            .expect("closed placeholder");
        let key = &rest[open + 1..close];
        out.push_str(
            vars.get(key)
                .map_or_else(|| panic!("unbound placeholder {key}"), String::as_str),
        );
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    out
}

fn inst(id: InstanceId) -> String {
    format!("i{}", id.raw())
}

/// Parses the first `iN` after `marker` in a transcript.
fn parse_instance_after(out: &str, marker: &str) -> Option<InstanceId> {
    let rest = &out[out.find(marker)? + marker.len()..];
    let digits: String = rest
        .trim_start()
        .strip_prefix('i')?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok().map(InstanceId::from_raw)
}

/// Drives one session's commands, timing them and running checks with
/// the clock paused.
struct Runner {
    ui: Ui,
    vars: Vars,
    tracer: Option<Tracer>,
    result: SessionResult,
    /// Wall time of the timed script so far, checks excluded.
    timed: f64,
}

impl Runner {
    fn new(ui: Ui, vars: Vars, traced: bool) -> Runner {
        let mut runner = Runner {
            ui,
            vars,
            tracer: traced.then(Tracer::default),
            result: SessionResult::default(),
            timed: 0.0,
        };
        runner.decorate();
        runner
    }

    fn decorate(&mut self) {
        if let Some(t) = &self.tracer {
            trace::decorate(self.ui.session_mut(), &t.log);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.result.check_failures.push(what());
        }
    }

    /// Runs one untimed command (setup, prologue, checks).
    fn untimed(&mut self, line: &str) -> String {
        let line = resolve(line, &self.vars);
        match self.ui.execute(&line) {
            Ok(out) => out,
            Err(e) => {
                self.check(false, || format!("untimed `{line}` failed: {e}"));
                String::new()
            }
        }
    }

    /// Runs one timed command; returns its transcript and milliseconds.
    fn timed(&mut self, line: &str) -> (String, f64) {
        let line = resolve(line, &self.vars);
        let verb = line.split_whitespace().next().unwrap_or("").to_owned();
        if let Some(t) = self.tracer.as_mut() {
            t.before(self.ui.session(), &verb);
        }
        let started = Instant::now();
        let result = self.ui.execute(&line);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.result.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.result.failed += 1;
                self.check(false, || format!("`{line}` failed: {e}"));
                String::new()
            }
        };
        if verb == "open" {
            self.decorate();
            self.result.opens.push(ms);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.after(self.ui.session_mut(), &verb, ms, &out);
        }
        (out, ms)
    }
}

/// A directory under the session root, as a command argument.
fn dir(root: &Path, name: &str) -> String {
    root.join(name).to_string_lossy().into_owned()
}

/// Builds and runs one session of the plan.
pub fn run_session(plan: &Plan, root: &Path, traced: bool) -> SessionResult {
    let _ = fs::remove_dir_all(root);
    fs::create_dir_all(root).expect("creates the session directory");
    let result = match plan.workload {
        Workload::EditLoop => edit_loop(plan, root, traced),
        Workload::FanoutCache => fanout_cache(plan, root, traced),
    };
    let _ = fs::remove_dir_all(root);
    result
}

/// Runs the untimed probes of the layer public functions on the final
/// state, then closes the tracer.
fn probe(mut tracer: Tracer, ui: Ui, ws: &str, fanout: InstanceId, session_ms: f64) -> LayerStats {
    let session = ui.session();
    let db = session.db();
    let (_, payload) = digest(db);
    tracer.set("history.records", db.len() as f64);
    tracer.set("history.payload_bytes", payload as f64);
    let mut json = String::new();
    let encode = time_ms(|| {
        json = SessionSpec::from_session(session)
            .to_json()
            .expect("encodes");
    });
    tracer.set("persist.encode_ms", encode);
    tracer.set("persist.spec_bytes", json.len() as f64);
    let mut spec = None;
    let decode = time_ms(|| spec = Some(SessionSpec::from_json(&json).expect("decodes")));
    tracer.set("persist.decode_ms", decode);
    let spec = spec.expect("decoded");
    let restore = time_ms(|| {
        spec.restore_with(|s| encaps::odyssey_registry(s))
            .expect("restores");
    });
    tracer.set("persist.restore_ms", restore);
    let full_lint = time_ms(|| {
        HistoryLinter::new()
            .lint_full(db, &mut Diagnostics::new())
            .expect("lints");
    });
    tracer.set("analyze.full_lint_probe_ms", full_lint);
    let stale = time_ms(|| {
        db.stale_instances().expect("stale scan");
    });
    tracer.set("history.stale_probe_ms", stale);
    let chain = time_ms(|| {
        db.forward_chain(fanout).expect("forward chain");
    });
    tracer.set("history.forward_chain_probe_ms", chain);
    let journal = bytes_with_prefixes(Path::new(ws), &["journal-"]);
    tracer.set("store.journal_bytes", journal as f64);
    drop(ui);
    let open = time_ms(|| {
        Workspace::open_session(Path::new(ws), |s| encaps::odyssey_registry(s)).expect("opens");
    });
    tracer.set("store.open_probe_ms", open);
    tracer.finish(session_ms)
}

/// Closes a session: the end-of-session measurements, and on traced
/// sessions the probes, with `fanout` as the `forward_chain` root.
fn finish(mut runner: Runner, ws: &str, fanout: InstanceId) -> SessionResult {
    let (_, payload) = digest(runner.ui.session().db());
    let store = bytes_with_prefixes(Path::new(ws), &["checkpoint-", "journal-"]);
    runner.result.disk_ratio = store as f64 / payload.max(1) as f64;
    runner.result.session_s = runner.timed / 1e3;
    let session_ms = runner.timed;
    let mut result = std::mem::take(&mut runner.result);
    if let Some(tracer) = runner.tracer.take() {
        result.layers = Some(probe(tracer, runner.ui, ws, fanout, session_ms));
    }
    result
}

/// Runs a step's lines, timing the step; `after` runs (clock paused)
/// after each command with its verb, transcript and milliseconds.
fn run_step(
    runner: &mut Runner,
    kind: &'static str,
    lines: &[String],
    mut after: impl FnMut(&mut Runner, &str, &str, f64),
) {
    let started = Instant::now();
    let mut paused = 0.0;
    for line in lines {
        let (out, ms) = runner.timed(line);
        let verb = line.split_whitespace().next().unwrap_or("");
        let check_started = Instant::now();
        after(runner, verb, &out, ms);
        paused += check_started.elapsed().as_secs_f64();
    }
    let ms = (started.elapsed().as_secs_f64() - paused) * 1e3;
    runner.timed += ms;
    runner.result.steps.push((kind, ms));
}

fn edit_loop(plan: &Plan, root: &Path, traced: bool) -> SessionResult {
    let setup = Instant::now();
    let mut session = Session::odyssey(USER);
    store_edit_flow(&mut session);
    let modules = grow_history(&mut session, &plan.module_widths, &[], true);
    let scripts = record_scripts(&mut session, &plan.script_widths);
    let target = modules[plan.target];
    let mut vars = Vars::new();
    let ws = dir(root, "ws");
    vars.insert("ws".into(), ws.clone());
    vars.insert("target".into(), inst(target));
    vars.insert("prior".into(), inst(target));
    for (k, &s) in scripts.iter().enumerate() {
        vars.insert(format!("script{k}"), inst(s));
    }
    let mut runner = Runner::new(Ui::new(session), vars, traced);
    for line in &plan.prologue {
        runner.untimed(line);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    for step in &plan.steps {
        if step.kind == "reopen" {
            // Close the session; the next `open` must recover exactly
            // this history.
            let (expected, _) = digest(runner.ui.session().db());
            runner.ui = Ui::new(Session::odyssey(USER));
            run_step(
                &mut runner,
                step.kind,
                &step.lines,
                |d, verb, out, _| match verb {
                    "open" => {
                        let (got, _) = digest(d.ui.session().db());
                        d.check(got == expected, || {
                            format!("reopened history {got:?} differs from {expected:?}")
                        });
                    }
                    "lint" => {
                        // Incremental must agree with a full lint.
                        let full = d.untimed("lint");
                        let strip = |s: &str| {
                            s.lines()
                                .filter(|l| !l.starts_with("analyzed "))
                                .collect::<Vec<_>>()
                                .join("\n")
                        };
                        d.check(strip(out) == strip(&full), || {
                            format!("incremental lint differs from full:\n{out}\nvs\n{full}")
                        });
                    }
                    _ => {}
                },
            );
            continue;
        }
        run_step(
            &mut runner,
            step.kind,
            &step.lines,
            |d, verb, out, _| match verb {
                "run" => {
                    let Some(report) = d.ui.session().last_report() else {
                        d.check(false, || "run left no report".into());
                        return;
                    };
                    let out_node = NodeId::from_index(0);
                    let Ok(produced) = report.try_single(out_node) else {
                        d.check(false, || "run produced no goal instance".into());
                        return;
                    };
                    if step.kind == "build" {
                        d.vars.insert("goal".into(), inst(produced));
                    } else {
                        d.vars.insert("new".into(), inst(produced));
                        d.vars.insert("prior".into(), inst(produced));
                    }
                }
                "retrace" => {
                    let Some(goal) = parse_instance_after(out, "current result(s):") else {
                        d.check(false, || format!("retrace re-ran nothing: {out}"));
                        return;
                    };
                    d.vars.insert("goal".into(), inst(goal));
                    let stale = d.ui.session().db().stale_instances().unwrap_or_default();
                    d.check(stale.iter().all(|s| s.instance != goal), || {
                        format!("retraced goal {goal} is still stale")
                    });
                }
                _ => {}
            },
        );
    }
    let placer = library_tool(runner.ui.session(), "Placer", "rowplace");
    let mut result = finish(runner, &ws, placer);
    result.setup_s = setup_s;
    result
}

/// Payload bytes of everything a run produced or bound, by node.
fn produced_bytes(session: &Session) -> Vec<(usize, Vec<u8>)> {
    let Some(report) = session.last_report() else {
        return Vec::new();
    };
    let db = session.db();
    let mut out: Vec<(usize, Vec<u8>)> = report
        .produced()
        .flat_map(|(node, ids)| ids.iter().map(move |&id| (node.index(), id)))
        .map(|(node, id)| {
            (
                node,
                db.data_of(id).ok().flatten().unwrap_or_default().to_vec(),
            )
        })
        .collect();
    out.sort();
    out
}

fn fanout_cache(plan: &Plan, root: &Path, traced: bool) -> SessionResult {
    let setup = Instant::now();
    let mut template = Session::odyssey(USER);
    let scripts = record_scripts(&mut template, &plan.script_widths);
    let options = template.executor_mut().options_mut();
    options.parallel = true;
    options.workers = 2;
    let mut vars = Vars::new();
    vars.insert("cache".into(), dir(root, "cache"));
    for (k, &s) in scripts.iter().enumerate() {
        vars.insert(format!("script{k}"), inst(s));
    }
    // The initial save of the seeded session, which every workload's
    // setup includes; each round then saves a fresh copy of its own.
    let mut runner = Runner::new(Ui::new(template.clone()), vars, traced);
    runner.vars.insert("ws".into(), dir(root, "ws-setup"));
    runner.untimed("save {ws}");
    let setup_s = setup.elapsed().as_secs_f64();

    let mut cold: Option<Vec<(usize, Vec<u8>)>> = None;
    let mut ws = String::new();
    for (round, step) in plan.steps.iter().enumerate() {
        ws = dir(root, &format!("ws-{round}"));
        runner.vars.insert("ws".into(), ws.clone());
        runner.ui = Ui::new(template.clone());
        runner.decorate();
        run_step(&mut runner, step.kind, &step.lines, |d, verb, _, ms| {
            if verb != "run" {
                return;
            }
            d.result.runs.push((round == 0, ms));
            let bytes = produced_bytes(d.ui.session());
            d.check(!bytes.is_empty(), || "run produced nothing".into());
            match &cold {
                None => cold = Some(bytes),
                Some(reference) => d.check(&bytes == reference, || {
                    format!("warm round {round} output differs from the cold round")
                }),
            }
        });
    }
    let placer = library_tool(runner.ui.session(), "Placer", "rowplace");
    let mut result = finish(runner, &ws, placer);
    result.setup_s = setup_s;
    result
}

/// Times the prototype's three suspects at growing history sizes: the
/// checkpoint decode (`SessionSpec::from_json`), the `stale` scan
/// (`HistoryDb::stale_instances`), and the re-lint cone after one edit
/// (`HistoryLinter::lint_incremental`). Returns a text table.
pub fn suspects() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "payloads  modules  records  spec_bytes  decode_ms  stale_ms  relint_analyzed/total\n",
    );
    for (real, modules) in [
        (false, 100),
        (false, 200),
        (false, 400),
        (false, 800),
        (true, 15),
        (true, 30),
        (true, 60),
        (true, 120),
    ] {
        let sizes = Sizes {
            modules,
            ..Sizes::full(Workload::EditLoop)
        };
        let widths = Plan::generate(Workload::EditLoop, 1, sizes).module_widths;
        // Every tenth module has a second netlist version.
        let revised: Vec<usize> = (0..modules).step_by(10).collect();
        let mut session = Session::odyssey(USER);
        let grown = grow_history(&mut session, &widths, &revised, real);
        let json = SessionSpec::from_session(&session)
            .to_json()
            .expect("encodes");
        let decode = time_ms(|| {
            SessionSpec::from_json(&json).expect("decodes");
        });
        let stale = time_ms(|| {
            session.db().stale_instances().expect("stale scan");
        });
        let mut linter = HistoryLinter::new();
        linter
            .lint_full(session.db(), &mut Diagnostics::new())
            .expect("lints");
        let editor = library_tool(&session, "CircuitEditor", "sced (interactive)");
        let edited = entity(&session, "EditedNetlist");
        session
            .db_mut()
            .record_derived(
                edited,
                Metadata::by(USER).named("m0 edit"),
                b"netlist m0 edit",
                Derivation::by_tool(editor, [grown[0]]),
            )
            .expect("records the edit");
        linter
            .lint_incremental(session.db(), &mut Diagnostics::new())
            .expect("lints");
        let stats = linter.stats();
        let _ = writeln!(
            out,
            "{:<8}  {modules:>7}  {:>7}  {:>10}  {decode:>9.1}  {stale:>8.1}  {}/{}",
            if real { "real" } else { "tags" },
            session.db().len(),
            json.len(),
            stats.instances_analyzed,
            stats.instances_total
        );
    }
    out
}
