//! Crash-safe durable workspace: journaled persistence, torn-write
//! recovery, and resuming an interrupted flow run.
//!
//! A designer saves their session to a workspace directory, builds and
//! partially runs the Fig. 6 verification flow (the placer crashes,
//! the disjoint editor branch commits), and then the process "dies" —
//! tearing the journal mid-frame for good measure. A fresh process
//! reopens the workspace, recovers everything acknowledged before the
//! crash, and `resume` finishes the flow re-running only the failed
//! subtasks, with the committed branch served from the design history.
//! A last checkpoint finds every change already journaled and writes
//! nothing, and a third process reopens the same task window.
//!
//! ```sh
//! cargo run --release --example durable_session
//! ```

use std::fs::OpenOptions;
use std::io::Write as _;

use hercules::exec::{FailurePolicy, FaultPlan, FaultyEncapsulation};
use hercules::history::{Derivation, Metadata};
use hercules::ui::Ui;
use hercules::{eda, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("hercules-durable-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    // ------------------------------------------------------------------
    // Act 1: a journaled session, interrupted.
    // ------------------------------------------------------------------
    let mut session = Session::odyssey("jbb");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;

    // Sabotage the placer so the run fails partially, and seed a
    // netlist for the flow to consume.
    let schema = session.schema().clone();
    let placer = schema.require("Placer")?;
    let real = session
        .executor_mut()
        .registry()
        .lookup(&schema, placer)
        .expect("placer registered")
        .clone();
    session.executor_mut().registry_mut().register(
        placer,
        FaultyEncapsulation::wrap(real, FaultPlan::AlwaysPanic),
    );
    let editor = schema.require("CircuitEditor")?;
    let edited = schema.require("EditedNetlist")?;
    let editor_tool = session.db().instances_of(editor)[0];
    let cell = eda::cells::full_adder();
    let seeded = session.db_mut().record_derived(
        edited,
        Metadata::by("jbb").named(&cell.name),
        &cell.to_bytes(),
        Derivation::by_tool(editor_tool, []),
    )?;

    let mut ui = Ui::new(session);
    println!("{}", ui.execute(&format!("save {}", root.display()))?);
    let script = format!(
        "goal Verification\n\
         expand n0\n\
         specialize n2 EditedNetlist\n\
         expand n2\n\
         expand n3\n\
         expand n6\n\
         select n8 i{}\n\
         bind-latest\n\
         run\n",
        seeded.raw()
    );
    println!("{}", ui.run_script(&script)?);
    drop(ui); // the process dies here

    // A torn write: the crash happened mid-append, leaving half a
    // frame at the journal's tail.
    let journal = root.join("journal-0.log");
    let mut f = OpenOptions::new().append(true).open(&journal)?;
    f.write_all(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad])?;
    drop(f);
    println!("-- crash: journal torn mid-frame --\n");

    // ------------------------------------------------------------------
    // Act 2: recovery and resume in a fresh process.
    // ------------------------------------------------------------------
    let mut ui = Ui::new(Session::odyssey("jbb"));
    println!("{}", ui.execute(&format!("open {}", root.display()))?);
    println!("{}", ui.execute("log")?);
    println!("{}", ui.execute("resume")?);
    println!("{}", ui.execute("checkpoint")?);
    let shown = ui.execute("show")?;
    println!("{shown}");

    // ------------------------------------------------------------------
    // Act 3: the journal stands in for a snapshot.
    // ------------------------------------------------------------------
    // The journal holds every change since the generation's base, so
    // this checkpoint writes nothing, and reopening recovers the same
    // session all the same.
    let out = ui.execute("checkpoint")?;
    println!("{out}");
    if !out.contains("already holds every change") {
        return Err(format!("a checkpoint of a journaled session wrote a snapshot: {out}").into());
    }
    drop(ui);
    let mut ui = Ui::new(Session::odyssey("jbb"));
    println!("{}", ui.execute(&format!("open {}", root.display()))?);
    let reopened = ui.execute("show")?;
    println!("{reopened}");
    if reopened != shown {
        return Err("the reopened task window differs from the one before the checkpoint".into());
    }

    std::fs::remove_dir_all(&root).ok();
    Ok(())
}
