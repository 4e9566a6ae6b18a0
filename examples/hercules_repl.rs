//! An interactive Hercules shell.
//!
//! With `-i`, reads one command per line from stdin and runs it through
//! `hercules::ui::Ui::execute`, which takes every verb of the Fig. 9
//! task window; each line prints its transcript or an `error:` line.
//! Without `-i` a short demo script runs. Either way the exit status is
//! 1 if any command failed, so a piped script doubles as a check.
//!
//! ```sh
//! cargo run --example hercules_repl            # demo script
//! cargo run --example hercules_repl -- -i      # interactive (pipe commands)
//! ```

use std::io::BufRead as _;
use std::process::ExitCode;

use hercules::ui::Ui;
use hercules::Session;

const DEMO: &str = "\
catalogs
goal Performance
expand n0
expand n2
specialize n5 EditedNetlist
expand n5
expand n4
browse n6
select n6 i12
bind-latest
show
lint
run
lint
";

fn main() -> ExitCode {
    let interactive = std::env::args().any(|a| a == "-i" || a == "--interactive");
    let mut ui = Ui::new(Session::odyssey("designer"));

    if !interactive {
        println!("(running the demo script; pass -i and pipe commands for interactive use)\n");
        for line in DEMO.lines() {
            println!("> {line}");
            match ui.execute(line) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("demo failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("Hercules task manager — type commands, ctrl-d to exit.");
    let mut failed = false;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        match ui.execute(line) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                println!("error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
