//! Seeded input generator.
//!
//! Every input a workload hands the program derives from the workload
//! seed: netlist widths, the shape of the pre-grown history, the order
//! of edits, which module is edited, and the REPL command scripts.
//! Widths are drawn as seeded permutations of a fixed multiset, so two
//! seeds give different sessions of the same total size — the spread
//! between seeds then measures the program, not the generator.
//!
//! Scripts carry `{name}` placeholders for values only the running
//! session knows (instance ids, directories); [`crate::session`]
//! resolves them as the script runs. [`Plan::render`] is the canonical
//! byte form: the same seed renders the same bytes.

use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The design-session workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Grow a flow, run it, then edit → retrace → checkpoint cycles,
    /// then reopen.
    EditLoop,
    /// Parallel disjoint branches against a shared content cache.
    FanoutCache,
}

impl Workload {
    /// Every workload, in the order the self-test runs them.
    pub const ALL: [Workload; 2] = [Workload::EditLoop, Workload::FanoutCache];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EditLoop => "edit-loop",
            Workload::FanoutCache => "fanout-cache",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big one session of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Pre-grown modules (netlist → layout → extracted netlist).
    pub modules: usize,
    /// Edit cycles per session (edit-loop).
    pub cycles: usize,
    /// Timed rounds per session (fanout-cache).
    pub rounds: usize,
    /// Disjoint `Verification` branches per round (fanout-cache).
    pub branches: usize,
    /// Sessions a measured run makes at least, however short
    /// `--seconds` is; sized so the tail percentile has ten samples
    /// beyond it.
    pub sessions: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn full(workload: Workload) -> Sizes {
        match workload {
            Workload::EditLoop => Sizes {
                modules: 4,
                cycles: 8,
                rounds: 0,
                branches: 0,
                sessions: 13,
            },
            Workload::FanoutCache => Sizes {
                modules: 0,
                cycles: 0,
                rounds: 4,
                branches: 8,
                sessions: 34,
            },
        }
    }

    /// The self-test sizes: every code path, a fraction of the work.
    pub fn tiny(workload: Workload) -> Sizes {
        match workload {
            Workload::EditLoop => Sizes {
                cycles: 2,
                sessions: 2,
                ..Sizes::full(workload)
            },
            Workload::FanoutCache => Sizes {
                rounds: 2,
                branches: 2,
                sessions: 2,
                ..Sizes::full(workload)
            },
        }
    }
}

/// Adder widths of the pre-grown modules cycle through this range.
const MODULE_WIDTHS: [usize; 4] = [2, 3, 4, 5];
/// Edit scripts cycle through these widths. Every edit cycle adds its
/// netlist and the retraced products to the checkpoint, so narrow
/// edits keep the one `open` per session from outweighing the cycles.
/// Edits come in pairs whose widths sum to the same total (see
/// [`paired`]).
const EDIT_WIDTHS: [usize; 4] = [2, 3, 4, 5];
/// Fan-out branch scripts cycle through these widths: wide enough that
/// tool work shows next to scheduling and journaling.
const BRANCH_WIDTHS: [usize; 4] = [24, 32, 40, 48];
/// The module the edit-loop flow verifies always has this width, so
/// the seed moves which module it is, not how much work it costs.
const TARGET_WIDTH: usize = 4;

/// Everything one workload session receives, generated from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan came from.
    pub seed: u64,
    /// The sizes the plan was generated for.
    pub sizes: Sizes,
    /// Adder width of each pre-grown module.
    pub module_widths: Vec<usize>,
    /// The module the edit-loop flow verifies and edits.
    pub target: usize,
    /// Adder width of each editor script, in the order they are used.
    pub script_widths: Vec<usize>,
    /// Commands run once after setup, before timing starts.
    pub prologue: Vec<String>,
    /// The timed script, one entry per step; each step is a group of
    /// command lines timed together (an edit cycle, a round, ...).
    pub steps: Vec<Step>,
}

/// One timed unit of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What the step is: `build`, `cycle`, `reopen` or `round`.
    pub kind: &'static str,
    /// The command lines, with `{placeholders}`.
    pub lines: Vec<String>,
}

impl Step {
    fn new(kind: &'static str, lines: &[&str]) -> Step {
        Step {
            kind,
            lines: lines.iter().map(|l| (*l).to_owned()).collect(),
        }
    }
}

fn cycled(rng: &mut Rng, values: &[usize], n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).map(|i| values[i % values.len()]).collect();
    rng.shuffle(&mut out);
    out
}

/// Like [`cycled`], but as consecutive pairs `(w, min + max - w)`. Every
/// edit cycle checkpoints the whole history, so an order that front-loads
/// wide edits costs more over a session than one that ends with them;
/// with each pair summing to the same width, the history after every
/// pair, and so the session's total work, is the same for every seed.
fn paired(rng: &mut Rng, values: &[usize], n: usize) -> Vec<usize> {
    let total = values.iter().min().unwrap_or(&0) + values.iter().max().unwrap_or(&0);
    let mut out: Vec<usize> = cycled(rng, values, n / 2)
        .into_iter()
        .flat_map(|w| [w, total - w])
        .collect();
    if n % 2 == 1 {
        out.push(total / 2);
    }
    out
}

impl Plan {
    /// Generates the plan for one session of `workload`.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Plan {
        let mut rng = Rng::new(seed);
        let module_widths = cycled(&mut rng, &MODULE_WIDTHS, sizes.modules);
        let candidates: Vec<usize> = (0..sizes.modules)
            .filter(|&m| module_widths[m] == TARGET_WIDTH)
            .collect();
        let target = if candidates.is_empty() {
            0
        } else {
            candidates[rng.below(candidates.len())]
        };
        let script_widths = match workload {
            Workload::EditLoop => paired(&mut rng, &EDIT_WIDTHS, sizes.cycles),
            Workload::FanoutCache => cycled(&mut rng, &BRANCH_WIDTHS, sizes.branches),
        };
        let mut plan = Plan {
            workload,
            seed,
            sizes,
            module_widths,
            target,
            script_widths,
            prologue: Vec::new(),
            steps: Vec::new(),
        };
        match workload {
            Workload::EditLoop => plan.edit_loop_scripts(),
            Workload::FanoutCache => plan.fanout_scripts(),
        }
        plan
    }

    fn edit_loop_scripts(&mut self) {
        self.prologue = vec!["save {ws}".to_owned()];
        // Verification of the target netlist: the netlist leaf and the
        // layout's netlist input both select the same instance.
        self.steps.push(Step::new(
            "build",
            &[
                "goal Verification",
                "expand n0",
                "specialize n2 EditedNetlist",
                "expand n3",
                "expand n5",
                "specialize n7 EditedNetlist",
                "bind-latest",
                "select n2 {target}",
                "select n7 {target}",
                "lint",
                "run",
                "checkpoint",
            ],
        ));
        for k in 0..self.sizes.cycles {
            let script = format!("select n1 {{script{k}}}");
            self.steps.push(Step {
                kind: "cycle",
                lines: vec![
                    "plan edit".to_owned(),
                    script,
                    "select n2 {prior}".to_owned(),
                    "run".to_owned(),
                    "stale".to_owned(),
                    "retrace {goal}".to_owned(),
                    "lint --incremental".to_owned(),
                    "uses {new}".to_owned(),
                    "checkpoint".to_owned(),
                ],
            });
        }
        self.steps
            .push(Step::new("reopen", &["open {ws}", "lint --incremental"]));
    }

    fn fanout_scripts(&mut self) {
        for _ in 0..self.sizes.rounds {
            let mut lines = vec!["save {ws}".to_owned(), "cache open {cache}".to_owned()];
            for b in 0..self.sizes.branches {
                // Each branch is 11 nodes: Verification of an edited
                // netlist against its own extraction (Fig. 8b), with
                // both netlist inputs edited from script `b`.
                let n = |k: usize| format!("n{}", 11 * b + k);
                lines.push("goal Verification".to_owned());
                lines.push(format!("expand {}", n(0)));
                lines.push(format!("specialize {} EditedNetlist", n(2)));
                lines.push(format!("expand {}", n(2)));
                lines.push(format!("expand {}", n(3)));
                lines.push(format!("expand {}", n(6)));
                lines.push(format!("specialize {} EditedNetlist", n(8)));
                lines.push(format!("expand {}", n(8)));
            }
            lines.push("bind-latest".to_owned());
            for b in 0..self.sizes.branches {
                lines.push(format!("select n{} {{script{b}}}", 11 * b + 4));
                lines.push(format!("select n{} {{script{b}}}", 11 * b + 10));
            }
            lines.push("run".to_owned());
            self.steps.push(Step {
                kind: "round",
                lines,
            });
        }
    }

    /// The canonical byte form of the plan: identical for identical
    /// seeds and sizes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {} seed {}", self.workload.name(), self.seed);
        let _ = writeln!(out, "sizes {:?}", self.sizes);
        let _ = writeln!(out, "module_widths {:?}", self.module_widths);
        let _ = writeln!(out, "target {}", self.target);
        let _ = writeln!(out, "script_widths {:?}", self.script_widths);
        for line in &self.prologue {
            let _ = writeln!(out, "prologue {line}");
        }
        for step in &self.steps {
            let _ = writeln!(out, "step {}", step.kind);
            for line in &step.lines {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}
