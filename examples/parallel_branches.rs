//! Fig. 6: disjoint branches execute in parallel.
//!
//! The verification flow has two independent input branches (the edited
//! netlist and the extraction chain); with parallel execution enabled
//! the engine hands every ready subtask to a pool of worker threads, so
//! the two branches run at the same time.
//!
//! ```sh
//! cargo run --release --example parallel_branches
//! ```

use std::time::{Duration, Instant};

use hercules::exec::{toy, Binding, Executor, MultiInstanceMode};
use hercules::flow::fixtures;
use hercules::history::HistoryDb;
use hercules::schema::fixtures as schemas;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Arc::new(schemas::fig1());
    let flow = fixtures::fig6(schema.clone())?;
    println!(
        "Fig. 6 flow: {} nodes, {} outputs",
        flow.len(),
        flow.outputs().len()
    );
    let verification = flow.outputs()[0];
    let inputs = flow.data_inputs_of(verification);
    println!(
        "the verification's two input branches are node-disjoint: {}\n",
        flow.ancestors(inputs[0])
            .iter()
            .all(|x| !flow.ancestors(inputs[1]).contains(x))
    );

    // Simulated tool work of 40 ms per invocation makes the overlap
    // visible; the real EDA tools are too fast for wall-clock drama.
    let work = Duration::from_millis(40);
    let mut results = Vec::new();
    for parallel in [false, true] {
        let mut db = HistoryDb::new(schema.clone());
        toy::seed_everything(&mut db, "setup");
        let registry = toy::text_registry_with(
            &schema,
            toy::TextTool {
                mode: MultiInstanceMode::RunPerInstance,
                work,
            },
        );
        let mut executor = Executor::new(registry);
        executor.options_mut().parallel = parallel;
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let start = Instant::now();
        let report = executor.execute(&flow, &binding, &mut db)?;
        let elapsed = start.elapsed();
        println!(
            "{}: {} subtasks, {} invocations, {elapsed:?}",
            if parallel { "parallel" } else { "serial  " },
            report.tasks.len(),
            report.runs()
        );
        results.push((
            elapsed,
            db.data_of(report.single(verification))?
                .expect("produced")
                .to_vec(),
        ));
    }
    assert_eq!(results[0].1, results[1].1, "identical results");
    println!(
        "\nspeedup from overlapping the disjoint branches: {:.2}x",
        results[0].0.as_secs_f64() / results[1].0.as_secs_f64()
    );
    Ok(())
}
