//! Experiment F6 (Fig. 6): parallel execution of disjoint branches vs
//! sequential topological order, swept over branch count.
//!
//! Each toy tool invocation simulates 2 ms of compute; speedup should
//! grow with the number of independent branches up to the thread
//! budget.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hercules::exec::{toy, Executor, MultiInstanceMode};

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig06/parallel_branches");
    group.sample_size(10);
    for branches in [1usize, 2, 4, 8] {
        let (schema, flow, db, binding) = hercules_bench::disjoint_branches(branches);
        let registry = toy::text_registry_with(
            &schema,
            toy::TextTool {
                mode: MultiInstanceMode::RunPerInstance,
                work: Duration::from_millis(2),
            },
        );
        for parallel in [false, true] {
            let mut executor = Executor::new(registry.clone());
            executor.options_mut().parallel = parallel;
            let label = if parallel { "parallel" } else { "serial" };
            group.bench_with_input(
                BenchmarkId::new(label, branches),
                &(flow.clone(), db.clone(), binding.clone()),
                |b, (flow, db, binding)| {
                    b.iter(|| {
                        let mut db = db.clone();
                        executor.execute(flow, binding, &mut db).expect("runs")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_scheduling_overhead(c: &mut Criterion) {
    // Zero-work tools isolate the engine's own scheduling cost.
    let mut group = c.benchmark_group("fig06/scheduling_overhead");
    for branches in [2usize, 8] {
        let (schema, flow, db, binding) = hercules_bench::disjoint_branches(branches);
        let registry = toy::text_registry(&schema);
        for parallel in [false, true] {
            let mut executor = Executor::new(registry.clone());
            executor.options_mut().parallel = parallel;
            let label = if parallel {
                "parallel_zero_work"
            } else {
                "serial_zero_work"
            };
            group.bench_with_input(
                BenchmarkId::new(label, branches),
                &(flow.clone(), db.clone(), binding.clone()),
                |b, (flow, db, binding)| {
                    b.iter(|| {
                        let mut db = db.clone();
                        executor.execute(flow, binding, &mut db).expect("runs")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_machine_sweep(c: &mut Criterion) {
    // Fig. 6's "possibly on different machines": list-scheduling the
    // flow onto k simulated machines. The measured quantity is the
    // scheduler itself; the schedule's makespan/speedup appear in
    // EXPERIMENTS.md (printed once below).
    use hercules::exec::cluster::simulate_schedule;
    use hercules::flow::TaskGraph;
    use hercules::schema::synth::SynthConfig;

    let cfg = SynthConfig {
        layers: 5,
        width: 8,
        fanin: 2,
        subtypes: 0,
    };
    let schema = std::sync::Arc::new(cfg.generate());
    let mut flow = TaskGraph::new(schema.clone());
    for goal in cfg.goal_layer(&schema) {
        let node = flow.seed(goal).expect("seeds");
        flow.expand_all(node).expect("expands");
    }

    let mut group = c.benchmark_group("fig06/machine_sweep");
    for machines in [1usize, 2, 4, 8, 16] {
        let s = simulate_schedule(&flow, machines).expect("schedules");
        eprintln!(
            "machine_sweep: k={machines} makespan={} speedup={:.2} efficiency={:.2}",
            s.makespan,
            s.speedup(),
            s.efficiency()
        );
        group.bench_with_input(
            BenchmarkId::new("list_schedule", machines),
            &machines,
            |b, &machines| b.iter(|| simulate_schedule(&flow, machines).expect("schedules")),
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parallel, bench_scheduling_overhead, bench_machine_sweep
}

criterion_main!(benches);
