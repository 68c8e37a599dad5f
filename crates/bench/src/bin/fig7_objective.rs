//! Figure 7: choice of optimization objective. Success rate (a), execution
//! duration (b) and compile time (c) for BV4, HS6 and Toffoli under T-SMT*
//! and R-SMT* with omega in {0, 0.5, 1}.
//!
//! The ablation sweeps R-SMT*'s readout weight omega of Equation 12 over
//! {0, 0.25, 0.5, 0.75, 1}: from CNOT reliability alone (omega = 0) to
//! readout reliability alone (omega = 1), around the omega = 0.5 that
//! R-SMT* uses everywhere else.
//!
//! One plan covers every table: the main configurations and the ablation's
//! omega grid land in the same report, and the session's compile cache
//! dedups the omegas both axes share.

use nisq_bench::{fmt3, format_table, trials_from_env};
use nisq_core::{CompilerConfig, RouteSelection};
use nisq_exp::{Session, SweepPlan};
use nisq_ir::Benchmark;

fn main() {
    let trials = trials_from_env(8192);
    let main_configs = [
        (
            "T-SMT*",
            CompilerConfig::t_smt_star(RouteSelection::OneBendPaths),
        ),
        ("R-SMT* w=1", CompilerConfig::r_smt_star(1.0)),
        ("R-SMT* w=0", CompilerConfig::r_smt_star(0.0)),
        ("R-SMT* w=0.5", CompilerConfig::r_smt_star(0.5)),
    ];
    let omegas = [0.0, 0.25, 0.5, 0.75, 1.0];

    let mut plan = SweepPlan::new()
        .benchmarks(Benchmark::representative())
        .with_configs(main_configs)
        .with_trials(trials)
        .fixed_sim_seed(7);
    for &omega in &omegas {
        plan = plan.config(format!("w={omega}"), CompilerConfig::r_smt_star(omega));
    }
    let report = Session::new().run(&plan).expect("benchmarks fit on IBMQ16");

    for (title, metric) in [
        ("Figure 7a: success rate", 0usize),
        ("Figure 7b: execution duration (timeslots)", 1),
        ("Figure 7c: compile time (ms)", 2),
    ] {
        let mut rows = Vec::new();
        for benchmark in Benchmark::representative() {
            let mut cells = vec![benchmark.name().to_string()];
            for (label, _) in &main_configs {
                let outcome = report.require(benchmark.name(), label, 0);
                cells.push(match metric {
                    0 => fmt3(outcome.success()),
                    1 => outcome.duration_slots.to_string(),
                    _ => format!("{:.1}", outcome.compile_ms),
                });
            }
            rows.push(cells);
        }
        println!("{title} ({trials} trials, day 0)\n");
        let headers: Vec<&str> = std::iter::once("Benchmark")
            .chain(main_configs.iter().map(|(n, _)| *n))
            .collect();
        println!("{}", format_table(&headers, &rows));
    }

    // Ablation: finer omega sweep on the representative benchmarks.
    println!("Ablation: omega sweep for R-SMT* (success rate)\n");
    let mut rows = Vec::new();
    for benchmark in Benchmark::representative() {
        let mut cells = vec![benchmark.name().to_string()];
        for &omega in &omegas {
            let label = format!("w={omega}");
            cells.push(fmt3(report.require(benchmark.name(), &label, 0).success()));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        format_table(
            &["Benchmark", "w=0", "w=0.25", "w=0.5", "w=0.75", "w=1"],
            &rows
        )
    );
    println!("The paper finds omega near 0.5 gives the best success rates on IBMQ16.");
}
