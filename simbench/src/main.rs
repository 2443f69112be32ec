//! `simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints progress lines, then the result as one JSON object on the last
//! line of standard output. Exits 2 on a usage error without a result.

use std::process::ExitCode;
use std::time::Instant;
use tla_simbench::workload::{Plan, Sizing};
use tla_simbench::{host, jobs, run, Options, USAGE};

fn main() -> ExitCode {
    let started = Instant::now();
    // Before any thread exists: the environment is process-wide.
    let cleared_env = host::clear_env_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for knob in &cleared_env {
        eprintln!("note: cleared {knob} (the benchmark pins engine, workers and kernel dispatch)");
    }
    let sizing = Sizing::standard(opts.workload);

    if opts.print_digests {
        // The table format of digests.txt.
        let plan = Plan::new(opts.workload, opts.seed, sizing);
        for (i, d) in jobs::reference_digests(&plan).into_iter().enumerate() {
            match d {
                Ok(d) => println!(
                    "{} {} {i} {} {d:016x}",
                    plan.workload.name(),
                    plan.seed,
                    plan.job_label(i)
                ),
                Err(e) => {
                    eprintln!("error: job {i} ({}): {e}", plan.job_label(i));
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let report = run(&opts, sizing, started, &cleared_env, &mut |line| {
        println!("{line}")
    });
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  ! {note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
