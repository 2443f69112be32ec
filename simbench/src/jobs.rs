//! Job execution through the simulator's public API, and the reference
//! digests each job is checked against.

use crate::digest;
use crate::workload::{Cell, Plan, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tla_core::HierarchyConfig;
use tla_sim::{
    belady, mix_reference_stream, optimal_llc, Checkpoint, EngineMode, MixRun, OracleResult,
    RunResult,
};

/// A job's result: its digest, or why it produced none.
pub type JobResult = Result<u64, String>;

/// One finished job of a timed phase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into [`Plan::jobs`].
    pub job: usize,
    /// Host seconds the job took.
    pub seconds: f64,
    pub result: JobResult,
}

/// Runs `f`, turning a panic into an error naming it.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    }
}

/// The run of `plan`'s mix `mix` under policy `policy`.
pub fn mix_run(plan: &Plan, mix: usize, policy: usize, mode: EngineMode) -> MixRun<'_> {
    MixRun::new(&plan.cfg, &plan.mixes[mix])
        .spec(&plan.policies[policy].1)
        .engine_mode(mode)
}

/// A straight-through run (warm-up and measured phase in one go).
pub fn straight(plan: &Plan, mix: usize, policy: usize, mode: EngineMode) -> RunResult {
    mix_run(plan, mix, policy, mode).run()
}

/// The warm image of mix `mix`, warmed under the inclusive baseline with
/// telemetry collectors attached (what `compare --warm-start --json`
/// resumes every policy from).
pub fn warm(plan: &Plan, mix: usize, mode: EngineMode) -> Checkpoint {
    MixRun::new(&plan.cfg, &plan.mixes[mix])
        .engine_mode(mode)
        .warm_checkpoint_instrumented(Some(plan.sizing.window))
}

/// A paper-sweep cell: a `resume_report` from the warm image, or the
/// MIN oracle.
pub fn cell(plan: &Plan, mix: usize, cell: Cell, ck: &Checkpoint, mode: EngineMode) -> JobResult {
    match cell {
        Cell::Policy(p) => mix_run(plan, mix, p, mode)
            .resume_report(ck, Some(plan.sizing.window))
            .map(|(r, _report)| digest::run(&r))
            .map_err(|e| format!("resume failed: {e}")),
        Cell::Oracle => Ok(digest::oracle(&optimal_llc(
            &plan.cfg,
            &plan.mixes[mix],
            None,
        ))),
    }
}

/// The oracle computed by the plain (unsharded) MIN replay — an
/// independent implementation of what [`optimal_llc`] computes.
pub fn oracle_reference(plan: &Plan, mix: usize) -> OracleResult {
    let apps = &plan.mixes[mix];
    let llc = HierarchyConfig::scaled(apps.len(), plan.cfg.scale() as usize)
        .llc()
        .clone();
    let (refs, warm_len) = mix_reference_stream(&plan.cfg, apps);
    belady(&refs, warm_len, llc.sets(), llc.ways())
}

/// Runs one job of llc-thrash or core-bound: a straight-through run.
pub fn run_job(plan: &Plan, job: usize, mode: EngineMode) -> JobResult {
    let j = plan.jobs[job];
    let Cell::Policy(p) = j.cell else {
        return Err("oracle cells belong to paper-sweep".into());
    };
    guarded(|| Ok(digest::run(&straight(plan, j.mix, p, mode))))
}

/// Runs every cell of paper-sweep mix `mix`: warms it once, round-trips
/// the image through its bytes, then fans the cells out over `workers`
/// threads. Each cell is timed inside its worker.
pub fn run_mix(plan: &Plan, mix: usize, workers: usize) -> Vec<Outcome> {
    let cells = plan.cells_per_mix();
    let first = mix * cells;
    let image = guarded(|| {
        let ck = warm(plan, mix, EngineMode::Batched);
        Checkpoint::from_bytes(ck.as_bytes().to_vec()).map_err(|e| format!("decode failed: {e}"))
    });
    let ck = match image {
        Ok(ck) => ck,
        Err(e) => {
            return (first..first + cells)
                .map(|job| Outcome {
                    job,
                    seconds: 0.0,
                    result: Err(format!("warm-up failed: {e}")),
                })
                .collect()
        }
    };
    tla_pool::scoped_map(workers, (first..first + cells).collect(), |job| {
        let t0 = Instant::now();
        let result = guarded(|| cell(plan, mix, plan.jobs[job].cell, &ck, EngineMode::Batched));
        Outcome {
            job,
            seconds: t0.elapsed().as_secs_f64(),
            result,
        }
    })
}

/// Reference digests for every job of `plan`, computed on the serial
/// engine (the batched engine's equivalence reference) and, for oracle
/// cells, by the unsharded MIN replay. Used for seeds without pinned
/// digests.
pub fn reference_digests(plan: &Plan) -> Vec<JobResult> {
    match plan.workload {
        Workload::PaperSweep => {
            let cells = plan.cells_per_mix();
            (0..plan.mixes.len())
                .flat_map(|mix| {
                    let ck = guarded(|| Ok(warm(plan, mix, EngineMode::Serial)));
                    (0..cells)
                        .map(|c| {
                            let job = mix * cells + c;
                            let ck = ck.as_ref().map_err(Clone::clone)?;
                            guarded(|| match plan.jobs[job].cell {
                                Cell::Oracle => Ok(digest::oracle(&oracle_reference(plan, mix))),
                                other => cell(plan, mix, other, ck, EngineMode::Serial),
                            })
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        }
        _ => (0..plan.jobs.len())
            .map(|job| run_job(plan, job, EngineMode::Serial))
            .collect(),
    }
}
