//! The untraced run: the end-to-end metrics.
//!
//! The run makes full passes over the plan's job list: at least
//! [`MIN_PASSES`], and more while another pass (as long as the last one)
//! still fits in the time budget. Every job's time is its best over the
//! passes: on a shared host, contention only ever adds time, and the best
//! of a few spaced-out repetitions is far steadier than any one of them.

use crate::jobs::{self, JobResult, Outcome};
use crate::stats::{percentile, samples_needed};
use crate::workload::{Plan, Workload};
use crate::{Metric, Report};
use std::time::{Duration, Instant};
use tla_sim::EngineMode;

/// Passes every run makes, whatever its time budget.
pub const MIN_PASSES: usize = 3;

/// What the timed phase measured.
#[derive(Debug, Clone)]
pub struct TimedPhase {
    /// Every job execution, for the output check.
    pub outcomes: Vec<Outcome>,
    /// Per job: best host seconds over the passes.
    pub job_best: Vec<f64>,
    /// Per timed unit (a job; in paper-sweep a whole mix: warm-up,
    /// decode and the cell fan-out): best host seconds over the passes.
    pub unit_best: Vec<f64>,
    /// Host seconds of each pass, in order.
    pub pass_s: Vec<f64>,
    /// Host seconds of the whole phase.
    pub wall: f64,
    /// Peak resident set at the end of the phase, MiB.
    pub peak_rss_mb: Option<f64>,
}

/// Runs full passes over the job list while the next one is expected to
/// end within `seconds` (at least [`MIN_PASSES`]). llc-thrash and
/// core-bound run one job at a time on this thread; paper-sweep fans each
/// mix's cells out over `workers` threads. `before_unit` runs before every
/// timed unit, outside its timing.
pub fn timed_phase(
    plan: &Plan,
    seconds: f64,
    workers: usize,
    before_unit: &mut dyn FnMut(),
) -> TimedPhase {
    let budget = Duration::from_secs_f64(seconds);
    let units = match plan.workload {
        Workload::PaperSweep => plan.mixes.len(),
        _ => plan.jobs.len(),
    };
    let mut job_best = vec![f64::INFINITY; plan.jobs.len()];
    let mut unit_best = vec![f64::INFINITY; units];
    let mut outcomes = Vec::new();
    let mut pass_s = Vec::new();
    let mut last_pass = Duration::ZERO;
    let start = Instant::now();
    while pass_s.len() < MIN_PASSES || start.elapsed() + last_pass <= budget {
        let pass_start = Instant::now();
        for (unit, best) in unit_best.iter_mut().enumerate() {
            before_unit();
            let t0 = Instant::now();
            let done = match plan.workload {
                Workload::PaperSweep => jobs::run_mix(plan, unit, workers),
                _ => {
                    let result = jobs::run_job(plan, unit, EngineMode::Batched);
                    let seconds = t0.elapsed().as_secs_f64();
                    vec![Outcome {
                        job: unit,
                        seconds,
                        result,
                    }]
                }
            };
            *best = best.min(t0.elapsed().as_secs_f64());
            for o in done {
                job_best[o.job] = job_best[o.job].min(o.seconds);
                outcomes.push(o);
            }
        }
        last_pass = pass_start.elapsed();
        pass_s.push(last_pass.as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    TimedPhase {
        outcomes,
        job_best,
        unit_best,
        pass_s,
        wall,
        peak_rss_mb: crate::host::peak_rss_mb(),
    }
}

/// Checks every outcome against the reference digests and builds the
/// report. `setup_s` is measured by the caller.
pub fn report(plan: &Plan, phase: &TimedPhase, reference: &[JobResult], setup_s: f64) -> Report {
    let mut failed = 0u64;
    let mut notes = Vec::new();
    for o in &phase.outcomes {
        let ok = matches!((&o.result, &reference[o.job]), (Ok(got), Ok(want)) if got == want);
        if !ok {
            failed += 1;
            if notes.len() < 5 {
                notes.push(format!(
                    "job {} ({}): got {:?}, reference {:?}",
                    o.job,
                    plan.job_label(o.job),
                    o.result.as_ref().map(|d| format!("{d:016x}")),
                    reference[o.job].as_ref().map(|d| format!("{d:016x}")),
                ));
            }
        }
    }
    let attempted = phase.outcomes.len() as u64;
    let instructions = plan.unit_instructions() * phase.unit_best.len() as u64;
    let best_total: f64 = phase.unit_best.iter().sum();
    let mut metrics = vec![Metric::new(
        "sim_minstr_per_s",
        instructions as f64 / best_total / 1e6,
        "Minstr/s",
    )];
    match (
        percentile(&phase.job_best, 50),
        percentile(&phase.job_best, 90),
    ) {
        (Some(p50), Some(p90)) => {
            metrics.push(Metric::new("job_p50_s", p50, "s"));
            metrics.push(Metric::new("job_p90_s", p90, "s"));
        }
        _ => notes.push(format!(
            "{} distinct jobs are too few for a p90 (need {})",
            phase.job_best.len(),
            samples_needed(90)
        )),
    }
    match phase.peak_rss_mb {
        Some(mb) => metrics.push(Metric::new("peak_rss_mb", mb, "MB")),
        None => notes.push("VmHWM unavailable".into()),
    }
    metrics.push(Metric::new("setup_s", setup_s, "s"));
    Report {
        correct: failed == 0 && notes.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    }
}
