//! Stand-alone benchmark of the TLA simulator, built only on the
//! library's public API. See `simbench/README.md` for the workloads, the
//! metrics and how to run it.

pub mod digest;
pub mod host;
pub mod jobs;
pub mod plain;
pub mod stats;
pub mod traced;
pub mod workload;

use host::json_str;
use std::time::Instant;
use workload::{Plan, Sizing, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line result object. Values print with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value (never
    /// expected) prints as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value
                } else {
                    correct = false;
                    0.0
                };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    value,
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the reference digests of the seed instead of measuring.
    pub print_digests: bool,
}

/// The seed used when `--seed` is not given; its digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

pub const USAGE: &str = "usage: simbench --workload <llc-thrash|core-bound|paper-sweep> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--print-digests]";

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut opts = Options {
            workload: Workload::LlcThrash,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            print_digests: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--print-digests" {
                opts.print_digests = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => opts.seed = value.parse().map_err(|_| bad("bad seed"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| bad("seconds must be in (0, 600]"))?
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

/// What set-up produces before the first timed job.
pub struct Prepared {
    pub plan: Plan,
    pub pinned: Option<Vec<u64>>,
    pub fingerprint: host::Fingerprint,
}

/// Set-up: the host fingerprint (including the probe kernel's one-time
/// dispatch), the job list and the pinned digests.
pub fn prepare(opts: &Options, sizing: Sizing) -> Prepared {
    let fingerprint = host::Fingerprint::read();
    let plan = Plan::new(opts.workload, opts.seed, sizing);
    let pinned = digest::pinned(digest::PINNED, opts.workload.name(), opts.seed)
        .filter(|_| sizing == Sizing::standard(opts.workload));
    Prepared {
        plan,
        pinned,
        fingerprint,
    }
}

/// Runs the benchmark as configured, printing progress lines to `out`,
/// and returns the report. `started` is when `main` began.
pub fn run(
    opts: &Options,
    sizing: Sizing,
    started: Instant,
    cleared_env: &[String],
    out: &mut dyn FnMut(String),
) -> Report {
    let Prepared {
        plan,
        pinned,
        fingerprint,
    } = prepare(opts, sizing);
    let first_setup = started.elapsed().as_secs_f64();
    let workers = fingerprint.nproc;
    out(format!(
        "simbench {} seed={} mode={} seconds={} cores={} warmup={} measured={} mixes={} distinct_jobs={} workers={} digests={}",
        plan.workload.name(),
        plan.seed,
        if opts.trace { "traced" } else { "plain" },
        opts.seconds,
        plan.workload.cores(),
        sizing.warmup,
        sizing.quota,
        plan.mixes.len(),
        plan.jobs.len(),
        if plan.workload == Workload::PaperSweep { workers } else { 1 },
        if pinned.is_some() { "pinned" } else { "serial-engine reference" },
    ));
    out(format!("host {}", fingerprint.to_json(cleared_env)));

    if opts.trace {
        return traced::run(&plan, opts.seconds, workers, pinned.as_deref());
    }
    // Set-up is repeated before every timed unit, so that its median
    // samples the host over the whole run rather than over the few
    // milliseconds after start-up.
    let mut setups = vec![first_setup];
    let mut repeat_setup = || {
        let t0 = Instant::now();
        std::hint::black_box(prepare(opts, sizing));
        setups.push(t0.elapsed().as_secs_f64());
    };
    let phase = plain::timed_phase(&plan, opts.seconds, workers, &mut repeat_setup);
    let setup_s = stats::median(&setups).expect("at least one set-up");
    let reference = match pinned {
        Some(p) if p.len() == plan.jobs.len() => p.into_iter().map(Ok).collect(),
        Some(p) => vec![
            Err(format!(
                "{} pinned digests for {} jobs",
                p.len(),
                plan.jobs.len()
            ));
            plan.jobs.len()
        ],
        None => jobs::reference_digests(&plan),
    };
    out(format!(
        "executions={} passes={} timed_wall_s={}",
        phase.outcomes.len(),
        phase.pass_s.len(),
        phase.wall
    ));
    let pass_s: Vec<String> = phase.pass_s.iter().map(|s| format!("{s:.3}")).collect();
    out(format!("pass_s={}", pass_s.join(",")));
    plain::report(&plan, &phase, &reference, setup_s)
}
