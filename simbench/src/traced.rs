//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Part A (every workload, straight-through jobs): each job first runs
//! plain through [`MixRun::run`], which gives its wall time. A recording
//! pass then replays the engine's serial loop from public calls
//! — trace generation, the cache hierarchy, the core model — and must
//! reproduce the run's per-thread cycles and statistics exactly. Each
//! layer is then timed as one span over a batch of calls on the recorded
//! inputs:
//!
//! * `workloads`: `BatchedTrace::next_instruction` for every committed
//!   instruction;
//! * `core`: `CacheHierarchy::access` (with `set_now`) for every access,
//!   in commit order;
//! * `cpu`: `CoreModel::step` on the recorded `DataSource` outcomes.
//!
//! A span covers a whole batch because a timer pair costs about as much
//! as one L1-hit access. What the job's wall time leaves over is the
//! `sim` residual: scheduling, run extraction, warm/freeze bookkeeping and
//! the cost of interleaving the layers.
//!
//! Part B (every workload, per mix): the paper-sweep phases, each timed
//! as a whole call — warm, checkpoint decode, each policy's resume with
//! and without telemetry, the MIN oracle, and the pool fan-out.

use crate::digest;
use crate::jobs::{self, guarded};
use crate::workload::{compare_policies, Cell, Plan, Workload};
use crate::{Metric, Report};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tla_core::{CacheHierarchy, HierarchyConfig, PerCoreStats, VictimCacheConfig};
use tla_cpu::CoreModel;
use tla_sim::{
    mix_reference_stream, optimal_llc, Checkpoint, EngineMode, MixRun, PolicySpec, RunResult,
    ThreadResult,
};
use tla_types::{AccessKind, CoreId, DataSource, LineAddr};
use tla_workloads::{BatchedTrace, SpecApp, TraceSource};

/// One committed instruction as the hierarchy saw it.
#[derive(Debug, Clone, Copy)]
struct InstrRec {
    core: u8,
    /// The code line, when the instruction moved to a new one.
    ifetch: Option<LineAddr>,
    mem: Option<(AccessKind, LineAddr)>,
}

/// What one core's model consumed per instruction.
type CpuInput = (Option<DataSource>, Option<(AccessKind, DataSource)>);

/// Everything the recording pass captured.
struct Recording {
    result: RunResult,
    /// Commit order.
    instrs: Vec<InstrRec>,
    /// Per core, in that core's program order.
    cpu: Vec<Vec<CpuInput>>,
    /// Hash of every generated instruction, per core.
    gen_hash: Vec<u64>,
    /// Hash of every access outcome, in commit order.
    access_hash: u64,
    accesses: u64,
    /// Per core: (cycles, retired) at the end.
    core_end: Vec<(u64, u64)>,
    /// Whole-run hierarchy counters of the replay.
    counts: Counts,
}

/// Inclusion-layer event counts over a whole replay (warm-up included).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    back_inv: u64,
    qbs_queries: u64,
    qbs_rejections: u64,
    tlh_hints: u64,
    eci_inv: u64,
    eci_rescues: u64,
    snoops: u64,
    prefetches: u64,
    llc_miss: u64,
}

impl Counts {
    fn of(hier: &CacheHierarchy) -> Counts {
        let g = hier.global_stats();
        Counts {
            back_inv: g.back_invalidates,
            qbs_queries: g.qbs_queries,
            qbs_rejections: g.qbs_rejections,
            tlh_hints: g.tlh_hints,
            eci_inv: g.eci_invalidates,
            eci_rescues: g.eci_rescues,
            snoops: g.snoop_probes,
            prefetches: g.prefetches,
            llc_miss: hier.all_per_core_stats().iter().map(|s| s.llc_misses).sum(),
        }
    }

    fn add(&mut self, o: &Counts) {
        self.back_inv += o.back_inv;
        self.qbs_queries += o.qbs_queries;
        self.qbs_rejections += o.qbs_rejections;
        self.tlh_hints += o.tlh_hints;
        self.eci_inv += o.eci_inv;
        self.eci_rescues += o.eci_rescues;
        self.snoops += o.snoops;
        self.prefetches += o.prefetches;
        self.llc_miss += o.llc_miss;
    }
}

/// The hierarchy [`MixRun`] builds for `spec` (no I/O, no LLC override).
fn hierarchy_config(plan: &Plan, cores: usize, spec: &PolicySpec) -> HierarchyConfig {
    let cfg = &plan.cfg;
    let mut h = HierarchyConfig::scaled(cores, cfg.scale() as usize)
        .inclusion_policy(spec.inclusion)
        .tla(spec.tla)
        .seed(cfg.seed_value());
    if let Some(entries) = spec.victim_cache {
        h = h.victim_cache(VictimCacheConfig { entries });
    }
    if let Some(policy) = spec.llc_replacement {
        h = h.llc_policy(policy);
    }
    if !cfg.prefetch_enabled() {
        h = h.prefetcher(None);
    }
    h
}

fn traces(plan: &Plan, apps: &[SpecApp]) -> Vec<BatchedTrace<impl TraceSource + Clone>> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            BatchedTrace::new(app.trace(plan.cfg.scale(), i as u64, plan.cfg.seed_value()))
        })
        .collect()
}

fn source_code(s: DataSource) -> u64 {
    match s {
        DataSource::L1 => 1,
        DataSource::L2 => 2,
        DataSource::Llc => 3,
        DataSource::Memory => 4,
    }
}

fn mix_hash(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The engine's serial loop, rebuilt from public calls: pick the core
/// with the smallest `(clock, index)`, commit its next instruction, mark
/// warm-up and freeze points exactly as the engine does.
fn record(plan: &Plan, apps: &[SpecApp], spec: &PolicySpec) -> Recording {
    let cfg = &plan.cfg;
    let n = apps.len();
    let mut hier = CacheHierarchy::new(&hierarchy_config(plan, n, spec));
    let mut cores: Vec<CoreModel> = (0..n).map(|_| CoreModel::new(*cfg.core_config())).collect();
    let mut traces = traces(plan, apps);
    let warmup = cfg.warmup_quota();
    let quota = warmup + cfg.instruction_quota();
    let mut warm_mark: Vec<Option<(u64, PerCoreStats)>> =
        vec![(warmup == 0).then(|| (0, PerCoreStats::default())); n];
    let mut frozen: Vec<Option<ThreadResult>> = vec![None; n];
    let mut remaining = n;
    let mut last_code: Vec<Option<LineAddr>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|i| Reverse((cores[i].now(), i))).collect();
    let mut rec = Recording {
        result: RunResult {
            threads: Vec::new(),
            global: Default::default(),
            io: None,
            spec_name: spec.name.clone(),
        },
        instrs: Vec::new(),
        cpu: vec![Vec::new(); n],
        gen_hash: vec![0; n],
        access_hash: 0,
        accesses: 0,
        core_end: Vec::new(),
        counts: Counts::default(),
    };
    let mut total = 0u64;
    while remaining > 0 {
        let Reverse((_, i)) = heap.pop().expect("every core has a heap entry");
        let core = CoreId::new(i);
        let instr = traces[i].next_instruction();
        rec.gen_hash[i] = mix_hash(rec.gen_hash[i], instr.code_line.raw());
        if let Some(m) = instr.mem {
            rec.gen_hash[i] = mix_hash(rec.gen_hash[i], m.addr.raw());
        }
        total += 1;
        hier.set_now(total);
        let ifetch_line = (last_code[i] != Some(instr.code_line)).then_some(instr.code_line);
        let ifetch = ifetch_line.map(|line| {
            last_code[i] = Some(line);
            hier.access(core, line, AccessKind::IFetch)
        });
        let mem = instr
            .mem
            .map(|m| (m.kind, hier.access(core, m.addr, m.kind)));
        for src in ifetch.iter().chain(mem.iter().map(|(_, s)| s)) {
            rec.access_hash = mix_hash(rec.access_hash, source_code(*src));
            rec.accesses += 1;
        }
        cores[i].step(ifetch, mem);
        rec.instrs.push(InstrRec {
            core: u8::try_from(i).expect("at most 64 cores"),
            ifetch: ifetch_line,
            mem: instr.mem.map(|m| (m.kind, m.addr)),
        });
        rec.cpu[i].push((ifetch, mem));

        if warm_mark[i].is_none() && cores[i].retired() >= warmup {
            warm_mark[i] = Some((cores[i].cycles(), *hier.per_core_stats(core)));
        }
        if frozen[i].is_none() && cores[i].retired() >= quota {
            let (warm_cycles, warm_stats) = warm_mark[i].take().expect("warm mark precedes freeze");
            frozen[i] = Some(ThreadResult {
                app: apps[i],
                instructions: cores[i].retired() - warmup,
                cycles: cores[i].cycles() - warm_cycles,
                stats: hier.per_core_stats(core).since(&warm_stats),
            });
            remaining -= 1;
        }
        heap.push(Reverse((cores[i].now(), i)));
    }
    rec.result.threads = frozen.into_iter().map(|t| t.expect("all frozen")).collect();
    rec.result.global = *hier.global_stats();
    rec.core_end = cores.iter().map(|c| (c.cycles(), c.retired())).collect();
    rec.counts = Counts::of(&hier);
    rec
}

/// Host seconds of one job's three layer batches.
struct Spans {
    gen: f64,
    core: f64,
    cpu: f64,
}

/// Times each layer as one span over a batch of calls on the recorded
/// inputs, and checks that every batch reproduced what the recording saw.
fn replay_spans(
    plan: &Plan,
    apps: &[SpecApp],
    spec: &PolicySpec,
    rec: &Recording,
) -> Result<Spans, String> {
    // workloads: regenerate every committed instruction, core by core.
    let t0 = Instant::now();
    let mut traces = traces(plan, apps);
    let mut gen_hash = vec![0u64; apps.len()];
    for (i, trace) in traces.iter_mut().enumerate() {
        let mut h = 0u64;
        for _ in 0..rec.cpu[i].len() {
            let instr = trace.next_instruction();
            h = mix_hash(h, instr.code_line.raw());
            if let Some(m) = instr.mem {
                h = mix_hash(h, m.addr.raw());
            }
        }
        gen_hash[i] = h;
    }
    let gen = t0.elapsed().as_secs_f64();
    if black_box(gen_hash) != rec.gen_hash {
        return Err("trace batch generated a different stream".into());
    }

    // core: every access in commit order.
    let t0 = Instant::now();
    let mut hier = CacheHierarchy::new(&hierarchy_config(plan, apps.len(), spec));
    let mut h = 0u64;
    for (n, r) in rec.instrs.iter().enumerate() {
        let core = CoreId::new(usize::from(r.core));
        hier.set_now(n as u64 + 1);
        if let Some(line) = r.ifetch {
            h = mix_hash(h, source_code(hier.access(core, line, AccessKind::IFetch)));
        }
        if let Some((kind, line)) = r.mem {
            h = mix_hash(h, source_code(hier.access(core, line, kind)));
        }
    }
    let core = t0.elapsed().as_secs_f64();
    if black_box(h) != rec.access_hash {
        return Err("hierarchy batch returned different outcomes".into());
    }

    // cpu: every core model on its recorded outcomes.
    let t0 = Instant::now();
    let mut ends = Vec::with_capacity(apps.len());
    for inputs in &rec.cpu {
        let mut model = CoreModel::new(*plan.cfg.core_config());
        for &(ifetch, mem) in inputs {
            model.step(ifetch, mem);
        }
        ends.push((model.cycles(), model.retired()));
    }
    let cpu = t0.elapsed().as_secs_f64();
    if black_box(ends) != rec.core_end {
        return Err("core-model batch ended at different cycles".into());
    }
    Ok(Spans { gen, core, cpu })
}

/// Part A totals.
#[derive(Default)]
struct LayerTotals {
    jobs: u64,
    wall: f64,
    record: f64,
    gen: f64,
    core: f64,
    cpu: f64,
    instrs: u64,
    accesses: u64,
    counts: Counts,
}

/// Part B totals.
struct SweepTotals {
    mixes: u64,
    warm: f64,
    bytes: u64,
    decode: f64,
    /// `resume_report` seconds per compare policy.
    cell: Vec<f64>,
    resume_plain: f64,
    oracle: f64,
    oracle_refs: u64,
    fanout_wall: f64,
}

/// Runs the traced measurement for about `seconds`: part A until 60 % of
/// the budget is spent (at least two jobs), then part B until the budget
/// is spent (at least one mix).
pub fn run(plan: &Plan, seconds: f64, workers: usize, pinned: Option<&[u64]>) -> Report {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut notes: Vec<String> = Vec::new();

    // Part A over the plan's straight-through (policy) jobs.
    let policy_jobs: Vec<(usize, usize, usize)> = (plan.jobs.iter().enumerate())
        .filter_map(|(job, j)| match j.cell {
            Cell::Policy(p) => Some((job, j.mix, p)),
            Cell::Oracle => None,
        })
        .collect();
    let mut a = LayerTotals::default();
    let mut next = 0usize;
    while next < 2 || start.elapsed() < budget.mul_f64(0.6) {
        let (job, mix, p) = policy_jobs[next % policy_jobs.len()];
        next += 1;
        attempted += 1;
        let apps = &plan.mixes[mix];
        let spec = &plan.policies[p].1;
        let outcome = guarded(|| {
            let t0 = Instant::now();
            let run = jobs::straight(plan, mix, p, EngineMode::Batched);
            let wall = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let rec = record(plan, apps, spec);
            let record_s = t0.elapsed().as_secs_f64();
            let got = digest::run(&run);
            if digest::run(&rec.result) != got {
                return Err("recording pass differs from MixRun::run".into());
            }
            // Paper-sweep pins resumed cells, not straight-through runs.
            if let (Some(pins), false) = (pinned, plan.workload == Workload::PaperSweep) {
                if pins[job] != got {
                    return Err(format!("digest {got:016x} != pinned {:016x}", pins[job]));
                }
            }
            let spans = replay_spans(plan, apps, spec, &rec)?;
            Ok((wall, record_s, rec, spans))
        });
        match outcome {
            Ok((wall, record_s, rec, spans)) => {
                a.jobs += 1;
                a.wall += wall;
                a.record += record_s;
                a.gen += spans.gen;
                a.core += spans.core;
                a.cpu += spans.cpu;
                a.instrs += rec.instrs.len() as u64;
                a.accesses += rec.accesses;
                a.counts.add(&rec.counts);
            }
            Err(e) => {
                failed += 1;
                note(
                    &mut notes,
                    format!("traced job {}: {e}", plan.job_label(job)),
                );
            }
        }
    }

    // Part B over the plan's mixes, under all seven compare policies.
    let policies = compare_policies();
    let mut b = SweepTotals {
        mixes: 0,
        warm: 0.0,
        bytes: 0,
        decode: 0.0,
        cell: vec![0.0; policies.len()],
        resume_plain: 0.0,
        oracle: 0.0,
        oracle_refs: 0,
        fanout_wall: 0.0,
    };
    let mut mix = 0usize;
    while mix == 0 || start.elapsed() < budget {
        let m = mix % plan.mixes.len();
        mix += 1;
        let cells = policies.len() + 1;
        attempted += cells as u64;
        // Paper-sweep's own cells can be checked against its pins.
        let pins = pinned
            .filter(|_| plan.workload == Workload::PaperSweep)
            .map(|p| &p[m * cells..(m + 1) * cells]);
        match guarded(|| sweep_mix(plan, m, &policies, workers, pins)) {
            Ok(s) => {
                b.mixes += 1;
                b.warm += s.warm;
                b.bytes += s.bytes;
                b.decode += s.decode;
                for (acc, c) in b.cell.iter_mut().zip(&s.cell) {
                    *acc += c;
                }
                b.resume_plain += s.resume_plain;
                b.oracle += s.oracle;
                b.oracle_refs += s.oracle_refs;
                b.fanout_wall += s.fanout_wall;
            }
            Err(e) => {
                failed += cells as u64;
                note(&mut notes, format!("sweep of mix {m}: {e}"));
            }
        }
    }

    let metrics = layer_metrics(&a, &b, &policies);
    let correct = failed == 0 && a.jobs > 0 && b.mixes > 0;
    Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Keeps the first few failure notes.
fn note(notes: &mut Vec<String>, msg: String) {
    if notes.len() < 5 {
        notes.push(msg);
    }
}

/// The part B measurements of one mix, each a whole call.
fn sweep_mix(
    plan: &Plan,
    mix: usize,
    policies: &[(&'static str, PolicySpec)],
    workers: usize,
    pins: Option<&[u64]>,
) -> Result<SweepTotals, String> {
    let cfg = &plan.cfg;
    let apps = &plan.mixes[mix];
    let window = Some(plan.sizing.window);
    let run = |spec: &PolicySpec| {
        MixRun::new(cfg, apps)
            .spec(spec)
            .engine_mode(EngineMode::Batched)
    };

    let t0 = Instant::now();
    let image = jobs::warm(plan, mix, EngineMode::Batched);
    let warm = t0.elapsed().as_secs_f64();
    let bytes = image.as_bytes().to_vec();
    let len = bytes.len() as u64;
    let t0 = Instant::now();
    let ck = Checkpoint::from_bytes(bytes).map_err(|e| format!("decode failed: {e}"))?;
    let decode = t0.elapsed().as_secs_f64();

    // Each policy serially: with telemetry (what the sweep runs), then
    // plain, for the telemetry overhead.
    let mut cell = Vec::with_capacity(policies.len());
    let mut resume_plain = 0.0;
    let mut digests = Vec::with_capacity(policies.len() + 1);
    for (label, spec) in policies {
        let t0 = Instant::now();
        let (with_report, _) = run(spec)
            .resume_report(&ck, window)
            .map_err(|e| format!("resume_report failed: {e}"))?;
        cell.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let plain = run(spec)
            .resume(&ck)
            .map_err(|e| format!("resume failed: {e}"))?;
        resume_plain += t0.elapsed().as_secs_f64();
        let d = digest::run(&with_report);
        if digest::run(&plain) != d {
            return Err(format!("{label}: telemetry changed the result"));
        }
        digests.push(d);
    }
    let t0 = Instant::now();
    let opt = optimal_llc(cfg, apps, None);
    let oracle = t0.elapsed().as_secs_f64();
    digests.push(digest::oracle(&opt));
    let oracle_refs = mix_reference_stream(cfg, apps).0.len() as u64;

    // The same cells fanned out over the pool.
    let t0 = Instant::now();
    let cells: Vec<Option<&PolicySpec>> = policies
        .iter()
        .map(|(_, s)| Some(s))
        .chain([None])
        .collect();
    let fanned = tla_pool::scoped_map(workers, cells, |cell| match cell {
        Some(spec) => run(spec)
            .resume_report(&ck, window)
            .map(|(r, _)| digest::run(&r))
            .map_err(|e| format!("resume_report failed: {e}")),
        None => Ok(digest::oracle(&optimal_llc(cfg, apps, None))),
    });
    let fanout_wall = t0.elapsed().as_secs_f64();
    for (c, got) in fanned.into_iter().enumerate() {
        if got? != digests[c] {
            return Err(format!(
                "cell {c}: fan-out result differs from the serial one"
            ));
        }
    }
    if let Some(pins) = pins {
        if pins != digests.as_slice() {
            return Err("cell digests differ from the pinned ones".into());
        }
    }
    Ok(SweepTotals {
        mixes: 1,
        warm,
        bytes: len,
        decode,
        cell,
        resume_plain,
        oracle,
        oracle_refs,
        fanout_wall,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    a: &LayerTotals,
    b: &SweepTotals,
    policies: &[(&'static str, PolicySpec)],
) -> Vec<Metric> {
    let ns = 1e9;
    let kacc = a.accesses as f64 / 1000.0;
    let per_kacc = |n: u64| ratio(n as f64, kacc);
    let instrs = a.instrs as f64;
    let residual = a.wall - a.gen - a.core - a.cpu;
    let mixes = b.mixes as f64;
    let c = &a.counts;
    let mut m = vec![
        Metric::new(
            "core.ns_per_access",
            ratio(a.core * ns, a.accesses as f64),
            "ns",
        ),
        Metric::new("core.share", ratio(a.core, a.wall), "frac"),
        Metric::new("core.back_inv_per_kacc", per_kacc(c.back_inv), "1/kacc"),
        Metric::new(
            "core.qbs_queries_per_kacc",
            per_kacc(c.qbs_queries),
            "1/kacc",
        ),
        Metric::new("core.tlh_hints_per_kacc", per_kacc(c.tlh_hints), "1/kacc"),
        Metric::new("core.eci_inv_per_kacc", per_kacc(c.eci_inv), "1/kacc"),
        Metric::new("core.snoops_per_kacc", per_kacc(c.snoops), "1/kacc"),
        Metric::new("core.prefetches_per_kacc", per_kacc(c.prefetches), "1/kacc"),
        Metric::new("core.llc_miss_per_kacc", per_kacc(c.llc_miss), "1/kacc"),
        Metric::new(
            "core.qbs_reject_ratio",
            ratio(c.qbs_rejections as f64, c.qbs_queries as f64),
            "frac",
        ),
        Metric::new(
            "core.eci_rescue_ratio",
            ratio(c.eci_rescues as f64, c.eci_inv as f64),
            "frac",
        ),
        Metric::new(
            "workloads.gen_ns_per_instr",
            ratio(a.gen * ns, instrs),
            "ns",
        ),
        Metric::new("workloads.share", ratio(a.gen, a.wall), "frac"),
        Metric::new("cpu.ns_per_instr", ratio(a.cpu * ns, instrs), "ns"),
        Metric::new("cpu.share", ratio(a.cpu, a.wall), "frac"),
        Metric::new(
            "sim.residual_ns_per_instr",
            ratio(residual * ns, instrs),
            "ns",
        ),
        Metric::new("sim.residual_share", ratio(residual, a.wall), "frac"),
        Metric::new("sim.warm_s", ratio(b.warm, mixes), "s"),
    ];
    for ((label, _), secs) in policies.iter().zip(&b.cell) {
        m.push(Metric::new(
            &format!("sim.cell_s.{label}"),
            ratio(*secs, mixes),
            "s",
        ));
    }
    let cells_serial: f64 = b.cell.iter().sum::<f64>() + b.oracle;
    let reports: f64 = b.cell.iter().sum();
    m.extend([
        Metric::new("sim.oracle_s", ratio(b.oracle, mixes), "s"),
        Metric::new(
            "sim.oracle_ns_per_ref",
            ratio(b.oracle * ns, b.oracle_refs as f64),
            "ns",
        ),
        Metric::new("snapshot.bytes", ratio(b.bytes as f64, mixes), "bytes"),
        Metric::new("snapshot.decode_ms", ratio(b.decode * 1e3, mixes), "ms"),
        Metric::new(
            "telemetry.overhead_frac",
            ratio(reports, b.resume_plain) - 1.0,
            "frac",
        ),
        Metric::new("pool.speedup", ratio(cells_serial, b.fanout_wall), "x"),
        Metric::new("trace.overhead_frac", ratio(a.record, a.wall) - 1.0, "frac"),
    ]);
    m
}
