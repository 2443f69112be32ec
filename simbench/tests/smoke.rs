//! Tiny-quota runs of every workload in plain and traced mode, digest
//! stability, and agreement between the reported metric names and
//! `BENCHMARK.json`.

use tla_sim::EngineMode;
use tla_simbench::workload::{Plan, Sizing, Workload};
use tla_simbench::{digest, jobs, plain, traced, Metric};

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section is a list");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = s.trim_start_matches([' ', ':']).trim_start();
            let s = s.strip_prefix('"').expect("quoted name");
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn plain_smoke_run_of_every_workload() {
    let e2e = declared("end_to_end");
    for w in Workload::ALL {
        let plan = Plan::new(w, 3, Sizing::tiny(w));
        let phase = plain::timed_phase(&plan, 0.001, 2, &mut || {});
        assert_eq!(phase.pass_s.len(), plain::MIN_PASSES, "{}", w.name());
        let reference = jobs::reference_digests(&plan);
        let report = plain::report(&plan, &phase, &reference, 0.001);
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.attempted as usize,
            plan.jobs.len() * plain::MIN_PASSES
        );
        assert_eq!(names(&report.metrics), e2e, "{}", w.name());
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_smoke_run_of_every_workload() {
    let layers = declared("per_layer");
    for w in Workload::ALL {
        let plan = Plan::new(w, 3, Sizing::tiny(w));
        let report = traced::run(&plan, 0.001, 2, None);
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_eq!(names(&report.metrics), layers, "{}", w.name());
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric reported")
        };
        // The four parts of a job's wall time add up to it.
        let shares: f64 = [
            "core.share",
            "workloads.share",
            "cpu.share",
            "sim.residual_share",
        ]
        .iter()
        .map(|n| value(n))
        .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            w.name()
        );
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_run_checks_pinned_digests() {
    // Pins that cannot match must fail the traced run.
    let w = Workload::CoreBound;
    let plan = Plan::new(w, 3, Sizing::tiny(w));
    let wrong = vec![0u64; plan.jobs.len()];
    let report = traced::run(&plan, 0.001, 1, Some(&wrong));
    assert!(!report.correct);
    assert!(report.failed > 0);
}

#[test]
fn digests_are_stable_across_repeats_and_engines() {
    for w in [Workload::LlcThrash, Workload::CoreBound] {
        let plan = Plan::new(w, 5, Sizing::tiny(w));
        let a = jobs::run_job(&plan, 0, EngineMode::Batched).expect("job runs");
        let b = jobs::run_job(&plan, 0, EngineMode::Batched).expect("job runs");
        let serial = digest::run(&jobs::straight(&plan, 0, 0, EngineMode::Serial));
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(a, serial, "{}", w.name());
        assert_ne!(
            a,
            jobs::run_job(&plan, 1, EngineMode::Batched).expect("job runs"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_wrong_reference_digest_counts_as_failed() {
    let w = Workload::CoreBound;
    let plan = Plan::new(w, 3, Sizing::tiny(w));
    let phase = plain::timed_phase(&plan, 0.001, 1, &mut || {});
    let mut reference = jobs::reference_digests(&plan);
    reference[0] = Ok(0);
    reference[1] = Err("resume failed".into());
    let report = plain::report(&plan, &phase, &reference, 0.001);
    assert!(!report.correct);
    assert_eq!(report.failed as usize, 2 * phase.pass_s.len());
}

#[test]
fn pinned_table_covers_both_seeds_of_every_workload() {
    for w in Workload::ALL {
        let jobs = Plan::new(w, 1, Sizing::standard(w)).jobs.len();
        for seed in [tla_simbench::DEFAULT_SEED, 7919] {
            let pins = digest::pinned(digest::PINNED, w.name(), seed).expect("seed pinned");
            assert_eq!(pins.len(), jobs, "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn pinned_digests_match_the_simulator() {
    // One straight-through job per workload at full size, against the
    // committed table (paper-sweep pins resumed cells; its first job's
    // oracle cell is checked instead, which needs no warm image).
    for w in [Workload::LlcThrash, Workload::CoreBound] {
        let plan = Plan::new(w, 1, Sizing::standard(w));
        let pins = digest::pinned(digest::PINNED, w.name(), 1).expect("seed pinned");
        assert_eq!(
            jobs::run_job(&plan, 0, EngineMode::Batched),
            Ok(pins[0]),
            "{}",
            w.name()
        );
    }
    let w = Workload::PaperSweep;
    let plan = Plan::new(w, 1, Sizing::standard(w));
    let pins = digest::pinned(digest::PINNED, w.name(), 1).expect("seed pinned");
    let oracle = plan.cells_per_mix() - 1;
    assert_eq!(
        digest::oracle(&jobs::oracle_reference(&plan, 0)),
        pins[oracle]
    );
}
