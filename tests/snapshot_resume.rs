//! Resume determinism: for every bench-matrix policy, a run resumed from
//! a warm checkpoint must be byte-identical (in report JSON) to the same
//! run executed straight through, and corrupt or mismatched checkpoints
//! must fail with descriptive errors — never silently diverge.

use tla::sim::{Checkpoint, EngineMode, MixRun, PolicySpec, SimConfig, SnapshotError};
use tla::workloads::SpecApp;

fn cfg() -> SimConfig {
    SimConfig::scaled_down()
        .warmup(100_000)
        .instructions(50_000)
        .seed(42)
}

const MIX: [SpecApp; 2] = [SpecApp::Libquantum, SpecApp::Sjeng];
const WINDOW: u64 = 25_000;

/// The four bench-matrix policies.
fn matrix_policies() -> [PolicySpec; 4] {
    [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
    ]
}

#[test]
fn resumed_reports_match_straight_runs_for_every_matrix_policy() {
    for spec in matrix_policies() {
        let (_, straight) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .run_report(Some(WINDOW));
        let checkpoint = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .warm_checkpoint_instrumented(Some(WINDOW));
        let (_, resumed) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .resume_report(&checkpoint, Some(WINDOW))
            .unwrap();
        assert_eq!(
            resumed.to_json_string(),
            straight.to_json_string(),
            "{}: resumed report differs from straight-through report",
            spec.name
        );
    }
}

/// 128- and 256-entry fully-associative victim caches — wider than the
/// 64-way set limit, scanned by the dispatched probe kernel in 64-entry
/// chunks — construct, run, and snapshot-resume byte-identically.
#[test]
fn wide_victim_cache_resumes_byte_identically() {
    for entries in [128, 256] {
        let spec = PolicySpec::victim_cache(entries);
        let (_, straight) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .run_report(Some(WINDOW));
        let checkpoint = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .warm_checkpoint_instrumented(Some(WINDOW));
        // The image itself round-trips bytes through the serializer.
        let reloaded = Checkpoint::from_bytes(checkpoint.as_bytes().to_vec()).unwrap();
        assert_eq!(reloaded.as_bytes(), checkpoint.as_bytes());
        let (_, resumed) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .resume_report(&checkpoint, Some(WINDOW))
            .unwrap();
        assert_eq!(
            resumed.to_json_string(),
            straight.to_json_string(),
            "VC-{entries}: resumed report differs from straight-through report"
        );
    }
}

#[test]
fn checkpoint_survives_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("tla-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.tlas");

    let checkpoint = MixRun::new(&cfg(), &MIX).warm_checkpoint();
    checkpoint.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.as_bytes(), checkpoint.as_bytes());

    // A second save of the loaded checkpoint is byte-identical on disk.
    let path2 = dir.join("warm2.tlas");
    loaded.save(&path2).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap()
    );

    let direct = MixRun::new(&cfg(), &MIX)
        .spec(&PolicySpec::eci())
        .resume(&checkpoint)
        .unwrap();
    let via_disk = MixRun::new(&cfg(), &MIX)
        .spec(&PolicySpec::eci())
        .resume(&loaded)
        .unwrap();
    assert_eq!(direct.global, via_disk.global);
    for (a, b) in direct.threads.iter().zip(&via_disk.threads) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cycles, b.cycles);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_fail_loudly() {
    let bytes = MixRun::new(&cfg(), &MIX)
        .warm_checkpoint()
        .as_bytes()
        .to_vec();

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        Checkpoint::from_bytes(bad_magic).unwrap_err(),
        SnapshotError::BadMagic
    ));

    // Unsupported version byte.
    let mut bad_version = bytes.clone();
    bad_version[4] = 0xFF;
    match Checkpoint::from_bytes(bad_version).unwrap_err() {
        SnapshotError::BadVersion { found, .. } => assert_eq!(found, 0xFF),
        other => panic!("expected BadVersion, got {other}"),
    }

    // Any flipped payload byte trips the checksum.
    for frac in [3, 2] {
        let mut corrupt = bytes.clone();
        let at = corrupt.len() / frac;
        corrupt[at] ^= 0x10;
        assert!(matches!(
            Checkpoint::from_bytes(corrupt).unwrap_err(),
            SnapshotError::BadChecksum
        ));
    }

    // Truncation anywhere fails (short header is Truncated; a longer cut
    // loses the checksum alignment).
    for cut in [2, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Checkpoint::from_bytes(bytes[..cut].to_vec()).is_err(),
            "cut at {cut} must be rejected"
        );
    }
    assert!(matches!(
        Checkpoint::from_bytes(bytes[..8].to_vec()).unwrap_err(),
        SnapshotError::Truncated
    ));

    // Errors render descriptively.
    let msg = SnapshotError::BadChecksum.to_string();
    assert!(msg.contains("checksum"), "{msg}");
}

#[test]
fn resume_pins_every_axis_but_the_policy() {
    let checkpoint = MixRun::new(&cfg(), &MIX).warm_checkpoint();

    // The policy axis is free: every matrix policy resumes fine.
    for spec in matrix_policies() {
        assert!(MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .resume(&checkpoint)
            .is_ok());
    }

    // Everything else is pinned with a Mismatch naming the axis.
    let expect = |err: SnapshotError, needle: &str| match err {
        SnapshotError::Mismatch(msg) => {
            assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
        }
        other => panic!("expected Mismatch for {needle}, got {other}"),
    };
    let other_mix = [SpecApp::Mcf, SpecApp::Sjeng];
    expect(
        MixRun::new(&cfg(), &other_mix)
            .resume(&checkpoint)
            .unwrap_err(),
        "mix",
    );
    expect(
        MixRun::new(&cfg().seed(7), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "seed",
    );
    expect(
        MixRun::new(&cfg().warmup(1), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "warm-up",
    );
    expect(
        MixRun::new(&cfg().instructions(1), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "instruction quota",
    );
    expect(
        MixRun::new(&cfg().prefetch(false), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "prefetch",
    );
}

/// FNV-1a over the debug rendering of every per-thread and global
/// counter: a compact pin of a whole [`RunResult`](tla::sim::RunResult).
fn result_digest(r: &tla::sim::RunResult) -> u64 {
    let text = format!(
        "{:?}{:?}",
        r.threads
            .iter()
            .map(|t| (t.app, t.instructions, t.cycles, t.stats))
            .collect::<Vec<_>>(),
        r.global
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the warm-up boundary of a mix whose fast thread retires its whole
/// quota (and freezes) before the slow thread has even warmed. Serial and
/// batched equality cannot catch a miscounted warm check, because both
/// loops share it; these constants can.
#[test]
fn warm_boundary_with_a_thread_frozen_before_warm_is_pinned() {
    let cfg = SimConfig::scaled_down()
        .warmup(100_000)
        .instructions(10_000);
    let mix = [SpecApp::Sjeng, SpecApp::Mcf];
    for mode in [EngineMode::Serial, EngineMode::Batched] {
        let info = MixRun::new(&cfg, &mix)
            .engine_mode(mode)
            .warm_checkpoint()
            .info()
            .unwrap();
        // mcf warms last, at exactly 100k retired: sjeng's share of the
        // total must already exceed its 110k quota, i.e. it froze first.
        assert!(info.total_instr >= 210_000, "sjeng did not freeze first");
        assert_eq!(info.total_instr, 385_489, "{} engine", mode.label());
    }
    let warm = MixRun::new(&cfg, &mix).warm_checkpoint();
    for (spec, digest) in [
        (PolicySpec::qbs(), 6_725_789_952_290_405_479),
        (PolicySpec::eci(), 13_452_067_018_624_155_427),
    ] {
        let r = MixRun::new(&cfg, &mix).spec(&spec).resume(&warm).unwrap();
        assert_eq!(result_digest(&r), digest, "{}", spec.name);
    }
}
