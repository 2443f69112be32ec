//! Pins the synthetic instruction streams.
//!
//! Every `SpecApp` at scales 1 and 8 and seeds 1 and 7919 is hashed over
//! its first 200k instructions. Any change to the generator's draw
//! sequence, its thresholds or its pattern walks changes a hash, so an
//! optimisation of `SyntheticTrace::next_instruction` that is meant to be
//! output-neutral is checked here directly, not only through the
//! simulator goldens. The trace's snapshot (RNG state and pattern
//! cursors) after the last instruction is folded in too, so a change
//! that draws the same values but consumes a different number of RNG
//! outputs is caught as well.

use tla_snapshot::{Snapshot, SnapshotWriter, MAGIC};
use tla_types::AccessKind;
use tla_workloads::{SpecApp, TraceSource};

const INSTRUCTIONS: usize = 200_000;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn stream_hash(app: SpecApp, scale: u64, seed: u64) -> u64 {
    let mut t = app.trace(scale, 0, seed);
    let mut h = 0xCBF2_9CE4_8422_2325;
    for _ in 0..INSTRUCTIONS {
        let i = t.next_instruction();
        fnv(&mut h, i.code_line.raw());
        match i.mem {
            None => fnv(&mut h, 0),
            Some(m) => {
                fnv(&mut h, if m.kind == AccessKind::Store { 2 } else { 1 });
                fnv(&mut h, m.addr.raw());
            }
        }
    }
    let mut w = SnapshotWriter::new();
    t.write_state(&mut w);
    // Only the body: the magic, format version and checksum say nothing
    // about the stream.
    let bytes = w.finish();
    for &b in &bytes[MAGIC.len() + 1..bytes.len() - 8] {
        fnv(&mut h, u64::from(b));
    }
    h
}

/// `(app, scale, seed, hash)`, computed before the generator used
/// integer-threshold draws.
const PINS: [(&str, u64, u64, u64); 60] = [
    ("ast", 1, 1, 0xf432a7c4f70b30cc),
    ("ast", 1, 7919, 0x71cd6a1de9cef564),
    ("ast", 8, 1, 0x62b3417ccaef7605),
    ("ast", 8, 7919, 0x3ee0be4df8cc1205),
    ("bzi", 1, 1, 0xf771ee10a5e80d72),
    ("bzi", 1, 7919, 0xd4092795be51b5b1),
    ("bzi", 8, 1, 0x18c3596df935f45b),
    ("bzi", 8, 7919, 0x74af3e5d3466c4a3),
    ("cal", 1, 1, 0xb143fbce9306edca),
    ("cal", 1, 7919, 0xa6cf6c9172b065fe),
    ("cal", 8, 1, 0x1294c0edd5c3b287),
    ("cal", 8, 7919, 0x3c5a0d0dd0f529b0),
    ("dea", 1, 1, 0x5a8a4b32b316b014),
    ("dea", 1, 7919, 0xa6f9e4bdc810fa7d),
    ("dea", 8, 1, 0x793df43836343332),
    ("dea", 8, 7919, 0xe1e0c5abf3d62a2d),
    ("gob", 1, 1, 0xd3725f18e93f5cf0),
    ("gob", 1, 7919, 0x2314dca7d24a8b4f),
    ("gob", 8, 1, 0xd490c1123fa32960),
    ("gob", 8, 7919, 0x3f59736e01300d24),
    ("h26", 1, 1, 0xf45ea133bf690bc7),
    ("h26", 1, 7919, 0x3c2f6560ca1374f2),
    ("h26", 8, 1, 0xc19b3443255bfa59),
    ("h26", 8, 7919, 0x462a4954925154e7),
    ("hmm", 1, 1, 0x5417d19bb14267f1),
    ("hmm", 1, 7919, 0xbb3f7276254d24c9),
    ("hmm", 8, 1, 0x978fb127cd30d7f0),
    ("hmm", 8, 7919, 0xb09cd4aeabe6cbef),
    ("lib", 1, 1, 0xcd744e9f6b56260b),
    ("lib", 1, 7919, 0x9c44707056009140),
    ("lib", 8, 1, 0x0c85ae1d3c877680),
    ("lib", 8, 7919, 0x53e6fa5a7f235225),
    ("mcf", 1, 1, 0xb5bdf6710b668b5d),
    ("mcf", 1, 7919, 0x79839cb8a5059da9),
    ("mcf", 8, 1, 0x62ab2e398ef9b20e),
    ("mcf", 8, 7919, 0x389d22c8b43139c7),
    ("per", 1, 1, 0xea0f6f507436707b),
    ("per", 1, 7919, 0x02251db9a688e964),
    ("per", 8, 1, 0x5445dff3a86ee410),
    ("per", 8, 7919, 0x955d73e613f63b82),
    ("pov", 1, 1, 0xc4eb5179292ab4fd),
    ("pov", 1, 7919, 0x70dbaf96a96b9af7),
    ("pov", 8, 1, 0x69cc90075f0183d7),
    ("pov", 8, 7919, 0x7400cda70305149c),
    ("sje", 1, 1, 0x4991c0cb6f364a53),
    ("sje", 1, 7919, 0x2b155bf36d29904e),
    ("sje", 8, 1, 0xddfab746f6c95b6d),
    ("sje", 8, 7919, 0x54ea3c51e35e03ab),
    ("sph", 1, 1, 0x427815fdaf869ad5),
    ("sph", 1, 7919, 0x436d68f30a10579c),
    ("sph", 8, 1, 0xc3c4bfd8de210111),
    ("sph", 8, 7919, 0x9ba167775241bd5c),
    ("wrf", 1, 1, 0x46a0c101f6fab367),
    ("wrf", 1, 7919, 0x9c5e47aa5ad6bf98),
    ("wrf", 8, 1, 0x267eef4f3c69aefd),
    ("wrf", 8, 7919, 0x759ff284cff8eaf6),
    ("xal", 1, 1, 0x8e3baa6c287f839a),
    ("xal", 1, 7919, 0x80644fe56ab67e2d),
    ("xal", 8, 1, 0x13a1be27fa70f1cf),
    ("xal", 8, 7919, 0x1902c360facf9695),
];

#[test]
fn every_app_stream_matches_its_pin() {
    let mut bad = Vec::new();
    for (name, scale, seed, want) in PINS {
        let app = SpecApp::from_short_name(name).unwrap();
        let got = stream_hash(app, scale, seed);
        if got != want {
            bad.push(format!(
                "{name} scale {scale} seed {seed}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(bad.is_empty(), "streams changed:\n{}", bad.join("\n"));
}

#[test]
fn pins_cover_every_app() {
    for app in SpecApp::ALL {
        let n = PINS.iter().filter(|p| p.0 == app.short_name()).count();
        assert_eq!(n, 4, "{app}: scales 1, 8 x seeds 1, 7919");
    }
}
