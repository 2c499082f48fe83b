//! No input parser panics on mutated input.
//!
//! Seeded mutations (bit flips, truncations, insertions and splices) of
//! committed artifacts go through every parser a user can feed: a `.rec`
//! recording and the state decoder behind replay, a chaos telemetry JSONL
//! stream, a causal trace, `RecScenario` lines and command-line flag
//! vectors. Every case must come back `Ok` or `Err`; a panic fails the
//! test, naming the artifact, the case number and the mutation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cellflow_telemetry::{validate_stream, Json, Recording, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::args::Flags;
use crate::record::RecScenario;

const CHAOS_REC: &[u8] = include_bytes!("../../../tests/golden/chaos-s5.rec");
const CASCADE_REC: &[u8] = include_bytes!("../../../tests/golden/cascade-s7.rec");
const TELEMETRY: &[u8] = include_bytes!("../../../tests/golden/chaos-telemetry.jsonl");
const TRACE: &[u8] = include_bytes!("../../../tests/corpus/sim-trace.jsonl");

/// Cases per artifact.
const CASES: u64 = 600;

/// Command lines as CI and the documentation give them.
const FLAG_LINES: [&str; 5] = [
    "--n 12 --rounds 200 --active 80 --drop 0 --delay 0 --seed 42",
    "--cascade --n 5 --rounds 160 --seed 7 --restart 12 --budget 1",
    "--n 5 --partition split@col=2 --rounds 100 --start 10 --heal 70 --seed 7",
    "--n 8 --rounds 2000 --pf 0.05 --pr 0.1 --seed 1 --heatmap",
    "--n 5 --seed 42 --corruptions 4 --telemetry --trace-out t.jsonl",
];

/// Bytes an insertion draws from besides random ones: the structural
/// characters of the formats under test.
const DICTIONARY: &[u8] = b"{}[]\":,=-_ 0123456789.eE\n\\";

/// One seeded mutation of `input`: bit flips, a truncation, an insertion,
/// or a splice of a prefix of `input` with a suffix of `other`.
fn mutate(rng: &mut SmallRng, input: &[u8], other: &[u8]) -> (Vec<u8>, &'static str) {
    let mut out = input.to_vec();
    let op = match rng.gen_range(0..4u8) {
        0 => {
            for _ in 0..rng.gen_range(1..=4u8) {
                if !out.is_empty() {
                    let at = rng.gen_range(0..out.len());
                    out[at] ^= 1 << rng.gen_range(0..8u8);
                }
            }
            "bit flip"
        }
        1 => {
            out.truncate(rng.gen_range(0..=out.len()));
            "truncation"
        }
        2 => {
            let at = rng.gen_range(0..=out.len());
            let bytes: Vec<u8> = (0..rng.gen_range(1..=16u8))
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        DICTIONARY[rng.gen_range(0..DICTIONARY.len())]
                    } else {
                        rng.gen_range(0..=255u8)
                    }
                })
                .collect();
            out.splice(at..at, bytes);
            "insertion"
        }
        _ => {
            out.truncate(rng.gen_range(0..=out.len()));
            out.extend_from_slice(&other[rng.gen_range(0..=other.len())..]);
            "splice"
        }
    };
    (out, op)
}

/// Feeds `CASES` mutations of `input` to `parse`, each under
/// `catch_unwind`; returns a line per panicking case.
fn fuzz(name: &str, seed: u64, input: &[u8], other: &[u8], parse: impl Fn(&[u8])) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut panics = Vec::new();
    for case in 0..CASES {
        let (bytes, op) = mutate(&mut rng, input, other);
        if catch_unwind(AssertUnwindSafe(|| parse(&bytes))).is_err() {
            panics.push(format!("{name}: case {case} ({op}) panicked"));
        }
    }
    panics
}

/// A recording: the container, then the state at its last frame, which
/// decodes every keyframe and delta up to it.
fn parse_recording(bytes: &[u8]) {
    if let Ok(rec) = Recording::parse(bytes) {
        let last = rec.frames.last().map_or(0, |f| f.round);
        let _ = cellflow_core::snapshot::state_at(&rec, last);
        let _ = RecScenario::parse(&rec.header.scenario);
    }
}

/// A telemetry stream: the schema validator, and each line as JSON.
fn parse_stream(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = validate_stream(&text);
    for line in text.lines() {
        let _ = Json::parse(line);
    }
}

/// A causal trace: the span parser, the causality check and the render.
fn parse_trace(bytes: &[u8]) {
    if let Ok(trace) = Trace::parse(&String::from_utf8_lossy(bytes)) {
        let _ = trace.check_causality();
        let _ = trace.render(5, None, false);
    }
}

/// A scenario line, rendered back when it parses.
fn parse_scenario(bytes: &[u8]) {
    if let Ok(scenario) = RecScenario::parse(&String::from_utf8_lossy(bytes)) {
        let _ = RecScenario::parse(&scenario.render());
    }
}

/// A flag vector, split on whitespace, with the reads a command makes.
fn parse_flags(bytes: &[u8]) {
    let args: Vec<String> = String::from_utf8_lossy(bytes)
        .split_whitespace()
        .map(str::to_string)
        .collect();
    if let Ok(flags) = Flags::parse(&args) {
        let _ = flags.get::<u16>("n", 5);
        let _ = flags.get::<u64>("rounds", 100);
        let _ = flags.get::<f64>("pf", 0.0);
        let _ = flags.get::<String>("partition", String::new());
        let _ = flags.has("heatmap");
        let _ = flags.reject_unused();
    }
}

#[test]
fn no_parser_panics_on_mutated_input() {
    let scenarios: Vec<String> = [CHAOS_REC, CASCADE_REC]
        .iter()
        .map(|bytes| Recording::parse(bytes).expect("committed").header.scenario)
        .collect();
    let mut panics = Vec::new();
    panics.extend(fuzz(
        "chaos-s5.rec",
        1,
        CHAOS_REC,
        CASCADE_REC,
        parse_recording,
    ));
    panics.extend(fuzz("telemetry", 2, TELEMETRY, TRACE, parse_stream));
    panics.extend(fuzz("trace", 3, TRACE, TELEMETRY, parse_trace));
    for (k, line) in scenarios.iter().enumerate() {
        let other = scenarios[(k + 1) % scenarios.len()].as_bytes();
        let seed = 4 + k as u64;
        panics.extend(fuzz(
            "scenario",
            seed,
            line.as_bytes(),
            other,
            parse_scenario,
        ));
    }
    for (k, line) in FLAG_LINES.iter().enumerate() {
        let other = FLAG_LINES[(k + 1) % FLAG_LINES.len()].as_bytes();
        let seed = 8 + k as u64;
        panics.extend(fuzz("flags", seed, line.as_bytes(), other, parse_flags));
    }
    // Nesting far past the JSON depth limit, bare and inside a stream line.
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let line = format!("{{\"v\":1,\"round\":1,\"kind\":\"x\",\"deep\":{deep}}}\n");
    assert!(Json::parse(&deep).is_err(), "nesting past the limit parses");
    for (name, parse) in [
        ("deep stream", parse_stream as fn(&[u8])),
        ("deep trace", parse_trace),
    ] {
        if catch_unwind(AssertUnwindSafe(|| parse(line.as_bytes()))).is_err() {
            panics.push(format!("{name} panicked"));
        }
    }
    assert!(panics.is_empty(), "{panics:#?}");
}
