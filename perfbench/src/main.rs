//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics (or the
//! per-layer metrics with `--trace 1`), each with its unit. The line
//! before it holds the run's metadata, and in an untraced run the per-unit
//! best times the latencies were taken over. Exits 1 when an output check
//! failed, 2 on a usage error (without a result line).

use std::collections::BTreeMap;

use cellflow_telemetry::Json;
use perfbench::{nproc, Options, Workload};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload} (one of {})", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Options::new(workload, seed, seconds, trace))
}

/// The commit the checkout was built from, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = perfbench::run(&opts);
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    let threads = outcome.threads;
    let mut meta = BTreeMap::from([
        (
            "workload".to_string(),
            Json::Str(opts.workload.name().to_string()),
        ),
        ("seed".to_string(), Json::Int(opts.seed.into())),
        ("trace".to_string(), Json::Bool(opts.trace)),
        ("nproc".to_string(), Json::Int(nproc() as i128)),
        (
            "worker_threads".to_string(),
            Json::Int(threads.workers as i128),
        ),
        (
            "collector_threads".to_string(),
            Json::Int(threads.collector as i128),
        ),
        (
            "oversubscribed".to_string(),
            Json::Bool(threads.workers > nproc()),
        ),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("commit".to_string(), Json::Str(commit())),
        (
            "error_rate".to_string(),
            Json::Float(perfbench::probe::per(outcome.failed, outcome.attempted)),
        ),
        (
            "digest".to_string(),
            Json::Str(format!("{:#018x}", outcome.digest)),
        ),
        ("pinned".to_string(), Json::Bool(opts.expect.is_some())),
        (
            "errors".to_string(),
            Json::Arr(
                outcome
                    .errors
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
    ]);
    if let Some(bests) = &outcome.metrics.bests {
        let list = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Float(v)).collect());
        meta.insert("round_us_best".to_string(), list(&bests.round_us));
        meta.insert("point_ms_best".to_string(), list(&bests.point_ms));
    }
    println!(
        "{}",
        Json::Obj(BTreeMap::from([("meta".to_string(), Json::Obj(meta))])).render()
    );
    println!("{}", outcome.result_json(opts.trace).render());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
