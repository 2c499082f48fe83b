//! Deterministic flight recordings: `record`, `replay`, `diff`, `bisect`.
//!
//! A `.rec` file (see [`cellflow_telemetry::Recording`] for the container
//! and `cellflow_core::snapshot` for the state codec) carries everything
//! needed to re-derive the run it captured: the seed, the keyframe
//! cadence, a checksum of the full [`SystemConfig`], and a *scenario
//! line* — a canonical `kind key=value …` rendering of the campaign
//! parameters that [`RecScenario`] parses back. Because every runtime in
//! the workspace is deterministic per seed, `replay` re-drives the same
//! scenario with a fresh recorder and byte-compares the two recordings;
//! any mismatch is pinned to its first divergent round, cell, and
//! register, and the rounds leading up to it are dumped through the
//! bounded telemetry flight ring as a schema-valid JSONL artifact.

use std::collections::BTreeMap;

use cellflow_core::monitor::stabilization_bound;
use cellflow_core::snapshot::{self, diff_states, state_at, Recorder, RegisterDiff};
use cellflow_core::{CampaignSpec, FaultPlan, Params, SystemConfig};
use cellflow_grid::{CellId, GridDims};
use cellflow_sim::Simulation;
use cellflow_telemetry::{Event, FlightRecorder, FrameKind, Recording};

use crate::args::Flags;

/// Default full-keyframe cadence: a keyframe every this many rounds, deltas
/// between. Seeks cost at most `interval - 1` delta applications.
pub const DEFAULT_KEYFRAME_INTERVAL: u64 = 16;

/// Rounds of history the divergence dump retains (the flight ring bound).
const DIVERGENCE_TAIL_ROUNDS: usize = 32;

/// A recordable scenario: the campaign parameters a `.rec` header's
/// scenario line round-trips through [`RecScenario::render`] /
/// [`RecScenario::parse`]. The seed and keyframe cadence live in the
/// header itself, not here.
#[derive(Clone, Debug, PartialEq)]
pub enum RecScenario {
    /// The shared-variable reference simulation, fault-free.
    Plain {
        /// Grid side.
        n: u16,
        /// Rounds to run.
        rounds: u64,
        /// Cell side length (milli-cells).
        l: i64,
        /// Safety radius (milli-cells).
        rs: i64,
        /// Per-round speed (milli-cells).
        v: i64,
    },
    /// The cascading-failure campaign (reference side), as
    /// `cellflow chaos --cascade`.
    Cascade {
        /// Grid side.
        n: u16,
        /// Campaign rounds (settle rounds are derived from the bound).
        rounds: u64,
        /// Per-cell occupancy capacity.
        capacity: u32,
        /// Overload trigger threshold.
        threshold: u32,
        /// Rounds the overload must sustain to trip.
        sustain: u32,
        /// Randomized admission backoff instead of overload crashes.
        backoff: bool,
        /// Backoff base pause.
        base: u64,
        /// Backoff max pause.
        max: u64,
        /// Optimistic restart delay (0 = crashes are permanent).
        restart: u64,
    },
    /// The scripted link-fault campaign (reference side), as
    /// `cellflow chaos --partition SPEC`.
    Partition {
        /// Grid side.
        n: u16,
        /// Campaign rounds.
        rounds: u64,
        /// The partition spec (`split@col=2`, `island@…`, `flaky@…`).
        spec: String,
        /// First cut round.
        start: u64,
        /// Heal round (`None` = never heals).
        heal: Option<u64>,
        /// Settle rounds appended after the campaign.
        settle: u64,
    },
    /// The seeded fault-injection campaign against the message-passing
    /// deployment, as `cellflow chaos`.
    Chaos {
        /// Grid side.
        n: u16,
        /// Rounds to run.
        rounds: u64,
        /// Faults and chaos are active for the first this-many rounds.
        active: u64,
        /// Message drop rate.
        drop: f64,
        /// Message delay rate.
        delay: f64,
        /// Message duplication rate.
        dup: f64,
        /// Message reorder rate.
        reorder: f64,
        /// Burst crashes.
        bursts: u32,
        /// Region blackouts.
        blackouts: u32,
        /// Flapping cells.
        flappers: u32,
        /// Hard thread crashes with re-spawn.
        hard: u32,
        /// Unrecoverable kills (the run degrades; no recording survives).
        kills: u32,
    },
    /// The adversarial state-corruption campaign's deployment phase, as
    /// `cellflow stabilize` (corruptions + a hard crash + a dirty tear
    /// over a durable snapshot store).
    Stabilize {
        /// Grid side.
        n: u16,
        /// Scripted corruptions.
        corruptions: u32,
        /// Corruption window.
        active: u64,
    },
}

impl RecScenario {
    /// The canonical scenario line stored in the `.rec` header.
    pub fn render(&self) -> String {
        match self {
            RecScenario::Plain {
                n,
                rounds,
                l,
                rs,
                v,
            } => {
                format!("plain n={n} rounds={rounds} l={l} rs={rs} v={v}")
            }
            RecScenario::Cascade {
                n,
                rounds,
                capacity,
                threshold,
                sustain,
                backoff,
                base,
                max,
                restart,
            } => format!(
                "cascade n={n} rounds={rounds} capacity={capacity} threshold={threshold} \
                 sustain={sustain} backoff={} base={base} max={max} restart={restart}",
                u8::from(*backoff)
            ),
            RecScenario::Partition {
                n,
                rounds,
                spec,
                start,
                heal,
                settle,
            } => {
                let heal = match heal {
                    Some(h) => h.to_string(),
                    None => "none".to_string(),
                };
                format!(
                    "partition n={n} rounds={rounds} spec={spec} start={start} \
                     heal={heal} settle={settle}"
                )
            }
            RecScenario::Chaos {
                n,
                rounds,
                active,
                drop,
                delay,
                dup,
                reorder,
                bursts,
                blackouts,
                flappers,
                hard,
                kills,
            } => format!(
                "chaos n={n} rounds={rounds} active={active} drop={drop} delay={delay} \
                 dup={dup} reorder={reorder} bursts={bursts} blackouts={blackouts} \
                 flappers={flappers} hard={hard} kills={kills}"
            ),
            RecScenario::Stabilize {
                n,
                corruptions,
                active,
            } => format!("stabilize n={n} corruptions={corruptions} active={active}"),
        }
    }

    /// Parses a scenario line back. Inverse of [`RecScenario::render`].
    ///
    /// # Errors
    ///
    /// A malformed line, unknown kind, or missing/invalid field.
    pub fn parse(line: &str) -> Result<RecScenario, String> {
        let mut tokens = line.split_whitespace();
        let kind = tokens.next().ok_or("empty scenario line")?;
        let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad scenario token `{token}` (expected key=value)"))?;
            kv.insert(key, value);
        }
        let get = |key: &str| -> Result<&str, String> {
            kv.get(key)
                .copied()
                .ok_or_else(|| format!("scenario line missing `{key}`"))
        };
        fn num<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("bad scenario value `{raw}` for `{key}`"))
        }
        let scenario = match kind {
            "plain" => RecScenario::Plain {
                n: num("n", get("n")?)?,
                rounds: num("rounds", get("rounds")?)?,
                l: num("l", get("l")?)?,
                rs: num("rs", get("rs")?)?,
                v: num("v", get("v")?)?,
            },
            "cascade" => RecScenario::Cascade {
                n: num("n", get("n")?)?,
                rounds: num("rounds", get("rounds")?)?,
                capacity: num("capacity", get("capacity")?)?,
                threshold: num("threshold", get("threshold")?)?,
                sustain: num("sustain", get("sustain")?)?,
                backoff: num::<u8>("backoff", get("backoff")?)? != 0,
                base: num("base", get("base")?)?,
                max: num("max", get("max")?)?,
                restart: num("restart", get("restart")?)?,
            },
            "partition" => RecScenario::Partition {
                n: num("n", get("n")?)?,
                rounds: num("rounds", get("rounds")?)?,
                spec: get("spec")?.to_string(),
                start: num("start", get("start")?)?,
                heal: match get("heal")? {
                    "none" => None,
                    raw => Some(num("heal", raw)?),
                },
                settle: num("settle", get("settle")?)?,
            },
            "chaos" => RecScenario::Chaos {
                n: num("n", get("n")?)?,
                rounds: num("rounds", get("rounds")?)?,
                active: num("active", get("active")?)?,
                drop: num("drop", get("drop")?)?,
                delay: num("delay", get("delay")?)?,
                dup: num("dup", get("dup")?)?,
                reorder: num("reorder", get("reorder")?)?,
                bursts: num("bursts", get("bursts")?)?,
                blackouts: num("blackouts", get("blackouts")?)?,
                flappers: num("flappers", get("flappers")?)?,
                hard: num("hard", get("hard")?)?,
                kills: num("kills", get("kills")?)?,
            },
            "stabilize" => RecScenario::Stabilize {
                n: num("n", get("n")?)?,
                corruptions: num("corruptions", get("corruptions")?)?,
                active: num("active", get("active")?)?,
            },
            other => return Err(format!("unknown scenario kind `{other}`")),
        };
        Ok(scenario)
    }

    /// The system configuration the scenario runs — rebuilt identically by
    /// record and replay, and pinned by the header's config checksum.
    pub fn config(&self) -> Result<SystemConfig, String> {
        let standard = |n: u16| -> Result<SystemConfig, String> {
            if n < 3 {
                return Err("scenario grid must be at least 3×3".into());
            }
            let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
            Ok(
                SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
                    .map_err(|e| e.to_string())?
                    .with_source(CellId::new(1, 0)),
            )
        };
        match self {
            RecScenario::Plain { n, l, rs, v, .. } => {
                if *n < 2 {
                    return Err("scenario grid must be at least 2×2".into());
                }
                let params = Params::from_milli(*l, *rs, *v).map_err(|e| e.to_string())?;
                Ok(
                    SystemConfig::new(GridDims::square(*n), CellId::new(1, n - 1), params)
                        .map_err(|e| e.to_string())?
                        .with_source(CellId::new(1, 0)),
                )
            }
            RecScenario::Cascade { n, capacity, .. } => {
                if *n < 4 {
                    return Err("cascade grids must be at least 4×4".into());
                }
                if *capacity == 0 {
                    return Err("cascade capacity must be positive".into());
                }
                Ok(standard(*n)?.with_capacity(*capacity))
            }
            RecScenario::Partition { n, .. }
            | RecScenario::Chaos { n, .. }
            | RecScenario::Stabilize { n, .. } => standard(*n),
        }
    }

    /// A recorder whose header pins this scenario, its config, `seed`, and
    /// the keyframe cadence. Record-time and replay-time recorders built
    /// here are identical by construction, so byte-comparing their output
    /// is a sound run-equality test.
    ///
    /// # Errors
    ///
    /// An invalid scenario (bad grid, zero capacity, …).
    pub fn recorder(&self, seed: u64, keyframe_interval: u64) -> Result<Box<Recorder>, String> {
        if keyframe_interval == 0 {
            return Err("--keyframe-interval must be positive".into());
        }
        let config = self.config()?;
        Ok(Box::new(Recorder::for_config(
            &config,
            seed,
            keyframe_interval,
            &self.render(),
        )))
    }

    /// Runs the scenario with a recorder attached and returns the finished
    /// recording bytes. This is the single drive path shared by `record`
    /// and `replay` — both produce bytes through this function, so a
    /// replay mismatch is a real divergence, not a harness artifact.
    ///
    /// # Errors
    ///
    /// An invalid scenario, or a run that degraded (e.g. a chaos kill
    /// timed a round out) and therefore produced no complete recording.
    pub fn drive(&self, seed: u64, keyframe_interval: u64) -> Result<Vec<u8>, String> {
        let config = self.config()?;
        let recorder = self.recorder(seed, keyframe_interval)?;
        match self {
            RecScenario::Plain { rounds, .. } => {
                let mut sim = Simulation::new(config, seed).with_recorder(recorder);
                sim.run(*rounds);
                let recorder = sim.take_recorder().expect("the recorder stays attached");
                Ok(recorder.finish())
            }
            RecScenario::Cascade {
                n,
                rounds,
                threshold,
                sustain,
                backoff,
                base,
                max,
                restart,
                ..
            } => {
                use cellflow_core::overload::{BackoffPolicy, OverloadTrigger};
                use cellflow_sim::cascade::{run_cascade_recorded, CascadeScenario};
                let settle = stabilization_bound(&config) + 2;
                crate::commands::horizon(*rounds, settle)?;
                let scenario = CascadeScenario {
                    config,
                    base: FaultPlan::new().crash_at(8, CellId::new(1, n / 2)),
                    trigger: OverloadTrigger::new(*threshold, *sustain),
                    backoff: backoff.then_some(BackoffPolicy {
                        base: (*base).max(1),
                        max: (*max).max((*base).max(1)),
                        seed,
                    }),
                    restart_after: (*restart > 0).then_some(*restart),
                    rounds: *rounds,
                    settle,
                };
                let (_, recording) = run_cascade_recorded(&scenario, None, Some(recorder));
                recording.ok_or_else(|| "cascade run produced no recording".into())
            }
            RecScenario::Partition {
                rounds,
                spec,
                start,
                heal,
                settle,
                ..
            } => {
                use cellflow_sim::partition::{run_partition_recorded, PartitionScenario};
                crate::commands::horizon(*rounds, *settle)?;
                let plan = crate::commands::parse_partition_spec(
                    spec,
                    config.dims(),
                    *start,
                    *heal,
                    seed,
                )?;
                let scenario = PartitionScenario {
                    config,
                    plan,
                    base: FaultPlan::new(),
                    rounds: *rounds,
                    settle: *settle,
                };
                let (_, recording) = run_partition_recorded(&scenario, None, Some(recorder));
                recording.ok_or_else(|| "partition run produced no recording".into())
            }
            RecScenario::Chaos {
                rounds,
                active,
                drop,
                delay,
                dup,
                reorder,
                bursts,
                blackouts,
                flappers,
                hard,
                kills,
                ..
            } => {
                use cellflow_net::{ChaosConfig, NetSystem};
                for (name, rate) in [
                    ("drop", drop),
                    ("delay", delay),
                    ("dup", dup),
                    ("reorder", reorder),
                ] {
                    if !(0.0..=1.0).contains(rate) {
                        return Err(format!("chaos {name} rate {rate} is not a probability"));
                    }
                }
                let spec = CampaignSpec {
                    active_rounds: *active,
                    bursts: *bursts,
                    blackouts: *blackouts,
                    flappers: *flappers,
                    hard_crashes: *hard,
                    kills: *kills,
                    ..CampaignSpec::default()
                };
                let plan = FaultPlan::random_campaign(&config, &spec, seed);
                let net = NetSystem::new(config)
                    .map_err(|e| e.to_string())?
                    .with_plan(plan)
                    .with_chaos(ChaosConfig {
                        seed,
                        drop_rate: *drop,
                        delay_rate: *delay,
                        dup_rate: *dup,
                        reorder_rate: *reorder,
                        until_round: Some(*active),
                    });
                let (_, recording) = net
                    .run_monitored_recorded(*rounds, Vec::new(), Some(recorder))
                    .map_err(|e| format!("chaos run degraded ({e}); no recording survives"))?;
                recording.ok_or_else(|| "chaos run produced no recording".into())
            }
            RecScenario::Stabilize {
                corruptions,
                active,
                ..
            } => {
                use cellflow_net::{DurableStore, NetSystem, TearSpec};
                if *active < 6 {
                    return Err("stabilize active window must be at least 6 rounds".into());
                }
                let schedule =
                    crate::commands::StabilizeSchedule::new(*active, stabilization_bound(&config))?;
                let spec = CampaignSpec {
                    active_rounds: *active,
                    bursts: 0,
                    blackouts: 0,
                    flappers: 0,
                    hard_crashes: 0,
                    kills: 0,
                    corruptions: *corruptions,
                    ..CampaignSpec::default()
                };
                // The same deployment campaign `cellflow stabilize` runs:
                // seeded corruptions plus a hard crash and a dirty tear
                // over a durable snapshot store.
                let plan = FaultPlan::random_campaign(&config, &spec, seed)
                    .hard_crash_at(schedule.hard_at, schedule.hard_victim)
                    .recover_at(schedule.hard_respawn, schedule.hard_victim);
                let store_dir = crate::commands::run_store_dir("rec-stabilize", seed);
                let store = DurableStore::create(&store_dir).map_err(|e| e.to_string())?;
                let net = NetSystem::new(config)
                    .map_err(|e| e.to_string())?
                    .with_plan(plan)
                    .with_store(std::sync::Arc::new(store))
                    .with_tear(TearSpec {
                        cell: schedule.tear_victim,
                        round: schedule.tear_at,
                        respawn: schedule.tear_respawn,
                    });
                let outcome =
                    net.run_monitored_recorded(schedule.rounds, Vec::new(), Some(recorder));
                std::fs::remove_dir_all(&store_dir).ok();
                let (_, recording) = outcome.map_err(|e| e.to_string())?;
                recording.ok_or_else(|| "stabilize run produced no recording".into())
            }
        }
    }
}

/// The `--record FILE` / `--keyframe-interval` pair the campaign commands
/// (`chaos`, `stabilize`) accept: `Some((path, interval))` when a
/// recording was requested.
pub fn record_flags(flags: &Flags) -> Result<Option<(String, u64)>, String> {
    let out: String = flags.get("record", String::new())?;
    if out.is_empty() {
        return Ok(None);
    }
    let interval: u64 = flags.get("keyframe-interval", DEFAULT_KEYFRAME_INTERVAL)?;
    if interval == 0 {
        return Err("--keyframe-interval must be positive".into());
    }
    Ok(Some((out, interval)))
}

/// Writes a campaign run's recording bytes and prints the confirmation
/// line (byte-count only — no wall-clock, so campaign reports stay
/// byte-identical per seed).
pub fn save_recording(out: &str, bytes: Option<Vec<u8>>) -> Result<(), String> {
    let bytes = bytes.ok_or("internal: the attached recorder returned no recording")?;
    let rec = Recording::parse(&bytes)
        .map_err(|e| format!("internal: fresh recording failed to parse: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "recording:      {} frames -> {out} ({} bytes)",
        rec.frames.len(),
        bytes.len()
    );
    Ok(())
}

/// Builds the scenario `cellflow record` was asked for from its flags
/// (shared with the `--record` flag on `chaos`). Flag names and defaults
/// mirror the sibling commands.
fn scenario_from_flags(flags: &Flags) -> Result<RecScenario, String> {
    let kind: String = flags.get("scenario", "plain".to_string())?;
    match kind.as_str() {
        "plain" => Ok(RecScenario::Plain {
            n: flags.get("n", 8)?,
            rounds: flags.get("rounds", 500)?,
            l: flags.get("l", 250)?,
            rs: flags.get("rs", 50)?,
            v: flags.get("v", 200)?,
        }),
        "cascade" => {
            let capacity: u32 = flags.get("capacity", 2)?;
            Ok(RecScenario::Cascade {
                n: flags.get("n", 5)?,
                rounds: flags.get("rounds", 160)?,
                capacity,
                threshold: flags.get("threshold", capacity)?,
                sustain: flags.get("sustain", 2)?,
                backoff: flags.has("backoff"),
                base: flags.get("backoff-base", 4)?,
                max: flags.get("backoff-max", 32)?,
                restart: flags.get("restart", 0)?,
            })
        }
        "partition" => {
            let rounds: u64 = flags.get("rounds", 120)?;
            let start: u64 = flags.get("start", 10)?;
            let heal = if flags.has("no-heal") {
                None
            } else {
                Some(flags.get("heal", crate::commands::two_thirds(rounds))?)
            };
            let n: u16 = flags.get("n", 5)?;
            if n < 3 {
                return Err("--n must be at least 3".into());
            }
            let params = Params::from_milli(250, 50, 200).expect("static parameters are valid");
            let config = SystemConfig::new(GridDims::square(n), CellId::new(1, n - 1), params)
                .map_err(|e| e.to_string())?;
            let bound = stabilization_bound(&config);
            Ok(RecScenario::Partition {
                n,
                rounds,
                spec: flags.get("partition", "split@col=2".to_string())?,
                start,
                heal,
                settle: flags.get("settle", bound + 2)?,
            })
        }
        "chaos" => {
            let rounds: u64 = flags.get("rounds", 300)?;
            Ok(RecScenario::Chaos {
                n: flags.get("n", 6)?,
                rounds,
                active: flags.get("active", 100.min(rounds))?,
                drop: flags.get("drop", 0.05)?,
                delay: flags.get("delay", 0.05)?,
                dup: flags.get("dup", 0.1)?,
                reorder: flags.get("reorder", 0.1)?,
                bursts: flags.get("bursts", 2)?,
                blackouts: flags.get("blackouts", 1)?,
                flappers: flags.get("flappers", 1)?,
                hard: flags.get("hard", 1)?,
                kills: flags.get("kills", 0)?,
            })
        }
        "stabilize" => Ok(RecScenario::Stabilize {
            n: flags.get("n", 6)?,
            corruptions: flags.get("corruptions", 3)?,
            active: flags.get("active", 30)?,
        }),
        other => Err(format!(
            "unknown --scenario `{other}` (expected plain, cascade, partition, chaos, \
             or stabilize)"
        )),
    }
}

/// `cellflow record`: run a scenario with the recorder attached and write
/// the `.rec` file.
pub fn record(flags: &Flags) -> Result<(), String> {
    let scenario = scenario_from_flags(flags)?;
    let seed: u64 = flags.get("seed", 1)?;
    let interval: u64 = flags.get("keyframe-interval", DEFAULT_KEYFRAME_INTERVAL)?;
    let out: String = flags.get("record-out", "run.rec".to_string())?;
    flags.reject_unused()?;

    println!("recording: {}", scenario.render());
    let bytes = scenario.drive(seed, interval)?;
    let rec = Recording::parse(&bytes)
        .map_err(|e| format!("internal: fresh recording failed to parse: {e}"))?;
    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let (first, last) = rec.round_span().ok_or("internal: empty recording")?;
    println!(
        "wrote {out}: rounds {first}..{last} in {} frames ({} bytes), seed {seed}, \
         keyframe every {interval}",
        rec.frames.len(),
        bytes.len()
    );
    println!("content id: {:016x}", rec.header.content_id);
    Ok(())
}

/// Reads and parses a `.rec` file, mapping parse errors to the
/// `{path}:{offset}: {message}` shape the other artifact validators use.
fn load(path: &str) -> Result<(Vec<u8>, Recording), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let rec = Recording::parse(&bytes).map_err(|e| format!("{path}:{e}"))?;
    Ok((bytes, rec))
}

/// `cellflow replay FILE.rec`: validate every frame checksum, re-drive the
/// header's scenario with the header's seed, and byte-compare. Exits
/// nonzero naming the first divergent round (and the disagreeing cell and
/// register) on any mismatch, dumping the preceding rounds through the
/// flight ring.
pub fn replay(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("replay needs a file: cellflow replay <run.rec>".into());
    };
    Flags::parse(&args[1..])?.reject_unused()?;
    let (bytes, rec) = load(path)?;
    let scenario = RecScenario::parse(&rec.header.scenario)
        .map_err(|e| format!("{path}: bad scenario line: {e}"))?;
    let config = scenario.config().map_err(|e| format!("{path}: {e}"))?;
    let checksum = snapshot::config_checksum(&config);
    if checksum != rec.header.config_checksum {
        return Err(format!(
            "{path}: config checksum mismatch (header {:016x}, rebuilt {checksum:016x}) — \
             the recording was made by an incompatible build",
            rec.header.config_checksum
        ));
    }
    println!(
        "replaying {path}: {} ({} frames, seed {})",
        rec.header.scenario, rec.header.rounds, rec.header.seed
    );
    let fresh_bytes = scenario.drive(rec.header.seed, rec.header.keyframe_interval)?;
    if fresh_bytes == bytes {
        println!(
            "replay OK: {} frames byte-identical (content id {:016x})",
            rec.frames.len(),
            rec.header.content_id
        );
        return Ok(());
    }
    let fresh = Recording::parse(&fresh_bytes)
        .map_err(|e| format!("internal: fresh recording failed to parse: {e}"))?;
    match snapshot::bisect(&rec, &fresh).map_err(|e| format!("{path}: {e}"))? {
        Some(d) => {
            let dims = snapshot::header_dims(&rec.header).map_err(|e| format!("{path}: {e}"))?;
            let diffs = diverging_registers(&rec, &fresh, dims, d.round)?;
            print!("{}", render_diff_table(&diffs));
            let dump = dump_path(path);
            let rounds = write_divergence_dump(&rec, d.round, &diffs, &dump)?;
            println!("flight tail: last {rounds} round(s) -> {}", dump.display());
            Err(format!(
                "{path}: replay DIVERGED at round {} ({} at {}) — recorded {} vs replayed {}",
                d.round,
                d.register,
                cell_label(d.cell),
                d.a,
                d.b
            ))
        }
        // Same states, different bytes: the framing itself was altered.
        None => Err(format!(
            "{path}: replay bytes differ but every decoded state matches — \
             the recording's framing was tampered with"
        )),
    }
}

/// The decoded per-register differences between two recordings at `round`.
fn diverging_registers(
    a: &Recording,
    b: &Recording,
    dims: GridDims,
    round: u64,
) -> Result<Vec<RegisterDiff>, String> {
    let sa = state_at(a, round)?;
    let sb = state_at(b, round)?;
    Ok(diff_states(dims, &sa, &sb))
}

/// `<file>.divergence.jsonl` next to the recording.
fn dump_path(rec_path: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("{rec_path}.divergence.jsonl"))
}

/// `(global)` for the run-wide register row, the cell id otherwise.
fn cell_label(cell: Option<CellId>) -> String {
    match cell {
        Some(c) => c.to_string(),
        None => "(global)".to_string(),
    }
}

/// Renders register differences as an aligned plain-text table, one row
/// per disagreeing register.
fn render_diff_table(diffs: &[RegisterDiff]) -> String {
    let header = ["cell", "register", "A", "B"];
    let rows: Vec<[String; 4]> = diffs
        .iter()
        .map(|d| {
            [
                cell_label(d.cell),
                d.register.to_string(),
                d.a.clone(),
                d.b.clone(),
            ]
        })
        .collect();
    let mut widths = header.map(|h| h.chars().count());
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cols: [&str; 4]| -> String {
        let mut line = String::new();
        for (k, (col, w)) in cols.iter().zip(widths.iter()).enumerate() {
            if k > 0 {
                line.push_str("  ");
            }
            line.push_str(col);
            for _ in col.chars().count()..*w {
                line.push(' ');
            }
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header));
    out.push('\n');
    for row in &rows {
        out.push_str(&fmt_row([&row[0], &row[1], &row[2], &row[3]]));
        out.push('\n');
    }
    out
}

/// Feeds the rounds leading up to `round` through the bounded telemetry
/// flight ring and writes the rendered dump: per-round `round_summary`
/// lines reconstructed from the recording's decoded states, then one
/// `violation` line per diverging register at the divergence round. The
/// artifact is a schema-valid JSONL stream (`cellflow inspect` reads it).
/// Returns the number of rounds the tail retained.
fn write_divergence_dump(
    rec: &Recording,
    round: u64,
    diffs: &[RegisterDiff],
    out: &std::path::Path,
) -> Result<usize, String> {
    let mut ring = FlightRecorder::new(DIVERGENCE_TAIL_ROUNDS);
    let (first, last) = rec.round_span().ok_or("recording holds no frames")?;
    let round = round.clamp(first, last);
    let from = round
        .saturating_sub(DIVERGENCE_TAIL_ROUNDS as u64 - 1)
        .max(first);
    let mut prev = state_at(rec, from.saturating_sub(1).max(first))?;
    for r in from..=round {
        let state = state_at(rec, r)?;
        // Insertions advance the run-wide entity counter; deliveries are
        // the insertions that did not stay in flight.
        let inserted = state.next_entity_id.saturating_sub(prev.next_entity_id);
        let held_before = prev.entity_count() as u64;
        let held_after = state.entity_count() as u64;
        let consumed = (held_before + inserted).saturating_sub(held_after);
        ring.push(
            r,
            Event::RoundSummary {
                consumed,
                inserted,
                blocked: 0,
                moved: 0,
            },
        );
        prev = state;
    }
    for d in diffs {
        ring.push(
            round,
            Event::Violation {
                monitor: "divergence".to_string(),
                detail: format!(
                    "{} at {}: {} ≠ {}",
                    d.register,
                    cell_label(d.cell),
                    d.a,
                    d.b
                ),
            },
        );
    }
    let rounds = ring.rounds_held();
    std::fs::write(out, ring.render_dump("divergence", round))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(rounds)
}

/// Checks that two recordings are comparable (same grid, same config).
fn check_comparable(
    path_a: &str,
    a: &Recording,
    path_b: &str,
    b: &Recording,
) -> Result<GridDims, String> {
    if (a.header.nx, a.header.ny) != (b.header.nx, b.header.ny) {
        return Err(format!(
            "{path_a} is a {}×{} grid but {path_b} is {}×{} — nothing to compare",
            a.header.nx, a.header.ny, b.header.nx, b.header.ny
        ));
    }
    if a.header.config_checksum != b.header.config_checksum {
        return Err(format!(
            "{path_a} and {path_b} were recorded under different configs \
             ({:016x} vs {:016x})",
            a.header.config_checksum, b.header.config_checksum
        ));
    }
    snapshot::header_dims(&a.header).map_err(|e| format!("{path_a}: {e}"))
}

/// Two positional `.rec` paths followed by optional flags.
fn two_paths<'a>(args: &'a [String], usage: &str) -> Result<(&'a str, &'a str, Flags), String> {
    let mut paths = args.iter().take_while(|a| !a.starts_with("--"));
    let (Some(a), Some(b)) = (paths.next(), paths.next()) else {
        return Err(usage.to_string());
    };
    let flags = Flags::parse(&args[2..])?;
    Ok((a, b, flags))
}

/// `cellflow diff A.rec B.rec [--round R]`: render the per-cell register
/// differences at `--round` (default: the first divergent round). Exits
/// nonzero when any register differs.
pub fn diff(args: &[String]) -> Result<(), String> {
    let (path_a, path_b, flags) = two_paths(
        args,
        "diff needs two files: cellflow diff <a.rec> <b.rec> [--round R]",
    )?;
    let round: u64 = flags.get("round", u64::MAX)?;
    flags.reject_unused()?;
    let (_, a) = load(path_a)?;
    let (_, b) = load(path_b)?;
    let dims = check_comparable(path_a, &a, path_b, &b)?;

    let at = if round != u64::MAX {
        round
    } else {
        match snapshot::bisect(&a, &b).map_err(|e| e.to_string())? {
            Some(d) => d.round,
            None => {
                let span_a = a.round_span().ok_or("empty recording")?;
                let span_b = b.round_span().ok_or("empty recording")?;
                println!(
                    "identical: rounds {}..{} agree in every register",
                    span_a.0.max(span_b.0),
                    span_a.1.min(span_b.1)
                );
                return Ok(());
            }
        }
    };
    let diffs = diverging_registers(&a, &b, dims, at)
        .map_err(|e| format!("round {at}: {e} (use --round within both recordings)"))?;
    if diffs.is_empty() {
        println!("identical at round {at}: every register agrees");
        return Ok(());
    }
    println!(
        "round {at}: {} register(s) differ (A = {path_a}, B = {path_b})\n",
        diffs.len()
    );
    print!("{}", render_diff_table(&diffs));
    Err(format!(
        "{} register difference(s) at round {at}",
        diffs.len()
    ))
}

/// `cellflow bisect A.rec B.rec`: seek the first divergent round via the
/// keyframe index (O(log R) seek + one delta walk), then report the exact
/// round, cell, and register, render the full register diff there, and
/// dump the preceding rounds through the flight ring.
pub fn bisect(args: &[String]) -> Result<(), String> {
    let (path_a, path_b, flags) = two_paths(
        args,
        "bisect needs two files: cellflow bisect <a.rec> <b.rec>",
    )?;
    flags.reject_unused()?;
    let (_, a) = load(path_a)?;
    let (_, b) = load(path_b)?;
    let dims = check_comparable(path_a, &a, path_b, &b)?;
    match snapshot::bisect(&a, &b).map_err(|e| e.to_string())? {
        None => {
            println!("identical: no divergence over the common round span");
            Ok(())
        }
        Some(d) => {
            println!("first divergence: round {}", d.round);
            println!("  cell:     {}", cell_label(d.cell));
            println!("  register: {}", d.register);
            println!("  A: {}   B: {}", d.a, d.b);
            let diffs = diverging_registers(&a, &b, dims, d.round)?;
            println!();
            print!("{}", render_diff_table(&diffs));
            let dump = dump_path(path_a);
            let rounds = write_divergence_dump(&a, d.round, &diffs, &dump)?;
            println!("flight tail: last {rounds} round(s) -> {}", dump.display());
            Ok(())
        }
    }
}

/// `cellflow inspect FILE.rec`: print the header, census the frames, and
/// validate every checksum (parse already did). Errors carry
/// `{path}:{offset}:` like the JSONL validators carry `{path}:{line}:`.
pub fn inspect_rec(path: &str) -> Result<(), String> {
    let (bytes, rec) = load(path)?;
    let h = &rec.header;
    let keyframes = rec
        .frames
        .iter()
        .filter(|f| f.kind == FrameKind::Keyframe)
        .count();
    println!(
        "{path}: recording schema v{}, {} bytes, every frame checksum valid",
        h.schema,
        bytes.len()
    );
    println!("  scenario:          {}", h.scenario);
    println!("  grid:              {}×{}", h.nx, h.ny);
    println!("  seed:              {}", h.seed);
    println!("  keyframe interval: {}", h.keyframe_interval);
    println!(
        "  rounds:            {} ({} frames: {keyframes} keyframes, {} deltas)",
        h.rounds,
        rec.frames.len(),
        rec.frames.len() - keyframes
    );
    println!("  config checksum:   {:016x}", h.config_checksum);
    println!("  content id:        {:016x}", h.content_id);
    println!("  config:            {}", h.config);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lines_round_trip() {
        let scenarios = [
            RecScenario::Plain {
                n: 6,
                rounds: 40,
                l: 250,
                rs: 50,
                v: 200,
            },
            RecScenario::Cascade {
                n: 5,
                rounds: 120,
                capacity: 2,
                threshold: 2,
                sustain: 2,
                backoff: true,
                base: 4,
                max: 32,
                restart: 0,
            },
            RecScenario::Partition {
                n: 5,
                rounds: 100,
                spec: "split@col=2".to_string(),
                start: 10,
                heal: Some(70),
                settle: 52,
            },
            RecScenario::Partition {
                n: 5,
                rounds: 100,
                spec: "flaky@200".to_string(),
                start: 10,
                heal: None,
                settle: 52,
            },
            RecScenario::Chaos {
                n: 4,
                rounds: 80,
                active: 40,
                drop: 0.05,
                delay: 0.0,
                dup: 0.1,
                reorder: 0.1,
                bursts: 2,
                blackouts: 1,
                flappers: 1,
                hard: 1,
                kills: 0,
            },
            RecScenario::Stabilize {
                n: 4,
                corruptions: 3,
                active: 20,
            },
        ];
        for sc in scenarios {
            let line = sc.render();
            let back = RecScenario::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, sc, "{line}");
        }
    }

    #[test]
    fn scenario_parse_rejects_garbage() {
        assert!(RecScenario::parse("").is_err());
        assert!(RecScenario::parse("warp n=4").is_err());
        assert!(RecScenario::parse("plain n=4").is_err(), "missing fields");
        assert!(RecScenario::parse("plain n=four rounds=1 l=1 rs=1 v=1").is_err());
        assert!(RecScenario::parse("plain n 4").is_err(), "not key=value");
    }

    #[test]
    fn plain_drive_is_reproducible_and_parses() {
        let sc = RecScenario::Plain {
            n: 4,
            rounds: 25,
            l: 250,
            rs: 50,
            v: 200,
        };
        let a = sc.drive(7, 8).expect("drive");
        let b = sc.drive(7, 8).expect("drive");
        assert_eq!(a, b, "same seed, same bytes");
        let rec = Recording::parse(&a).expect("parse");
        // 25 engine rounds plus the opening keyframe at round 0.
        assert_eq!(rec.header.rounds, 26);
        assert_eq!(rec.round_span(), Some((0, 25)));
        assert_eq!(rec.header.scenario, sc.render());
        assert_eq!(
            rec.header.config_checksum,
            snapshot::config_checksum(&sc.config().unwrap())
        );
    }

    #[test]
    fn overflowing_horizons_are_rejected_before_driving() {
        let max = u64::MAX;
        // What `replay` does with a header's scenario line.
        for line in [
            format!("stabilize n=5 corruptions=3 active={max}"),
            format!(
                "cascade n=5 rounds={max} capacity=2 threshold=2 sustain=2 backoff=0 base=4 \
                 max=32 restart=0"
            ),
            format!("partition n=5 rounds={max} spec=split@col=2 start=0 heal=5 settle=54"),
            format!("partition n=5 rounds=100 spec=split@col=2 start=0 heal=5 settle={max}"),
        ] {
            let scenario = RecScenario::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let err = scenario.drive(1, 16).unwrap_err();
            assert!(err.contains("campaign horizon overflows"), "{line}: {err}");
        }
        // And what `record` does with the same values as flags.
        for cmd in [
            format!("--scenario stabilize --active {max}"),
            format!("--scenario cascade --rounds {max}"),
            format!("--scenario partition --rounds {max} --start 0 --heal 5"),
        ] {
            let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
            let err = record(&Flags::parse(&args).unwrap()).unwrap_err();
            assert!(err.contains("campaign horizon overflows"), "{cmd}: {err}");
        }
    }

    /// Two drives of one seed in one process must not share a store
    /// directory: `DurableStore::create` deletes the logs it finds there.
    #[test]
    fn parallel_stabilize_drives_of_one_seed_keep_their_stores() {
        let scenario = RecScenario::Stabilize {
            n: 4,
            corruptions: 3,
            active: 24,
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| scenario.drive(3, 16));
            let b = s.spawn(|| scenario.drive(3, 16));
            (a.join().unwrap(), b.join().unwrap())
        });
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(a == b, "two drives of one seed wrote different recordings");
    }

    #[test]
    fn diff_table_alignment_is_stable() {
        let diffs = vec![
            RegisterDiff {
                cell: None,
                register: "next_entity_id",
                a: "3".to_string(),
                b: "4".to_string(),
            },
            RegisterDiff {
                cell: Some(CellId::new(1, 2)),
                register: "dist",
                a: "∞".to_string(),
                b: "2".to_string(),
            },
        ];
        let table = render_diff_table(&diffs);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("cell"));
        assert!(lines[1].contains("next_entity_id"));
        assert!(lines[2].contains("⟨1, 2⟩"));
    }
}
