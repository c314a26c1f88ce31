//! The `reproduce crash` subcommand: crash/restart recovery and
//! exactly-once completion under a seeded kill-point ladder.
//!
//! The same tenant stream runs twice per seed over the hclserver1 pool
//! with seeded device faults at [`CRASH_LOAD_FACTOR`]× the mix's tuned
//! arrival rate:
//!
//! * the *control* — one journaled epoch, no crash injector, draining
//!   the whole stream; and
//! * the *ladder* — [`CRASH_CYCLES`] epochs each killed at a seeded
//!   kill point ([`CrashSpec::draw`]: at-admission, mid-batch,
//!   mid-append with a torn durable tail, or mid-checkpoint), each
//!   restart reopening the torn journal and resubmitting the *entire*
//!   stream, followed by one crash-free epoch that drains the rest.
//!
//! Replaying both final journals must agree exactly: the same
//! idempotency keys completed, with bit-identical result digests, and
//! the same keys failed — exactly-once despite 25 crashes and 26 full
//! resubmissions of every job.
//!
//! Artifacts, all under the output directory:
//!
//! * `CRASH_<mix>.json` — schema-stamped document: the per-cycle kill
//!   ladder (kind, event counter, virtual instant, recovery stats, torn
//!   bytes truncated at reopen) and the control-vs-ladder ledger. No
//!   wall-clock times anywhere: the same seed reproduces the document
//!   byte-for-byte.
//! * `CRASH_<mix>.prom` — Prometheus exposition of the final recovery
//!   epoch (journal fsync/record/torn-byte series, recovery counters).
//! * `SCHEDULE_CRASH_<mix>.json` — Perfetto timeline of the final epoch;
//!   the `Recover` span sits at rank 0 before the first batch.
//!
//! The command exits nonzero unless, for every seed:
//!
//! * all [`CRASH_CYCLES`] armed cycles actually crashed (no fizzled
//!   kill points);
//! * both runs drain every submitted job to a durable terminal record
//!   (nothing lost, nothing rejected under the ample crash-harness
//!   admission bounds);
//! * ladder and control completed/failed key sets and per-job digests
//!   are identical (exactly-once);
//! * at least one cycle tore the durable tail and recovery truncated it
//!   (the torn-tail path is exercised, not just available);
//! * replay stays bounded: the final journal holds at most the
//!   control's records plus a small per-cycle constant — duplicate
//!   resubmissions are suppressed *without* journaling them; and
//! * the artifact seed's whole ladder, rerun from scratch, reproduces
//!   the `CRASH_<mix>.json` document exactly.

use std::path::Path;

use summagen_durable::{
    decode_frames, replay, CrashKind, CrashSpec, GroupCommitConfig, Journal, RecoveredState,
    TerminalRecord,
};
use summagen_service::{
    generate, AdmissionConfig, DurableRun, FaultProfile, GemmService, LoadMix, Policy,
    RecoveryStats, ServiceConfig, ServiceReport,
};
use summagen_trace::perfetto_json;

use crate::degradecmd::scaled_mix;
use crate::harness::{chaos_seeds, write_artifacts};
use crate::json::{with_metadata, Json};
use crate::servecmd::{instrumented_service, service_pool, SERVE_ALPHA, SERVE_BETA};

/// Arrival-rate multiplier of the crash runs: the gated stampede factor
/// of the degrade sweep, so crashes land while queues are deep.
pub const CRASH_LOAD_FACTOR: f64 = 5.0;

/// Armed crash/restart cycles per seed (a final crash-free epoch drains
/// whatever remains).
pub const CRASH_CYCLES: u64 = 25;

/// Upper bound of the drawn kill-point event counter. Small on purpose:
/// each epoch dies young, so durable progress per cycle stays a handful
/// of records and fresh admissions persist deep into the ladder (an
/// at-admission kill point always finds one to fire on).
pub const CRASH_MAX_EVENT: u64 = 24;

/// Per-attempt device-failure probability, in permille — same
/// aggressive setting as the degrade harness, so recovery replays
/// failures as well as completions.
pub const CRASH_FAIL_PERMILLE: u16 = 250;

/// Base crash seed; the CI crash matrix widens it with one extra seed
/// per job via `SUMMAGEN_CHAOS_SEED`.
pub const CRASH_BASE_SEEDS: [u64; 1] = [7];

/// Bounded-replay slack: beyond the control's record count, each crash
/// cycle may durably add at most this many records (an epoch-start
/// marker plus whatever flushed before the kill point, which
/// [`CRASH_MAX_EVENT`] keeps far below this).
pub const CRASH_REPLAY_SLACK_PER_CYCLE: usize = 64;

/// Service config of the crash harness. Admission bounds are ample on
/// purpose: the exactly-once gates compare terminal ledgers between the
/// ladder and the control, which is only meaningful when *every* job
/// reaches a durable terminal record in both — a capacity rejection
/// that fires in one schedule but not the other would make the ledgers
/// incomparable for reasons that have nothing to do with durability.
pub fn crash_config(fault_seed: u64) -> ServiceConfig {
    ServiceConfig {
        policy: Policy::FpmAware,
        admission: AdmissionConfig {
            queue_capacity: 1 << 20,
            per_tenant_quota: 1 << 20,
            ..AdmissionConfig::default()
        },
        faults: FaultProfile {
            fail_permille: CRASH_FAIL_PERMILLE,
            seed: fault_seed,
            ..FaultProfile::default()
        },
        ..ServiceConfig::default()
    }
}

/// One armed cycle of the ladder: the kill point that fired and what
/// the restart found.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// What the crash did.
    pub kind: CrashKind,
    /// Journal-event counter value at the kill point.
    pub event: u64,
    /// Virtual instant the crash hit.
    pub at: f64,
    /// What recovery found when this (doomed) epoch started.
    pub recovery: RecoveryStats,
    /// Torn tail bytes truncated when reopening the journal *after*
    /// this crash. Measured at reopen — `Journal::reopen` discards the
    /// torn tail, so a later replay of the reopened journal sees none.
    pub torn_at_reopen: usize,
}

/// The whole ladder for one seed: every armed cycle plus the final
/// crash-free drain.
pub struct CrashLadder {
    /// The armed cycles, in order; every one crashed.
    pub cycles: Vec<CycleOutcome>,
    /// What the final (crash-free) epoch's recovery found.
    pub final_recovery: RecoveryStats,
    /// The final epoch's service report (that epoch's records only).
    pub final_report: ServiceReport,
    /// Replay of the final journal: the durable terminal ledger.
    pub state: RecoveredState,
    /// Prometheus exposition rendered after the final epoch.
    pub exposition: String,
    /// Perfetto timeline of the final epoch (carries the Recover span).
    pub perfetto: String,
}

/// The crash-free control for the same stream and seed.
pub struct ControlRun {
    /// Replay of the control journal: the expected terminal ledger.
    pub state: RecoveredState,
    /// The control epoch's service report.
    pub report: ServiceReport,
}

/// Runs the control: one journaled epoch, no crashes, whole stream.
pub fn run_control(mix: &LoadMix, seed: u64) -> Result<ControlRun, String> {
    let jobs = generate(mix);
    let mut service = GemmService::new(service_pool(), crash_config(seed));
    match service.run_durable(jobs, Journal::new(GroupCommitConfig::default()), None) {
        DurableRun::Finished(rep) => Ok(ControlRun {
            state: replay(rep.journal.durable()).state,
            report: rep.report,
        }),
        DurableRun::Crashed(_) => Err(format!(
            "seed {seed}: control run crashed with no injector armed"
        )),
    }
}

/// Runs the kill-point ladder: `cycles` armed epochs (each must crash),
/// then one crash-free epoch that drains the rest. Every epoch
/// resubmits the entire stream — recovery must suppress the duplicates.
pub fn run_ladder(
    mix: &LoadMix,
    seed: u64,
    cycles: u64,
    max_event: u64,
) -> Result<CrashLadder, String> {
    let jobs = generate(mix);
    let mut journal = Journal::new(GroupCommitConfig::default());
    let mut outcomes = Vec::new();
    for cycle in 0..cycles {
        let spec = CrashSpec::draw(seed, cycle, max_event);
        let mut service = GemmService::new(service_pool(), crash_config(seed));
        match service.recover(journal, jobs.clone(), Some(spec)) {
            DurableRun::Finished(_) => {
                return Err(format!(
                    "seed {seed}, cycle {cycle}: kill point {:?} fizzled — epoch ran to completion",
                    spec.kind
                ));
            }
            DurableRun::Crashed(c) => {
                let (bytes, _) = c.journal.into_durable();
                let decode = decode_frames(&bytes);
                outcomes.push(CycleOutcome {
                    cycle,
                    kind: c.kind,
                    event: c.event,
                    at: c.at,
                    recovery: c.recovery,
                    torn_at_reopen: bytes.len() - decode.valid_bytes,
                });
                journal = Journal::reopen(bytes, decode.valid_bytes, GroupCommitConfig::default());
            }
        }
    }

    // The final epoch drains crash-free, instrumented for the artifacts.
    let (mut service, registry, recorder) = instrumented_service(mix, crash_config(seed));
    match service.recover(journal, jobs, None) {
        DurableRun::Finished(rep) => Ok(CrashLadder {
            cycles: outcomes,
            final_recovery: rep.recovery,
            state: replay(rep.journal.durable()).state,
            final_report: rep.report,
            exposition: summagen_metrics::prometheus::render(&registry),
            perfetto: perfetto_json(
                &recorder.finish(),
                &format!("{} final recovery epoch schedule", mix.name),
            ),
        }),
        DurableRun::Crashed(c) => Err(format!(
            "seed {seed}: final drain crashed with no injector armed ({:?} at event {})",
            c.kind, c.event
        )),
    }
}

/// FNV-1a over the sorted terminal ledger — one number that pins which
/// keys reached which terminal digest.
pub fn ledger_digest(terminal: &std::collections::BTreeMap<u64, TerminalRecord>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (key, rec) in terminal {
        word(*key);
        word(rec.digest);
    }
    h
}

/// Every submitted job reached a durable terminal record, and none were
/// rejected: the precondition for comparing terminal ledgers.
fn check_drained(
    mix: &LoadMix,
    state: &RecoveredState,
    jobs: usize,
    what: &str,
) -> Result<(), String> {
    if !state.rejected.is_empty() {
        return Err(format!(
            "{what}: {} durable rejections under ample admission bounds",
            state.rejected.len()
        ));
    }
    let terminal = state.completed.len() + state.failed.len();
    if terminal != jobs {
        return Err(format!(
            "{what}: mix '{}' submitted {jobs} jobs but only {terminal} are durably terminal \
             ({} completed, {} failed)",
            mix.name,
            state.completed.len(),
            state.failed.len()
        ));
    }
    if !state.queued.is_empty() || !state.in_flight.is_empty() {
        return Err(format!(
            "{what}: drained journal still holds {} queued and {} in-flight jobs",
            state.queued.len(),
            state.in_flight.len()
        ));
    }
    Ok(())
}

/// Exactly-once: ladder and control agree on which keys completed (with
/// bit-identical digests) and which failed.
fn check_exactly_once(
    ladder: &RecoveredState,
    control: &RecoveredState,
    what: &str,
) -> Result<(), String> {
    for (label, got, want) in [
        ("completed", &ladder.completed, &control.completed),
        ("failed", &ladder.failed, &control.failed),
    ] {
        let got_keys: Vec<u64> = got.keys().copied().collect();
        let want_keys: Vec<u64> = want.keys().copied().collect();
        if got_keys != want_keys {
            return Err(format!(
                "{what}: {label} key sets diverge — ladder has {} keys, control {}",
                got_keys.len(),
                want_keys.len()
            ));
        }
        for (key, rec) in got {
            let expect = &want[key];
            if rec.digest != expect.digest {
                return Err(format!(
                    "{what}: {label} job {} (key {key:016x}) digest {:016x} != control {:016x}",
                    rec.job, rec.digest, expect.digest
                ));
            }
        }
    }
    Ok(())
}

/// The acceptance gates for one seed's ladder against its control.
pub fn gate(
    mix: &LoadMix,
    seed: u64,
    cycles: u64,
    ladder: &CrashLadder,
    control: &ControlRun,
) -> Result<(), String> {
    let what = format!("seed {seed}");
    let jobs = mix.jobs;
    if ladder.cycles.len() as u64 != cycles {
        return Err(format!(
            "{what}: only {} of {cycles} armed cycles crashed",
            ladder.cycles.len()
        ));
    }
    check_drained(mix, &control.state, jobs, &format!("{what} control"))?;
    check_drained(mix, &ladder.state, jobs, &format!("{what} ladder"))?;
    check_exactly_once(&ladder.state, &control.state, &what)?;
    let torn_cycles = ladder
        .cycles
        .iter()
        .filter(|c| c.torn_at_reopen > 0)
        .count();
    if torn_cycles == 0 {
        return Err(format!(
            "{what}: no cycle tore the durable tail — the torn-tail recovery path went unexercised"
        ));
    }
    let bound = control.state.records + cycles as usize * CRASH_REPLAY_SLACK_PER_CYCLE;
    if ladder.state.records > bound {
        return Err(format!(
            "{what}: replay unbounded — final journal holds {} records, control {} \
             (bound {bound}); duplicate resubmissions are leaking into the log",
            ladder.state.records, control.state.records
        ));
    }
    Ok(())
}

fn cycle_json(c: &CycleOutcome) -> Json {
    Json::obj([
        ("cycle", Json::from(c.cycle as usize)),
        ("kind", Json::from(c.kind.label())),
        ("event", Json::from(c.event as usize)),
        ("at_s", Json::from(c.at)),
        ("epoch", Json::from(c.recovery.epoch as usize)),
        ("resume_clock_s", Json::from(c.recovery.resume_clock)),
        ("replayed_records", Json::from(c.recovery.replayed_records)),
        ("recovered_jobs", Json::from(c.recovery.recovered_jobs)),
        (
            "resumed_from_checkpoint",
            Json::from(c.recovery.resumed_from_checkpoint),
        ),
        (
            "suppressed_duplicates",
            Json::from(c.recovery.suppressed_duplicates),
        ),
        ("torn_bytes_at_replay", Json::from(c.recovery.torn_bytes)),
        ("torn_bytes_at_reopen", Json::from(c.torn_at_reopen)),
    ])
}

fn ledger_json(state: &RecoveredState) -> Json {
    Json::obj([
        ("completed", Json::from(state.completed.len())),
        ("failed", Json::from(state.failed.len())),
        ("rejected", Json::from(state.rejected.len())),
        ("records", Json::from(state.records)),
        ("epochs", Json::from(state.epochs as usize)),
        (
            "completed_digest",
            Json::from(format!("{:016x}", ledger_digest(&state.completed))),
        ),
        (
            "failed_digest",
            Json::from(format!("{:016x}", ledger_digest(&state.failed))),
        ),
    ])
}

/// The crash document: the kill ladder next to the control ledger.
/// Virtual clocks only — no wall times — so the same seed reproduces it
/// byte-for-byte.
pub fn crash_json(mix: &LoadMix, seed: u64, ladder: &CrashLadder, control: &ControlRun) -> Json {
    let torn_total: usize = ladder.cycles.iter().map(|c| c.torn_at_reopen).sum();
    let doc = Json::obj([
        ("mix", Json::from(mix.name)),
        ("cycles", Json::arr(ladder.cycles.iter().map(cycle_json))),
        (
            "final_epoch",
            Json::obj([
                ("epoch", Json::from(ladder.final_recovery.epoch as usize)),
                (
                    "resume_clock_s",
                    Json::from(ladder.final_recovery.resume_clock),
                ),
                (
                    "replayed_records",
                    Json::from(ladder.final_recovery.replayed_records),
                ),
                (
                    "recovered_jobs",
                    Json::from(ladder.final_recovery.recovered_jobs),
                ),
                (
                    "resumed_from_checkpoint",
                    Json::from(ladder.final_recovery.resumed_from_checkpoint),
                ),
                (
                    "suppressed_duplicates",
                    Json::from(ladder.final_recovery.suppressed_duplicates),
                ),
                ("makespan_s", Json::from(ladder.final_report.makespan)),
                (
                    "schedule_digest",
                    Json::from(format!("{:016x}", ladder.final_report.schedule_digest)),
                ),
            ]),
        ),
        ("ladder_ledger", ledger_json(&ladder.state)),
        ("control_ledger", ledger_json(&control.state)),
        (
            "gates",
            Json::obj([
                ("crashes", Json::from(ladder.cycles.len())),
                (
                    "torn_cycles",
                    Json::from(
                        ladder
                            .cycles
                            .iter()
                            .filter(|c| c.torn_at_reopen > 0)
                            .count(),
                    ),
                ),
                ("torn_bytes_total", Json::from(torn_total)),
                (
                    "replay_bound",
                    Json::from(
                        control.state.records + ladder.cycles.len() * CRASH_REPLAY_SLACK_PER_CYCLE,
                    ),
                ),
            ]),
        ),
    ]);
    with_metadata(
        doc,
        Json::obj([
            (
                "command",
                Json::from(format!("reproduce crash --mix {}", mix.name)),
            ),
            ("seed", Json::from(mix.seed)),
            ("crash_seed", Json::from(seed)),
            ("cycles", Json::from(CRASH_CYCLES as usize)),
            ("max_event", Json::from(CRASH_MAX_EVENT as usize)),
            ("load_factor", Json::from(CRASH_LOAD_FACTOR)),
            ("fail_permille", Json::from(CRASH_FAIL_PERMILLE as usize)),
            ("jobs", Json::from(mix.jobs)),
            ("alpha_s", Json::from(SERVE_ALPHA)),
            ("beta_s_per_byte", Json::from(SERVE_BETA)),
        ]),
    )
}

fn print_ladder(mix: &LoadMix, seed: u64, ladder: &CrashLadder, control: &ControlRun) {
    println!(
        "\nCRASH — kill-point ladder, mix '{}' ({} jobs at {}x, seed {}, {}‰ faults)",
        mix.name, mix.jobs, CRASH_LOAD_FACTOR, seed, CRASH_FAIL_PERMILLE
    );
    println!(
        "{:>6}{:>16}{:>7}{:>10}{:>9}{:>11}{:>12}{:>7}",
        "cycle", "kind", "event", "at", "replayed", "recovered", "suppressed", "torn"
    );
    for c in &ladder.cycles {
        println!(
            "{:>6}{:>16}{:>7}{:>10.3}{:>9}{:>11}{:>12}{:>7}",
            c.cycle,
            c.kind.label(),
            c.event,
            c.at,
            c.recovery.replayed_records,
            c.recovery.recovered_jobs,
            c.recovery.suppressed_duplicates,
            c.torn_at_reopen,
        );
    }
    println!(
        "  final epoch {}: replayed {} records, recovered {} jobs, suppressed {} duplicates",
        ladder.final_recovery.epoch,
        ladder.final_recovery.replayed_records,
        ladder.final_recovery.recovered_jobs,
        ladder.final_recovery.suppressed_duplicates,
    );
    println!(
        "  ledger: ladder {}+{} vs control {}+{} (completed+failed), \
         digests {:016x}/{:016x} vs {:016x}/{:016x}",
        ladder.state.completed.len(),
        ladder.state.failed.len(),
        control.state.completed.len(),
        control.state.failed.len(),
        ledger_digest(&ladder.state.completed),
        ledger_digest(&ladder.state.failed),
        ledger_digest(&control.state.completed),
        ledger_digest(&control.state.failed),
    );
    println!(
        "  journal: ladder {} records over {} epochs vs control {} in one",
        ladder.state.records, ladder.state.epochs, control.state.records,
    );
}

/// Runs the crash experiment for `mix`, artifacts into `out_dir`.
/// The artifacts use the base seed; the gates additionally cover every
/// folded chaos seed, and the artifact seed's ladder is rerun from
/// scratch to pin the document's reproducibility.
pub fn run_crash(mix: &LoadMix, out_dir: &Path) -> Result<(), String> {
    let scaled = scaled_mix(mix, CRASH_LOAD_FACTOR);
    let seeds = chaos_seeds(&CRASH_BASE_SEEDS);
    let artifact_seed = seeds[0];

    let mut artifact: Option<(CrashLadder, ControlRun)> = None;
    for &seed in &seeds {
        let control = run_control(&scaled, seed)?;
        let ladder = run_ladder(&scaled, seed, CRASH_CYCLES, CRASH_MAX_EVENT)?;
        print_ladder(&scaled, seed, &ladder, &control);
        gate(&scaled, seed, CRASH_CYCLES, &ladder, &control)?;
        if seed == artifact_seed {
            artifact = Some((ladder, control));
        }
    }
    let (ladder, control) = artifact.expect("artifact seed is always in the grid");

    // Reproducibility: the whole ladder again, same seed, compared at
    // the document level (the artifact the seed promises to pin).
    let doc = crash_json(&scaled, artifact_seed, &ladder, &control);
    let again = run_ladder(&scaled, artifact_seed, CRASH_CYCLES, CRASH_MAX_EVENT)?;
    let again_doc = crash_json(&scaled, artifact_seed, &again, &control);
    if doc != again_doc {
        return Err(format!(
            "seed {artifact_seed}: ladder rerun does not reproduce CRASH_{}.json — \
             the crash document is not a pure function of the seed",
            scaled.name
        ));
    }
    println!("  rerun with seed {artifact_seed}: document reproduced byte-for-byte");

    write_artifacts(
        out_dir,
        &[
            (format!("CRASH_{}.json", scaled.name), &doc.pretty()),
            (format!("CRASH_{}.prom", scaled.name), &ladder.exposition),
            (
                format!("SCHEDULE_CRASH_{}.json", scaled.name),
                &ladder.perfetto,
            ),
        ],
    )?;
    println!("crash artifacts written to {}", out_dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_service::small_mix;

    /// A mix small enough to ladder in test time but busy enough that
    /// no drawn kill point can fizzle.
    fn tiny_mix() -> LoadMix {
        let mut mix = scaled_mix(&small_mix(), CRASH_LOAD_FACTOR);
        mix.jobs = 120;
        mix
    }

    const TINY_CYCLES: u64 = 6;

    #[test]
    fn a_short_ladder_is_exactly_once_against_its_control() {
        let mix = tiny_mix();
        let control = run_control(&mix, 7).unwrap();
        let ladder = run_ladder(&mix, 7, TINY_CYCLES, 12).unwrap();
        gate_without_torn(&mix, 7, TINY_CYCLES, &ladder, &control).unwrap();
    }

    /// The full gate minus the torn-tail requirement: a six-cycle
    /// ladder is not guaranteed to draw a mid-append kill.
    fn gate_without_torn(
        mix: &LoadMix,
        seed: u64,
        cycles: u64,
        ladder: &CrashLadder,
        control: &ControlRun,
    ) -> Result<(), String> {
        match gate(mix, seed, cycles, ladder, control) {
            Err(e) if e.contains("torn-tail recovery path went unexercised") => Ok(()),
            other => other,
        }
    }

    #[test]
    fn the_ladder_reproduces_its_document_from_the_seed() {
        let mix = tiny_mix();
        let control = run_control(&mix, 11).unwrap();
        let a = run_ladder(&mix, 11, TINY_CYCLES, 12).unwrap();
        let b = run_ladder(&mix, 11, TINY_CYCLES, 12).unwrap();
        let doc_a = crash_json(&mix, 11, &a, &control);
        let doc_b = crash_json(&mix, 11, &b, &control);
        assert_eq!(doc_a, doc_b);
        assert_eq!(Json::parse(&doc_a.pretty()).unwrap(), doc_a);
        let cycles = doc_a.get("cycles").and_then(Json::as_arr).unwrap();
        assert_eq!(cycles.len(), TINY_CYCLES as usize);
        for c in cycles {
            assert!(c.get("kind").and_then(Json::as_str).is_some());
            assert!(c
                .get("torn_bytes_at_reopen")
                .and_then(Json::as_f64)
                .is_some());
        }
        assert_eq!(
            doc_a.path("run_config.crash_seed").and_then(Json::as_f64),
            Some(11.0)
        );
    }

    #[test]
    fn the_final_epoch_carries_recovery_series_and_a_recover_span() {
        let mix = tiny_mix();
        let ladder = run_ladder(&mix, 7, 2, 12).unwrap();
        assert!(
            ladder
                .exposition
                .contains("summagen_service_recoveries_total"),
            "{}",
            ladder.exposition
        );
        assert!(
            ladder
                .exposition
                .contains("summagen_service_journal_records_total"),
            "{}",
            ladder.exposition
        );
        assert!(ladder.perfetto.contains("recover"), "{}", ladder.perfetto);
    }

    #[test]
    fn every_armed_cycle_crashes_and_restarts_suppress_duplicates() {
        let mix = tiny_mix();
        let ladder = run_ladder(&mix, 3, TINY_CYCLES, 12).unwrap();
        assert_eq!(ladder.cycles.len(), TINY_CYCLES as usize);
        // From the second cycle on, the full-stream resubmission hits a
        // journal that already knows keys: duplicates get suppressed.
        assert!(
            ladder.cycles[1..]
                .iter()
                .any(|c| c.recovery.suppressed_duplicates > 0),
            "no restart suppressed any duplicate resubmission"
        );
        assert!(ladder.final_recovery.suppressed_duplicates > 0);
    }

    #[test]
    fn chaos_seed_env_widens_the_grid() {
        let seeds = chaos_seeds(&CRASH_BASE_SEEDS);
        assert!(seeds.contains(&CRASH_BASE_SEEDS[0]));
    }
}
