//! Per-layer timings of the control plane: the hetero load mix at five
//! times its arrival rate, replayed as a batch through the FPM-aware,
//! degraded, journaled service on the virtual backend. Arrivals live on
//! the service's virtual clock, so no job waits on the generator; all
//! wall time is the control plane's. No kernel runs.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use summagen_bench::degradecmd::{degrade_config, DEGRADE_FAIL_PERMILLE};
use summagen_bench::servecmd::{SERVE_ALPHA, SERVE_BETA};
use summagen_comm::SpanKind;
use summagen_durable::{decode_frames, replay, GroupCommitConfig, Journal, JournalRecord};
use summagen_metrics::MetricsRegistry;
use summagen_platform::profile::hclserver1;
use summagen_platform::Platform;
use summagen_service::{
    generate, hetero_mix, plan, DevicePool, DurableRun, FaultProfile, GemmService, JobSpec, Policy,
    ServiceConfig, ServiceMetrics, ServiceReport,
};

use crate::sink::WallSink;
use crate::stats::{derive_seed, mean, median_secs, quantile, ratio, timed, Report};

/// Multiple of the hetero mix's tuned arrival rate.
const LOAD_FACTOR: f64 = 5.0;

/// Seeded streams replayed. The schedule-quality figures pool exactly
/// these, so they repeat for a given seed.
const STREAMS: u64 = 4;

struct Stream {
    jobs: Vec<JobSpec>,
    config: ServiceConfig,
}

struct Setup {
    platform: Platform,
    streams: Vec<Stream>,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let platform = hclserver1();
        let streams = (0..STREAMS)
            .map(|i| {
                let mut mix = hetero_mix();
                mix.arrival_rate *= LOAD_FACTOR;
                mix.seed = derive_seed(seed, 2 * i);
                let config = ServiceConfig {
                    policy: Policy::FpmAware,
                    faults: FaultProfile {
                        fail_permille: DEGRADE_FAIL_PERMILLE,
                        seed: derive_seed(seed, 2 * i + 1),
                        ..FaultProfile::default()
                    },
                    degrade: degrade_config(),
                    ..ServiceConfig::default()
                };
                Stream {
                    jobs: generate(&mix),
                    config,
                }
            })
            .collect();
        Self { platform, streams }
    }

    fn pool(&self) -> DevicePool {
        DevicePool::from_platform(&self.platform, SERVE_ALPHA, SERVE_BETA)
    }
}

/// One journaled replay's outputs.
struct Replayed {
    report: ServiceReport,
    journal: Journal,
}

/// Replays `stream` through a fresh journaled service, returning the
/// replay and its wall seconds (pool and service construction excluded).
fn replay_durable(
    setup: &Setup,
    stream: &Stream,
    sink: Option<&Arc<WallSink>>,
) -> Result<(Replayed, f64), String> {
    let pool = setup.pool();
    let devices: Vec<&'static str> = pool.devices().iter().map(|d| d.name).collect();
    let jobs = stream.jobs.clone();
    let mut service = GemmService::new(pool, stream.config);
    if let Some(sink) = sink {
        let registry = Arc::new(MetricsRegistry::new());
        let tenants = hetero_mix().tenant_names();
        service = service
            .with_metrics(ServiceMetrics::register(&registry, &tenants, &devices))
            .with_sink(sink.clone());
    }
    let (run, secs) =
        timed(|| service.run_durable(jobs, Journal::new(GroupCommitConfig::default()), None));
    match run {
        DurableRun::Finished(rep) => Ok((
            Replayed {
                report: rep.report,
                journal: rep.journal,
            },
            secs,
        )),
        DurableRun::Crashed(_) => Err("journaled run crashed with no crash armed".into()),
    }
}

/// Job conservation: completed + failed + rejected + shed = offered, with
/// every offered job ending exactly once, as a record (completed or
/// failed) or a rejection (shed included).
fn conserved(jobs: &[JobSpec], report: &ServiceReport) -> bool {
    let ids: Vec<u64> = report
        .records
        .iter()
        .map(|r| r.spec.id)
        .chain(report.rejections.iter().map(|(j, _)| j.id))
        .collect();
    let unique: BTreeSet<u64> = ids.iter().copied().collect();
    let offered: BTreeSet<u64> = jobs.iter().map(|j| j.id).collect();
    ids.len() == jobs.len() && unique == offered
}

/// Schedule quality on the virtual clock, pooled over streams.
#[derive(Default)]
struct Quality {
    offered: usize,
    latencies: Vec<f64>,
    deadline_jobs: usize,
    deadline_met: usize,
    rejected: usize,
    failed: usize,
}

impl Quality {
    fn add(&mut self, jobs: &[JobSpec], report: &ServiceReport) {
        self.offered += jobs.len();
        self.latencies
            .extend(report.records.iter().map(|r| r.latency()));
        // A rejected or shed deadline job counts as a miss.
        self.deadline_jobs += jobs.iter().filter(|j| j.deadline.is_some()).count();
        self.deadline_met += report
            .records
            .iter()
            .filter(|r| r.spec.deadline.is_some() && !r.missed_deadline())
            .count();
        self.rejected += report.rejections.len();
        self.failed += report.failed();
    }
}

/// The `service.*` and `durable.*` per-layer metrics. Whole rotations
/// over the streams replay each one untraced and then traced into a
/// [`WallSink`] (with a metrics bundle attached) for half of `seconds`;
/// the single-layer timings follow.
pub fn layer_metrics(seed: u64, seconds: f64) -> Result<Report, String> {
    let setup = Setup::new(seed);
    let streams = &setup.streams;
    let sink = WallSink::new();
    let mut report = Report::default();
    let mut quality = Quality::default();
    let (mut spans, mut sched, mut gemm) = (0u64, 0u64, 0u64);
    let mut first: Vec<Replayed> = Vec::new();
    let start = Instant::now();
    let mut rotations = 0;
    while rotations == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for stream in streams {
            let (r, _) = replay_durable(&setup, stream, None)?;
            let (t, _) = replay_durable(&setup, stream, Some(&sink))?;
            report.attempted += 2;
            report.failed += u64::from(!conserved(&stream.jobs, &r.report));
            report.failed += u64::from(
                !conserved(&stream.jobs, &t.report)
                    || t.report.schedule_digest != r.report.schedule_digest,
            );
            for s in sink.drain() {
                spans += 1;
                match s.kind {
                    SpanKind::Sched { .. } => sched += 1,
                    SpanKind::Gemm { .. } => gemm += 1,
                    _ => {}
                }
            }
            if rotations == 0 {
                quality.add(&stream.jobs, &r.report);
                first.push(r);
            }
        }
        rotations += 1;
    }
    let replays = (rotations * streams.len()) as f64;
    let journal_off: Vec<f64> = streams
        .iter()
        .map(|s| {
            let mut service = GemmService::new(setup.pool(), s.config);
            let jobs = s.jobs.clone();
            timed(|| service.run(jobs)).1
        })
        .collect();
    let plan_us: Vec<f64> = streams
        .iter()
        .map(|s| {
            let mut pool = setup.pool();
            let secs = timed(|| {
                for job in &s.jobs {
                    std::hint::black_box(plan(Policy::FpmAware, &mut pool, job, job.submit_time));
                }
            })
            .1;
            secs / s.jobs.len() as f64 * 1e6
        })
        .collect();
    let per_stream = |f: &dyn Fn(&Replayed) -> f64| mean(&first.iter().map(f).collect::<Vec<_>>());
    report.set("service.plan_us", mean(&plan_us));
    report.set("service.run_wall_s_journal_off", mean(&journal_off));
    report.set("service.batches", per_stream(&|r| r.report.batches as f64));
    report.set(
        "service.peak_queue_depth",
        per_stream(&|r| r.report.peak_queue_depth as f64),
    );
    report.set("service.retries", per_stream(&|r| r.report.retries as f64));
    report.set(
        "service.preemptions",
        per_stream(&|r| r.report.preemptions as f64),
    );
    report.set("service.virt_p95_s", quantile(&quality.latencies, 0.95));
    report.set(
        "service.deadline_hit_rate",
        ratio(quality.deadline_met as f64, quality.deadline_jobs as f64),
    );
    report.set(
        "service.rejected_share",
        ratio(quality.rejected as f64, quality.offered as f64),
    );
    report.set(
        "service.failed_share",
        ratio(quality.failed as f64, quality.offered as f64),
    );
    report.set("service.sched_spans", sched as f64 / replays);
    let mut append_us = Vec::new();
    let mut replay_ms = Vec::new();
    for r in &first {
        let records: Vec<JournalRecord> = decode_frames(r.journal.durable())
            .payloads
            .iter()
            .map(|p| JournalRecord::decode(p).ok_or("undecodable journal record"))
            .collect::<Result<_, _>>()?;
        let secs = median_secs(5, || {
            let mut fresh = Journal::new(r.journal.config());
            for rec in &records {
                fresh.append(rec.instant(), rec);
                fresh.maybe_flush(rec.instant());
            }
            std::hint::black_box(fresh);
        });
        append_us.push(secs / records.len().max(1) as f64 * 1e6);
        replay_ms.push(
            median_secs(5, || {
                std::hint::black_box(replay(r.journal.durable()));
            }) * 1e3,
        );
    }
    let jobs = streams[0].jobs.len() as f64;
    report.set("durable.append_us", mean(&append_us));
    report.set("durable.replay_ms", mean(&replay_ms));
    report.set(
        "durable.bytes_per_job",
        per_stream(&|r| r.journal.durable_bytes() as f64 / jobs),
    );
    report.set(
        "durable.fsyncs",
        per_stream(&|r| r.journal.stats().fsyncs as f64),
    );
    report.note(format!(
        "control plane: {rotations} rotation(s) of {} streams of {} jobs, each replayed untraced and traced; \
         {spans} spans received, {gemm} of them kernel calls",
        streams.len(),
        streams[0].jobs.len()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_conserve_jobs_and_repeat_their_schedule() {
        let setup = Setup::new(4);
        let stream = &setup.streams[0];
        let (first, _) = replay_durable(&setup, stream, None).expect("replay finishes");
        let (again, _) = replay_durable(&setup, stream, None).expect("replay finishes");
        assert!(conserved(&stream.jobs, &first.report));
        assert_eq!(first.report.schedule_digest, again.report.schedule_digest);
        let mut lost = first.report;
        lost.rejections.pop();
        assert!(!conserved(&stream.jobs, &lost));
    }
}
