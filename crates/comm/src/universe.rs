//! The [`Universe`]: spawns one OS thread per rank and hands each a root
//! [`Communicator`], the analogue of `MPI_COMM_WORLD`.
//!
//! Two entry points share the spawning machinery:
//!
//! * [`Universe::run`] — the historical infallible API: any rank panic
//!   propagates as a `"rank panicked"` panic at the call site.
//! * [`Universe::try_run`] — the fault-tolerant API: each rank's closure
//!   returns `Result<R, CommError>`, rank panics (including injected
//!   kills from a [`FaultPlan`]) are caught with `catch_unwind`, and the
//!   aggregate outcome is `Result<Vec<R>, RankFailure>`.
//!
//! When a rank dies under `try_run`, the *death-notice protocol* runs
//! before its thread exits: the rank's death flag is set, its inbox is
//! closed (senders fail fast), and a control envelope is posted to every
//! survivor so blocked receives wake up and observe the flag. Survivors
//! therefore see `CommError::PeerFailed` in milliseconds instead of
//! hanging until the receive timeout.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use crate::chan::channel;
use crate::clock::{CostModel, VirtualClock};
use crate::comm::{Communicator, Mailbox, Shared, TrafficStats};
use crate::error::{CommError, FailedRank, FailureCause, RankFailure};
use crate::fault::{FaultPlan, FaultState, InjectedHang, InjectedKill, LinkPlan, LinkState};
use crate::span::{EventSink, SpanKind, SpanRecord};
use crate::sync::Mutex;
use crate::tcp::TcpTransport;
use crate::transport::{Backend, ChannelTransport, Transport};
use summagen_metrics::RuntimeMetrics;

/// Default blocking-receive timeout: generous enough for real runs, small
/// enough that a deadlocked test suite still terminates. Overridable per
/// process via the `SUMMAGEN_RECV_TIMEOUT_MS` environment variable (CI
/// machines can be slow enough that chaos tests need more headroom).
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Environment variable holding the default receive timeout in
/// milliseconds. Read afresh by every [`Universe::new`]. A set-but-invalid
/// value is a configuration error, not a silent no-op: [`Universe::new`]
/// logs a warning and keeps [`DEFAULT_RECV_TIMEOUT`]; callers that want
/// the typed error use [`recv_timeout_from_env`].
pub const RECV_TIMEOUT_ENV: &str = "SUMMAGEN_RECV_TIMEOUT_MS";

/// A malformed runtime configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `SUMMAGEN_RECV_TIMEOUT_MS` was set but is not a positive integer
    /// number of milliseconds.
    InvalidRecvTimeout {
        /// The raw value found in the environment.
        value: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidRecvTimeout { value } => write!(
                f,
                "{RECV_TIMEOUT_ENV}={value:?} is not a positive integer millisecond count"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Reads the receive-timeout override from the environment.
///
/// Returns `Ok(None)` when [`RECV_TIMEOUT_ENV`] is unset, `Ok(Some(d))`
/// for a positive integer millisecond count, and a typed
/// [`ConfigError`] when the variable is set but unusable (unparseable,
/// zero, or non-UTF-8) — a set value the runtime would ignore is a
/// misconfiguration the caller should hear about.
pub fn recv_timeout_from_env() -> Result<Option<Duration>, ConfigError> {
    match std::env::var(RECV_TIMEOUT_ENV) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(ConfigError::InvalidRecvTimeout {
            value: v.to_string_lossy().into_owned(),
        }),
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Some(Duration::from_millis(ms))),
            _ => Err(ConfigError::InvalidRecvTimeout { value: v }),
        },
    }
}

fn default_recv_timeout() -> Duration {
    match recv_timeout_from_env() {
        Ok(Some(d)) => d,
        Ok(None) => DEFAULT_RECV_TIMEOUT,
        Err(e) => {
            // Warn once per process, not once per Universe: a sweep that
            // builds thousands of universes under a bad environment would
            // otherwise drown real diagnostics. Callers that must not
            // proceed on a bad value use `Universe::try_new`.
            static WARNED: Once = Once::new();
            WARNED.call_once(|| {
                eprintln!("warning: {e}; using default {DEFAULT_RECV_TIMEOUT:?}");
            });
            DEFAULT_RECV_TIMEOUT
        }
    }
}

/// Heartbeat failure-detector configuration
/// ([`Universe::with_heartbeat`]).
///
/// Every communication/compute hook stamps the calling rank's activity
/// clock and, at most once per `interval`, emits a heartbeat (a
/// zero-duration [`SpanKind::Heartbeat`] span plus a metrics tick). A
/// watchdog thread polls every `poll` and *suspects* a rank when its
/// stamp is older than `suspicion` while at least one peer has been
/// active within `suspicion / 2` — relative liveness, so a machine-wide
/// scheduler stall does not condemn everybody at once. If *every* rank
/// has been silent longer than `stall`, the watchdog breaks the deadlock
/// by suspecting the least-recently-active rank. A suspected rank is
/// marked dead through the same death-notice protocol an announced crash
/// uses, so peers observe `CommError::PeerFailed` either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Minimum wall-clock spacing between emitted heartbeats per rank.
    pub interval: Duration,
    /// Silence threshold past which a rank is suspected (given that
    /// peers are still live).
    pub suspicion: Duration,
    /// Whole-universe silence threshold for the stall watchdog.
    pub stall: Duration,
    /// Watchdog polling period.
    pub poll: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(25),
            suspicion: Duration::from_millis(400),
            stall: Duration::from_secs(10),
            poll: Duration::from_millis(10),
        }
    }
}

impl HeartbeatConfig {
    /// Sets the suspicion threshold (and scales the stall threshold to
    /// stay at least 4x the suspicion threshold).
    #[must_use]
    pub fn suspicion(mut self, suspicion: Duration) -> Self {
        self.suspicion = suspicion;
        if self.stall < suspicion * 4 {
            self.stall = suspicion * 4;
        }
        self
    }

    /// Sets the heartbeat emission interval.
    #[must_use]
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }
}

/// A set of `p` ranks sharing a communication fabric and a cost model.
///
/// ```
/// use summagen_comm::{Payload, Universe, ZeroCost};
///
/// let sums = Universe::new(3, ZeroCost).run(|mut comm| {
///     // Broadcast rank 0's data, then everyone sums their rank into it.
///     let v = comm.bcast(0, Payload::U64(vec![100])).into_u64();
///     v[0] + comm.rank() as u64
/// });
/// assert_eq!(sums, vec![100, 101, 102]);
/// ```
pub struct Universe {
    size: usize,
    cost: Arc<dyn CostModel>,
    traced: bool,
    recv_timeout: Duration,
    faults: Option<FaultPlan>,
    link: Option<LinkPlan>,
    heartbeat: Option<HeartbeatConfig>,
    sink: Option<Arc<dyn EventSink>>,
    metrics: Option<Arc<RuntimeMetrics>>,
    backend: Backend,
}

static UNIVERSE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Injected kills and hangs are expected panics; keep them out of stderr
/// so chaos sweeps don't bury real failures in noise. Installed once per
/// process, delegating everything else to the previous hook.
fn install_kill_silencer() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_some()
                || info.payload().downcast_ref::<InjectedHang>().is_some()
            {
                return;
            }
            previous(info);
        }));
    });
}

impl Universe {
    /// Creates a universe of `size` ranks using `cost` to price transfers.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize, cost: impl CostModel) -> Self {
        assert!(size > 0, "universe must have at least one rank");
        Self {
            size,
            cost: Arc::new(cost),
            traced: false,
            recv_timeout: default_recv_timeout(),
            faults: None,
            link: None,
            heartbeat: None,
            sink: None,
            metrics: None,
            backend: Backend::Channel,
        }
    }

    /// Like [`Universe::new`], but a set-and-unusable
    /// [`RECV_TIMEOUT_ENV`] value is a typed [`ConfigError`] instead of a
    /// warn-and-default. Use this where a misconfigured environment must
    /// stop the run rather than silently change its timeout behaviour.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn try_new(size: usize, cost: impl CostModel) -> Result<Self, ConfigError> {
        assert!(size > 0, "universe must have at least one rank");
        let recv_timeout = recv_timeout_from_env()?.unwrap_or(DEFAULT_RECV_TIMEOUT);
        Ok(Self {
            size,
            cost: Arc::new(cost),
            traced: false,
            recv_timeout,
            faults: None,
            link: None,
            heartbeat: None,
            sink: None,
            metrics: None,
            backend: Backend::Channel,
        })
    }

    /// Enables per-rank event tracing: every rank's clock records a
    /// [`crate::clock::TraceEvent`] timeline, retrievable through
    /// [`crate::Communicator::trace_snapshot`].
    pub fn traced(mut self, on: bool) -> Self {
        self.traced = on;
        self
    }

    /// Sets how long a blocking receive waits for a matching message
    /// before returning [`CommError::Timeout`] (default
    /// [`DEFAULT_RECV_TIMEOUT`]). Tests exercising deadlocks or dropped
    /// messages should set this to milliseconds.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "recv timeout must be positive");
        self.recv_timeout = timeout;
        self
    }

    /// Attaches a deterministic [`FaultPlan`] to the next run(s): kills,
    /// message drops/delays, and compute slowdowns fire at the plan's
    /// trigger points.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a seeded [`LinkPlan`]: sends in subsequent runs go over
    /// simulated lossy links (drop/duplicate/reorder/delay per wire
    /// attempt) with a stop-and-wait ARQ on the virtual clock, and any
    /// configured silent hangs fire. Without one (the default) the wire
    /// is perfectly reliable and send timing is unchanged.
    pub fn with_link_plan(mut self, plan: LinkPlan) -> Self {
        self.link = Some(plan);
        self
    }

    /// Enables the heartbeat failure detector (see [`HeartbeatConfig`]):
    /// ranks stamp activity and emit heartbeats, and a watchdog thread
    /// declares silent ranks dead via the death-notice protocol. This is
    /// what turns a *silent* hang — no panic, no death notice — into a
    /// typed `PeerFailed` at the survivors within the suspicion
    /// threshold.
    pub fn with_heartbeat(mut self, config: HeartbeatConfig) -> Self {
        self.heartbeat = Some(config);
        self
    }

    /// Installs a structured-event sink: every send, receive, collective,
    /// and rank death in subsequent runs is reported as a
    /// [`SpanRecord`]. Without a sink (the default) the instrumentation
    /// hooks cost a single branch each. `summagen-trace`'s `TraceRecorder`
    /// is the canonical sink.
    pub fn with_event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Installs an aggregate-metrics bundle: sends, receives, collectives,
    /// GEMMs, panel steps, and ABFT events in subsequent runs bump the
    /// bundle's wait-free counters and histograms
    /// (`summagen_metrics::RuntimeMetrics`). Without one (the default)
    /// every hook is a single branch, exactly like the event sink.
    pub fn with_metrics(mut self, metrics: Arc<RuntimeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Selects the wire between ranks (default [`Backend::Channel`]).
    ///
    /// [`Backend::Tcp`] routes every envelope through a length-prefixed
    /// frame on a loopback TCP socket. The lossy-link machinery is
    /// always engaged under TCP (a lossless [`LinkPlan`] is installed
    /// when none was given) so every data envelope carries a per-link
    /// sequence number — that is what lets the backend transparently
    /// reconnect and resend after a dropped connection without ever
    /// delivering a duplicate. A lossless plan's wire fate is always
    /// `Deliver` with unchanged arrival times, so virtual-clock results
    /// are bit-identical to the channel backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    #[allow(clippy::type_complexity)]
    fn build_shared(
        &self,
    ) -> (
        Arc<Shared>,
        Vec<crate::chan::Receiver<crate::message::Envelope>>,
    ) {
        let p = self.size;
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        // TCP always engages the lossy-link machinery (lossless by
        // default): the per-link sequence cursor is what makes the
        // backend's reconnect-and-resend safe, and a lossless plan's
        // wire fates and arrival times are identical to no plan at all.
        let link = match self.backend {
            Backend::Channel => self.link.clone(),
            Backend::Tcp => Some(self.link.clone().unwrap_or_default()),
        };
        let transport: Arc<dyn Transport> = match self.backend {
            Backend::Channel => Arc::new(ChannelTransport::new(senders)),
            Backend::Tcp => Arc::new(
                TcpTransport::start(
                    senders,
                    link.clone().unwrap_or_default(),
                    self.metrics.clone(),
                )
                .expect("bind loopback TCP universe"),
            ),
        };
        debug_assert_eq!(
            transport.name(),
            self.backend.name(),
            "transport implementation must match the configured backend"
        );
        let shared = Arc::new(Shared {
            transport,
            cost: Arc::clone(&self.cost),
            failed: (0..p).map(|_| AtomicBool::new(false)).collect(),
            fault: self.faults.clone().map(|plan| FaultState::new(plan, p)),
            recv_timeout: self.recv_timeout,
            sink: self.sink.clone(),
            send_seq: (0..p).map(|_| AtomicU64::new(0)).collect(),
            metrics: self.metrics.clone(),
            link: link.map(|plan| LinkState::new(plan, p)),
            link_send_seq: Mutex::new(HashMap::new()),
            link_held: Mutex::new(HashMap::new()),
            heartbeat: self.heartbeat,
            activity: (0..p).map(|_| AtomicU64::new(0)).collect(),
            hb_last: (0..p).map(|_| AtomicU64::new(0)).collect(),
            hb_seq: (0..p).map(|_| AtomicU64::new(0)).collect(),
            suspected: (0..p).map(|_| AtomicBool::new(false)).collect(),
            epoch: Instant::now(),
        });
        (shared, receivers)
    }

    /// One world communicator per rank, plus a handle on each rank's
    /// mailbox so the launcher can drain it after the rank has exited.
    #[allow(clippy::type_complexity)]
    fn build_comms(
        &self,
        shared: &Arc<Shared>,
        receivers: Vec<crate::chan::Receiver<crate::message::Envelope>>,
        world_id: u64,
    ) -> (Vec<Communicator>, Vec<Arc<Mutex<Mailbox>>>) {
        let group: Arc<Vec<usize>> = Arc::new((0..self.size).collect());
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                let mut clock = VirtualClock::new();
                if self.traced {
                    clock.enable_trace();
                }
                let mailbox = Arc::new(Mutex::new(Mailbox::new(rx)));
                let comm = Communicator::new(
                    world_id,
                    rank,
                    Arc::clone(&group),
                    Arc::clone(shared),
                    Arc::clone(&mailbox),
                    Arc::new(Mutex::new(clock)),
                    Arc::new(Mutex::new(TrafficStats::default())),
                );
                (comm, mailbox)
            })
            .unzip()
    }

    /// Runs `f` on every rank concurrently (one OS thread per rank) and
    /// returns the per-rank results in rank order.
    ///
    /// Virtual clocks start at zero on every rank. Any panic inside a rank
    /// propagates out of `run` as a `"rank panicked"` panic. For typed
    /// error handling and rank-failure recovery use [`Universe::try_run`].
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Communicator) -> R + Sync,
    {
        match self.launch(|comm| Ok(f(comm))) {
            Ok(results) => results,
            Err(failure) => panic!("rank panicked: {failure}"),
        }
    }

    /// Fault-tolerant run: each rank's closure returns
    /// `Result<R, CommError>`. Rank panics — including kills injected by
    /// a [`FaultPlan`] — are caught, the dead rank's peers are unblocked
    /// via the death-notice protocol, and the aggregate outcome reports
    /// every abnormal rank. `Ok` is returned only when *all* ranks
    /// returned `Ok`.
    pub fn try_run<R, F>(&self, f: F) -> Result<Vec<R>, RankFailure>
    where
        R: Send,
        F: Fn(Communicator) -> Result<R, CommError> + Sync,
    {
        self.launch(f)
    }

    fn launch<R, F>(&self, f: F) -> Result<Vec<R>, RankFailure>
    where
        R: Send,
        F: Fn(Communicator) -> Result<R, CommError> + Sync,
    {
        install_kill_silencer();
        let (shared, receivers) = self.build_shared();
        let world_id = UNIVERSE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let (comms, mailboxes) = self.build_comms(&shared, receivers, world_id);
        // Ranks that returned (normally or with an error) stop stamping
        // activity; the watchdog must not mistake "done" for "hung".
        let finished: Arc<Vec<AtomicBool>> =
            Arc::new((0..self.size).map(|_| AtomicBool::new(false)).collect());

        let outcomes: Vec<Result<R, FailureCause>> = std::thread::scope(|scope| {
            let watchdog_done = Arc::new(AtomicBool::new(false));
            let watchdog = self.heartbeat.map(|hb| {
                let shared = Arc::clone(&shared);
                let finished = Arc::clone(&finished);
                let done = Arc::clone(&watchdog_done);
                scope.spawn(move || run_watchdog(&shared, &finished, &done, hb))
            });
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let shared = Arc::clone(&shared);
                    let finished = Arc::clone(&finished);
                    let clock = comm.clock_handle();
                    let f = &f;
                    scope.spawn(move || {
                        // Stamps an abnormal exit on this rank's own thread
                        // (keeping the sink's single-writer-per-rank
                        // contract) at the rank's final virtual time.
                        let record_death = |cause: &'static str| {
                            if let Some(sink) = &shared.sink {
                                let t = clock.lock().now();
                                sink.record(SpanRecord {
                                    rank,
                                    start: t,
                                    end: t,
                                    kind: SpanKind::RankDeath { cause },
                                });
                            }
                        };
                        let result = catch_unwind(AssertUnwindSafe(|| f(comm)));
                        finished[rank].store(true, Ordering::SeqCst);
                        match result {
                            Ok(Ok(value)) => Ok(value),
                            Ok(Err(err)) => {
                                // The rank bowed out with a typed error: it
                                // will never send again, so unblock peers.
                                shared.death_notice(rank);
                                record_death("error");
                                Err(FailureCause::Error(err))
                            }
                            Err(payload) => {
                                shared.death_notice(rank);
                                if let Some(kill) = payload.downcast_ref::<InjectedKill>() {
                                    record_death("injected-kill");
                                    Err(FailureCause::InjectedKill { op: kill.op })
                                } else if let Some(hang) = payload.downcast_ref::<InjectedHang>() {
                                    record_death("detected-hang");
                                    Err(FailureCause::DetectedHang {
                                        op: hang.op,
                                        detection_latency: hang.silent_secs,
                                    })
                                } else {
                                    record_death("panic");
                                    Err(FailureCause::Panic(panic_message(payload.as_ref())))
                                }
                            }
                        }
                    })
                })
                .collect();
            let outcomes: Vec<Result<R, FailureCause>> = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => outcome,
                    // The supervisor closure itself cannot panic (it
                    // catches the user closure), so a join error means the
                    // thread was torn down abnormally.
                    Err(_) => Err(FailureCause::Panic("rank thread vanished".into())),
                })
                .collect();
            watchdog_done.store(true, Ordering::SeqCst);
            if let Some(h) = watchdog {
                let _ = h.join();
            }
            outcomes
        });
        // Every rank thread has exited, so nothing is mid-send: tear down
        // backend resources (a no-op on channels, socket/IO-thread
        // teardown on TCP).
        shared.transport.shutdown();
        // A duplicated packet's second copy is counted as suppressed only
        // when a receive drains it, so the copy trailing a rank's last
        // inbound packet would be counted or not depending on thread
        // timing. One final drain per mailbox counts every delivered
        // duplicate exactly once. Only link-plan universes stamp
        // `link_seq`, so there is nothing to count without one.
        if shared.link.is_some() {
            for mailbox in &mailboxes {
                mailbox.lock().drain(&shared);
            }
        }

        let mut values = Vec::with_capacity(self.size);
        let mut failed = Vec::new();
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(v) => values.push(v),
                Err(cause) => failed.push(FailedRank { rank, cause }),
            }
        }
        if failed.is_empty() {
            Ok(values)
        } else {
            Err(RankFailure { failed })
        }
    }
}

/// The failure-detector watchdog: polls per-rank activity stamps and
/// declares silent ranks dead. Runs on its own thread inside the launch
/// scope; `done` is set once every rank has been joined.
///
/// Two trigger paths:
/// * **Relative liveness** — a rank is suspected when it has been silent
///   longer than `suspicion` while at least one peer was active within
///   `suspicion / 2`. A machine-wide scheduler stall therefore suspects
///   nobody (everyone looks equally dead).
/// * **Stall watchdog** — if *every* live rank has been silent longer
///   than `stall`, the run is wedged; the watchdog breaks the deadlock
///   by condemning the least-recently-active rank.
fn run_watchdog(shared: &Shared, finished: &[AtomicBool], done: &AtomicBool, hb: HeartbeatConfig) {
    let p = finished.len();
    // Silence is measured from watchdog birth, not the shared epoch, so
    // ranks that have not communicated yet are not condemned for setup
    // time spent before the scope started.
    let start = shared.wall_ns();
    let suspicion = hb.suspicion.as_nanos() as u64;
    let stall = hb.stall.as_nanos() as u64;
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(hb.poll);
        let now = shared.wall_ns();
        let alive: Vec<(usize, u64)> = (0..p)
            .filter(|&r| {
                !finished[r].load(Ordering::SeqCst) && !shared.failed[r].load(Ordering::SeqCst)
            })
            .map(|r| {
                let last = shared.activity[r].load(Ordering::Relaxed).max(start);
                (r, now.saturating_sub(last))
            })
            .collect();
        let Some(min_silence) = alive.iter().map(|&(_, s)| s).min() else {
            continue;
        };
        let suspect = if min_silence < suspicion / 2 {
            // Some peer is demonstrably live; the most-silent rank past
            // the threshold (if any) is suspected.
            alive
                .iter()
                .copied()
                .filter(|&(_, s)| s > suspicion)
                .max_by_key(|&(_, s)| s)
        } else if min_silence > stall {
            alive.iter().copied().max_by_key(|&(_, s)| s)
        } else {
            None
        };
        if let Some((r, silence)) = suspect {
            shared.suspected[r].store(true, Ordering::SeqCst);
            if let Some(m) = &shared.metrics {
                m.suspicions.inc();
                m.detection_seconds.observe(silence as f64 / 1e9);
            }
            // Same protocol as an announced crash: peers observe
            // `PeerFailed`, and a hung rank parked in `maybe_hang` wakes
            // on its failed flag and exits.
            shared.death_notice(r);
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, Payload, ZeroCost};

    #[test]
    fn single_rank_universe_runs() {
        let out = Universe::new(1, ZeroCost).run(|comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = Universe::new(8, ZeroCost).run(|comm| comm.rank() * comm.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_universe_rejected() {
        Universe::new(0, ZeroCost);
    }

    #[test]
    fn clocks_start_at_zero() {
        let out = Universe::new(3, ZeroCost).run(|comm| comm.now());
        assert_eq!(out, vec![0.0; 3]);
    }

    #[test]
    fn consecutive_runs_are_independent() {
        let u = Universe::new(2, ZeroCost);
        let a = u.run(|comm| {
            comm.advance_compute(1.0);
            comm.now()
        });
        let b = u.run(|comm| comm.now());
        assert_eq!(a, vec![1.0, 1.0]);
        assert_eq!(b, vec![0.0, 0.0]);
    }

    #[test]
    fn try_run_returns_all_ok_results() {
        let out = Universe::new(3, ZeroCost)
            .try_run(|comm| Ok(comm.rank() * 2))
            .unwrap();
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn try_run_catches_rank_panic_and_unblocks_peers() {
        let err = Universe::new(3, ZeroCost)
            .recv_timeout(Duration::from_secs(30))
            .try_run(|mut comm| {
                if comm.rank() == 1 {
                    panic!("boom at rank 1");
                }
                // Survivors block in a collective involving rank 1; the
                // death notice must fail them fast.
                comm.try_bcast(1, Payload::U64(vec![9]))?;
                Ok(comm.rank())
            })
            .unwrap_err();
        let ranks: Vec<usize> = err.failed.iter().map(|f| f.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(matches!(&err.failed[1].cause, FailureCause::Panic(m) if m.contains("boom")));
        assert_eq!(err.root_failed_ranks(), vec![1]);
    }

    #[test]
    fn try_run_reports_injected_kill() {
        let plan = FaultPlan::new().kill_rank(2, 0);
        let err = Universe::new(3, ZeroCost)
            .with_faults(plan)
            .recv_timeout(Duration::from_secs(30))
            .try_run(|mut comm| {
                comm.try_bcast(2, Payload::U64(vec![1]))?;
                Ok(())
            })
            .unwrap_err();
        let killed: Vec<_> = err
            .failed
            .iter()
            .filter(|f| matches!(f.cause, FailureCause::InjectedKill { .. }))
            .map(|f| f.rank)
            .collect();
        assert_eq!(killed, vec![2]);
        assert_eq!(err.root_failed_ranks(), vec![2]);
    }

    #[test]
    fn try_run_partial_errors_keep_other_results_out() {
        // One rank returns a typed error; try_run reports it and does not
        // pretend the run succeeded.
        let err = Universe::new(2, ZeroCost)
            .recv_timeout(Duration::from_millis(50))
            .try_run(|comm| {
                if comm.rank() == 0 {
                    Err(CommError::PeerFailed { rank: 99 })
                } else {
                    Ok(comm.rank())
                }
            })
            .unwrap_err();
        assert_eq!(err.failed.len(), 1);
        assert_eq!(err.failed[0].rank, 0);
    }

    #[test]
    fn run_still_panics_on_rank_panic() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Universe::new(2, ZeroCost)
                .recv_timeout(Duration::from_millis(100))
                .run(|comm| {
                    if comm.rank() == 0 {
                        panic!("deliberate");
                    }
                    comm.rank()
                })
        }));
        let msg = panic_message(result.unwrap_err().as_ref());
        assert!(msg.contains("rank panicked"), "got: {msg}");
    }

    #[test]
    fn recv_timeout_env_var_sets_default() {
        std::env::set_var(RECV_TIMEOUT_ENV, "90000");
        let configured = Universe::new(1, ZeroCost);
        assert_eq!(
            recv_timeout_from_env(),
            Ok(Some(Duration::from_millis(90_000)))
        );
        // A set-but-unusable value is a typed config error, never a
        // silent fallback; `Universe::new` still constructs (warning +
        // default) so a bad environment cannot brick every caller.
        std::env::set_var(RECV_TIMEOUT_ENV, "not-a-number");
        let garbage = Universe::new(1, ZeroCost);
        // `try_new` propagates the typed error instead of warning.
        match Universe::try_new(1, ZeroCost) {
            Err(e) => assert_eq!(
                e,
                ConfigError::InvalidRecvTimeout {
                    value: "not-a-number".into()
                }
            ),
            Ok(_) => panic!("try_new must propagate the config error"),
        }
        let err = recv_timeout_from_env().expect_err("garbage must be a typed error");
        assert_eq!(
            err,
            ConfigError::InvalidRecvTimeout {
                value: "not-a-number".into()
            }
        );
        assert!(err.to_string().contains(RECV_TIMEOUT_ENV));
        std::env::set_var(RECV_TIMEOUT_ENV, "0");
        assert!(
            recv_timeout_from_env().is_err(),
            "zero is not a usable timeout"
        );
        std::env::remove_var(RECV_TIMEOUT_ENV);
        let unset = Universe::new(1, ZeroCost);
        assert_eq!(recv_timeout_from_env(), Ok(None));
        let tried = Universe::try_new(1, ZeroCost).expect("clean env must construct");
        let t = tried.run(|comm| comm.recv_timeout());
        assert_eq!(t, vec![DEFAULT_RECV_TIMEOUT]);

        let t = configured.run(|comm| comm.recv_timeout());
        assert_eq!(t, vec![Duration::from_millis(90_000)]);
        let t = garbage.run(|comm| comm.recv_timeout());
        assert_eq!(t, vec![DEFAULT_RECV_TIMEOUT]);
        let t = unset.run(|comm| comm.recv_timeout());
        assert_eq!(t, vec![DEFAULT_RECV_TIMEOUT]);
        // An explicit builder call still wins over the compiled default.
        let t = Universe::new(1, ZeroCost)
            .recv_timeout(Duration::from_millis(123))
            .run(|comm| comm.recv_timeout());
        assert_eq!(t, vec![Duration::from_millis(123)]);
    }

    struct VecSink(std::sync::Mutex<Vec<SpanRecord>>);

    impl VecSink {
        fn new() -> Arc<Self> {
            Arc::new(VecSink(std::sync::Mutex::new(Vec::new())))
        }

        fn spans(&self) -> Vec<SpanRecord> {
            self.0.lock().unwrap().clone()
        }
    }

    impl EventSink for VecSink {
        fn record(&self, span: SpanRecord) {
            self.0.lock().unwrap().push(span);
        }
    }

    #[test]
    fn event_sink_sees_sends_recvs_and_collectives() {
        use crate::span::{CollectiveOp, SpanKind};
        let sink = VecSink::new();
        Universe::new(3, ZeroCost)
            .with_event_sink(sink.clone())
            .run(|mut comm| {
                comm.bcast(0, Payload::U64(vec![5]));
            });
        let spans = sink.spans();
        let sends: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Send { .. }))
            .collect();
        let recvs: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Recv { .. }))
            .collect();
        let colls: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Collective { .. }))
            .collect();
        // Flat bcast on 3 ranks: root sends twice, each non-root
        // receives once, and every rank closes a Collective span.
        assert_eq!(sends.len(), 2);
        assert_eq!(recvs.len(), 2);
        assert_eq!(colls.len(), 3);
        assert!(colls.iter().all(|s| matches!(
            s.kind,
            SpanKind::Collective {
                op: CollectiveOp::Bcast,
                root: 0,
                comm_size: 3
            }
        )));
        // Every Recv matches a Send by (src, seq).
        for r in &recvs {
            let SpanKind::Recv { src, seq, .. } = r.kind else {
                unreachable!()
            };
            assert!(sends.iter().any(|s| {
                s.rank == src
                    && matches!(s.kind, SpanKind::Send { dst, seq: sseq, .. }
                        if dst == r.rank && sseq == seq)
            }));
        }
    }

    #[test]
    fn event_sink_records_injected_kill_as_rank_death() {
        use crate::span::SpanKind;
        let sink = VecSink::new();
        let err = Universe::new(3, ZeroCost)
            .with_faults(FaultPlan::new().kill_rank(2, 0))
            .with_event_sink(sink.clone())
            .recv_timeout(Duration::from_secs(30))
            .try_run(|mut comm| {
                comm.try_bcast(2, Payload::U64(vec![1]))?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.root_failed_ranks(), vec![2]);
        // Every rank that left abnormally records a death: rank 2 from
        // the injected kill, the survivors from the PeerFailed errors
        // the death notice turned their bcast into.
        let mut deaths: Vec<(usize, &'static str)> = sink
            .spans()
            .into_iter()
            .filter_map(|s| match s.kind {
                SpanKind::RankDeath { cause } => Some((s.rank, cause)),
                _ => None,
            })
            .collect();
        deaths.sort_unstable();
        assert_eq!(
            deaths,
            vec![(0, "error"), (1, "error"), (2, "injected-kill")]
        );
    }

    #[test]
    fn seeded_fault_plans_give_reproducible_failures() {
        let run = || {
            Universe::new(3, ZeroCost)
                .with_faults(FaultPlan::seeded(7, 3))
                .recv_timeout(Duration::from_millis(200))
                .try_run(|mut comm| {
                    for _ in 0..8 {
                        comm.try_barrier()?;
                    }
                    Ok(comm.rank())
                })
        };
        let a = run();
        let b = run();
        match (&a, &b) {
            (Err(ea), Err(eb)) => {
                assert_eq!(ea.root_failed_ranks(), eb.root_failed_ranks());
            }
            other => panic!("seeded kill must fail both runs, got {other:?}"),
        }
    }
}
