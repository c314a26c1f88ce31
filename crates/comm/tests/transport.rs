//! Integration tests for the lossy-link transport and the heartbeat
//! failure detector: the reliable path must stay bit-identical when a
//! lossless plan is installed, seeded wire faults must be deterministic
//! and invisible to correctness, a dead link must surface as a typed
//! `Unreachable`, and a silently-hung rank must be *detected* — not
//! announced — by heartbeat suspicion.

use std::time::Duration;

use proptest::prelude::*;
use summagen_comm::{
    CommError, FailureCause, HeartbeatConfig, HockneyModel, LinkPlan, Payload, RuntimeMetrics,
    Universe, ZeroCost,
};

/// A lossless plan engages the transport machinery (sequence numbers,
/// cursors) but every wire attempt delivers on the first try, so the
/// virtual makespan must be exactly the reliable-path makespan.
#[test]
fn lossless_link_plan_keeps_reliable_timing() {
    let run = |plan: Option<LinkPlan>| {
        let mut u = Universe::new(2, HockneyModel::intra_node());
        if let Some(p) = plan {
            u = u.with_link_plan(p);
        }
        u.run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::F64(vec![1.5; 4096]));
            } else {
                let got = comm.recv(0, 7).into_f64();
                assert_eq!(got.len(), 4096);
            }
            comm.barrier();
            comm.clock_snapshot().now
        })
    };
    let reliable = run(None);
    let lossless = run(Some(LinkPlan::seeded(9)));
    assert_eq!(reliable, lossless, "lossless transport must cost nothing");
}

fn lossy_exchange(seed: u64, drop_permille: u16) -> (Vec<u64>, u64, u64, f64) {
    let m = RuntimeMetrics::fresh();
    let plan = LinkPlan::seeded(seed).drop_rate(drop_permille);
    let out = Universe::new(2, HockneyModel::intra_node())
        .with_link_plan(plan)
        .with_metrics(m.clone())
        .run(|mut comm| {
            let mut got = Vec::new();
            if comm.rank() == 0 {
                for i in 0..20u64 {
                    comm.send(1, i, Payload::U64(vec![i * i]));
                }
            } else {
                for i in 0..20u64 {
                    got.push(comm.recv(0, i).into_u64()[0]);
                }
            }
            comm.barrier();
            (got, comm.clock_snapshot().now)
        });
    let (got, _) = out[1].clone();
    let makespan = out.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    (
        got,
        m.transport_retransmits.get(),
        m.transport_delivered.get(),
        makespan,
    )
}

#[test]
fn seeded_drops_retransmit_deterministically_and_deliver_everything() {
    let (got, retx, delivered, lossy_makespan) = lossy_exchange(3, 400);
    assert_eq!(got, (0..20).map(|i| i * i).collect::<Vec<u64>>());
    assert!(retx > 0, "40% drops over 20 messages must retransmit");
    assert!(delivered >= 20);

    // Same seed, same counts — the wire fates are a pure hash.
    let (got2, retx2, delivered2, makespan2) = lossy_exchange(3, 400);
    assert_eq!(got, got2);
    assert_eq!((retx, delivered), (retx2, delivered2));
    assert_eq!(lossy_makespan, makespan2, "virtual time is deterministic");

    // Retransmission timeouts are charged on the virtual clock.
    let (_, _, _, clean_makespan) = lossy_exchange(3, 0);
    assert!(
        lossy_makespan > clean_makespan,
        "retransmits must inflate the makespan: {lossy_makespan} vs {clean_makespan}"
    );
}

#[test]
fn wire_duplicates_are_suppressed_at_the_receiver() {
    let m = RuntimeMetrics::fresh();
    let plan = LinkPlan::seeded(5).duplicate_rate(1000);
    let out = Universe::new(2, ZeroCost)
        .with_link_plan(plan)
        .with_metrics(m.clone())
        .run(|comm| {
            let mut got = Vec::new();
            if comm.rank() == 0 {
                for i in 0..10u64 {
                    comm.send(1, 0, Payload::U64(vec![i]));
                }
            } else {
                for _ in 0..10 {
                    got.push(comm.recv(0, 0).into_u64()[0]);
                }
            }
            got
        });
    // Every payload arrives exactly once, in order, despite every packet
    // being duplicated on the wire.
    assert_eq!(out[1], (0..10).collect::<Vec<u64>>());
    assert!(m.transport_duplicates.get() >= 10);
    assert_eq!(
        m.transport_dup_dropped.get(),
        m.transport_duplicates.get(),
        "each extra copy must be dropped by the receiver's cursor"
    );
}

#[test]
fn reordered_packets_are_reassembled_in_order() {
    let plan = LinkPlan::seeded(11).reorder_rate(500);
    let out = Universe::new(2, ZeroCost)
        .with_link_plan(plan)
        // The detector's wake cadence doubles as the held-packet flush
        // tick for a receiver already blocked on the final packet.
        .with_heartbeat(HeartbeatConfig::default())
        .run(|comm| {
            let mut got = Vec::new();
            if comm.rank() == 0 {
                for i in 0..30u64 {
                    comm.send(1, 0, Payload::U64(vec![i]));
                }
            } else {
                for _ in 0..30 {
                    got.push(comm.recv(0, 0).into_u64()[0]);
                }
            }
            got
        });
    assert_eq!(
        out[1],
        (0..30).collect::<Vec<u64>>(),
        "in-order reassembly must hide wire reordering"
    );
}

#[test]
fn dead_link_exhausts_attempts_with_typed_unreachable() {
    let plan = LinkPlan::seeded(0)
        .drop_link(0, 1, 1000)
        .retransmit(1e-6, 1e-5, 4);
    let out = Universe::new(2, ZeroCost).with_link_plan(plan).run(|comm| {
        if comm.rank() == 0 {
            match comm.try_send(1, 0, Payload::U64(vec![1])) {
                Err(CommError::Unreachable { rank, attempts }) => (rank, attempts),
                other => panic!("want Unreachable, got {other:?}"),
            }
        } else {
            (usize::MAX, 0)
        }
    });
    assert_eq!(out[0], (1, 4));
}

#[test]
fn heartbeat_detects_silent_hang_and_reports_latency() {
    let m = RuntimeMetrics::fresh();
    let hb = HeartbeatConfig::default().suspicion(Duration::from_millis(150));
    let err = Universe::new(3, ZeroCost)
        .with_link_plan(LinkPlan::seeded(1).hang_rank(1, 0))
        .with_heartbeat(hb)
        .with_metrics(m.clone())
        .recv_timeout(Duration::from_secs(5))
        .try_run(|comm| {
            let next = (comm.rank() + 1) % 3;
            let prev = (comm.rank() + 2) % 3;
            comm.try_send(next, 0, Payload::U64(vec![comm.rank() as u64]))?;
            comm.try_recv(prev, 0)?;
            Ok(())
        })
        .expect_err("a silently hung rank must fail the run");
    let hung = err
        .failed
        .iter()
        .find(|f| f.rank == 1)
        .expect("rank 1 must be reported");
    match &hung.cause {
        FailureCause::DetectedHang {
            detection_latency, ..
        } => {
            assert!(hung.cause.is_detected());
            // Nobody announced anything: the latency is the watchdog's
            // suspicion delay, so it sits at or above the threshold.
            assert!(
                *detection_latency >= 0.15,
                "latency {detection_latency} below the suspicion threshold"
            );
        }
        other => panic!("want DetectedHang, got {other:?}"),
    }
    assert!(m.suspicions.get() >= 1, "the watchdog must raise suspicion");
    assert_eq!(m.detection_seconds.count(), m.suspicions.get());
    assert!(m.heartbeats.get() >= 1, "live ranks must have beaten");
}

/// Satellite check: an empty member list is a typed `InvalidGroup`, not
/// an assert.
#[test]
fn empty_subgroup_members_is_a_typed_error() {
    let out = Universe::new(2, ZeroCost).run(|comm| match comm.try_subgroup(&[], 1) {
        Err(CommError::InvalidGroup { reason }) => reason,
        Err(other) => panic!("want InvalidGroup, got {other:?}"),
        Ok(_) => panic!("want InvalidGroup, got a communicator"),
    });
    for reason in out {
        assert!(reason.contains("empty"), "unhelpful reason: {reason}");
    }
}

/// Broadcast + allreduce under the given plan; returns the bit patterns
/// every rank ended up with so runs can be compared exactly.
fn collective_bits(plan: Option<LinkPlan>, data: &[f64]) -> Vec<Vec<u64>> {
    let data = data.to_vec();
    let mut u = Universe::new(3, HockneyModel::intra_node());
    if let Some(p) = plan {
        u = u
            .with_link_plan(p)
            .with_heartbeat(HeartbeatConfig::default());
    }
    u.run(move |mut comm| {
        let root_view = comm.bcast(0, Payload::F64(data.clone())).into_f64();
        let contrib: Vec<f64> = root_view
            .iter()
            .map(|v| v * (comm.rank() as f64 + 1.0))
            .collect();
        let sum = comm.allreduce_f64(&contrib, summagen_comm::ReduceOp::Sum);
        root_view
            .iter()
            .chain(sum.iter())
            .map(|v| v.to_bits())
            .collect()
    })
}

fn seeded_retx_counts(seed: u64) -> (u64, u64, u64) {
    let m = RuntimeMetrics::fresh();
    let plan = LinkPlan::seeded(seed)
        .drop_rate(250)
        .duplicate_rate(150)
        .reorder_rate(100);
    Universe::new(3, ZeroCost)
        .with_link_plan(plan)
        .with_heartbeat(HeartbeatConfig::default())
        .with_metrics(m.clone())
        .run(|mut comm| {
            let v = comm.bcast(0, Payload::F64(vec![2.5; 64])).into_f64();
            comm.allreduce_f64(&v, summagen_comm::ReduceOp::Max);
        });
    (
        m.transport_retransmits.get(),
        m.transport_duplicates.get(),
        m.transport_dup_dropped.get(),
    )
}

proptest! {
    // Every case spins up six OS threads across two universes; a small
    // case count keeps the property a smoke sweep rather than a soak.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Duplication + reordering with zero drops: collectives must come
    /// out bit-identical to the fault-free run for any seed and payload.
    #[test]
    fn dup_reorder_collectives_match_fault_free(
        seed in 0u64..1_000,
        data in proptest::collection::vec(-1.0e3f64..1.0e3, 1..16),
    ) {
        let clean = collective_bits(None, &data);
        let plan = LinkPlan::seeded(seed).duplicate_rate(300).reorder_rate(300);
        let lossy = collective_bits(Some(plan), &data);
        prop_assert_eq!(clean, lossy);
    }

    /// The same seed must reproduce the same retransmit / duplicate /
    /// suppression counts: wire fates are a pure function of
    /// `(seed, src, dst, seq, attempt)`, and the universe drains every
    /// mailbox after the ranks join, so each delivered duplicate is
    /// suppressed — and counted — exactly once.
    #[test]
    fn same_seed_reproduces_same_transport_counts(seed in 0u64..1_000) {
        let counts = seeded_retx_counts(seed);
        let (_, duplicates, dup_dropped) = counts;
        prop_assert_eq!(dup_dropped, duplicates);
        prop_assert_eq!(counts, seeded_retx_counts(seed));
    }
}
