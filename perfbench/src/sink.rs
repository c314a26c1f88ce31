//! The benchmark's own event sink. The program reports spans stamped on
//! its virtual clock; this sink adds the wall-clock instant each span
//! reached it, which is what the per-layer wall-time breakdown is built
//! from. Nothing in the program is changed to produce these numbers.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use summagen_comm::{EventSink, SpanKind, SpanRecord, StageLabel};

/// A span as received: the reporting rank, its kind, and the wall
/// nanoseconds since the sink's epoch at which it arrived.
pub struct Stamped {
    pub rank: usize,
    pub wall_ns: u64,
    pub kind: SpanKind,
}

pub struct WallSink {
    epoch: Instant,
    spans: Mutex<Vec<Stamped>>,
}

impl WallSink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Wall nanoseconds since the sink's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Takes every span received since the last call.
    pub fn drain(&self) -> Vec<Stamped> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("sink lock poisoned by a rank panic"),
        )
    }
}

impl EventSink for WallSink {
    fn record(&self, span: SpanRecord) {
        let wall_ns = self.now_ns();
        self.spans
            .lock()
            .expect("sink lock poisoned by a rank panic")
            .push(Stamped {
                rank: span.rank,
                wall_ns,
                kind: span.kind,
            });
    }
}

/// Wall-clock breakdown of one traced multiply call.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CallBreakdown {
    pub gemm_calls: u64,
    pub gemm_flops: f64,
    pub gemm_kernel_ns: u64,
    /// Kernel nanoseconds of the rank that spent the most in the kernel.
    pub busiest_kernel_ns: u64,
    /// Issued kernel shapes `(m, n, k)`, one entry per call.
    pub gemm_shapes: Vec<(usize, usize, usize)>,
    /// Per stage, the slowest rank's wall milliseconds: horizontal A
    /// (from the call's entry), vertical B, local compute.
    pub stage_ms: [f64; 3],
    /// Sum over receives of the wall gap since the same rank's previous
    /// span, i.e. an upper bound on time spent waiting for the message.
    pub recv_wait_ns: u64,
    pub recv_wait_max_ns: u64,
    /// Sum over ranks of the wall window between the rank's first and
    /// last span.
    pub rank_active_ns: u64,
    pub spans: u64,
}

/// Reduces the spans of one call that started at `call_start_ns` over
/// `nranks` ranks.
pub fn breakdown(spans: &[Stamped], nranks: usize, call_start_ns: u64) -> CallBreakdown {
    let mut out = CallBreakdown {
        spans: spans.len() as u64,
        ..CallBreakdown::default()
    };
    let mut kernel_ns = vec![0u64; nranks];
    let mut stage_end: Vec<[Option<u64>; 3]> = vec![[None; 3]; nranks];
    let mut last_seen: Vec<Option<u64>> = vec![None; nranks];
    let mut first_seen: Vec<Option<u64>> = vec![None; nranks];
    for s in spans.iter().filter(|s| s.rank < nranks) {
        match &s.kind {
            SpanKind::Gemm {
                m,
                n,
                k,
                flops,
                kernel_ns: ns,
            } => {
                out.gemm_calls += 1;
                out.gemm_flops += flops;
                out.gemm_kernel_ns += ns;
                kernel_ns[s.rank] += ns;
                out.gemm_shapes.push((*m, *n, *k));
            }
            SpanKind::Recv { .. } => {
                if let Some(prev) = last_seen[s.rank] {
                    let gap = s.wall_ns.saturating_sub(prev);
                    out.recv_wait_ns += gap;
                    out.recv_wait_max_ns = out.recv_wait_max_ns.max(gap);
                }
            }
            SpanKind::Stage { stage } => {
                let slot = match stage {
                    StageLabel::HorizontalA => Some(0),
                    StageLabel::VerticalB => Some(1),
                    StageLabel::LocalCompute => Some(2),
                    StageLabel::SummaPanel => None,
                };
                if let Some(i) = slot {
                    stage_end[s.rank][i] = Some(s.wall_ns);
                }
            }
            _ => {}
        }
        first_seen[s.rank].get_or_insert(s.wall_ns);
        last_seen[s.rank] = Some(s.wall_ns);
    }
    out.busiest_kernel_ns = kernel_ns.iter().copied().max().unwrap_or(0);
    out.rank_active_ns = first_seen
        .iter()
        .zip(&last_seen)
        .filter_map(|(f, l)| Some(l.as_ref()? - f.as_ref()?))
        .sum();
    for ends in &stage_end {
        let mut prev = Some(call_start_ns);
        for (i, end) in ends.iter().enumerate() {
            if let (Some(p), Some(e)) = (prev, *end) {
                let ms = e.saturating_sub(p) as f64 / 1e6;
                out.stage_ms[i] = out.stage_ms[i].max(ms);
            }
            prev = *end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rank: usize, wall_ns: u64, kind: SpanKind) -> Stamped {
        Stamped {
            rank,
            wall_ns,
            kind,
        }
    }

    fn stage(stage: StageLabel) -> SpanKind {
        SpanKind::Stage { stage }
    }

    #[test]
    fn breakdown_attributes_kernel_stage_and_wait_time() {
        let recv = SpanKind::Recv {
            src: 0,
            tag: 0,
            bytes: 8,
            seq: 0,
        };
        let gemm = |ns| SpanKind::Gemm {
            m: 2,
            n: 3,
            k: 4,
            flops: 48.0,
            kernel_ns: ns,
        };
        let spans = vec![
            at(1, 1_000, recv.clone()),
            at(1, 4_000, recv),
            at(1, 5_000, stage(StageLabel::HorizontalA)),
            at(1, 6_000, stage(StageLabel::VerticalB)),
            at(0, 2_000_000, stage(StageLabel::HorizontalA)),
            at(0, 2_500_000, stage(StageLabel::VerticalB)),
            at(0, 3_000_000, gemm(400_000)),
            at(1, 3_100_000, gemm(100_000)),
            at(1, 3_200_000, gemm(100_000)),
            at(0, 3_500_000, stage(StageLabel::LocalCompute)),
            at(1, 3_300_000, stage(StageLabel::LocalCompute)),
        ];
        let b = breakdown(&spans, 2, 0);
        assert_eq!(b.gemm_calls, 3);
        assert_eq!(b.gemm_flops, 144.0);
        assert_eq!(b.gemm_kernel_ns, 600_000);
        assert_eq!(b.busiest_kernel_ns, 400_000);
        assert_eq!(b.recv_wait_ns, 3_000);
        assert_eq!(b.recv_wait_max_ns, 3_000);
        assert_eq!(b.stage_ms, [2.0, 0.5, 3.294]);
        assert_eq!(
            b.rank_active_ns,
            (3_500_000 - 2_000_000) + (3_300_000 - 1_000)
        );
    }
}
