//! Durable service state: an append-only, checksummed write-ahead
//! journal of job lifecycle records, torn-tail-tolerant replay, and
//! seeded crash injection.
//!
//! The multi-tenant service (`summagen-service`) is a virtual-clock
//! event loop; everything it knows — the queue, per-tenant quotas, the
//! in-flight set, which jobs already completed — lives in process
//! memory. This crate is the layer that survives the process:
//!
//! * [`record`] — the journal's record vocabulary: one
//!   [`JournalRecord`] per job lifecycle transition (admitted,
//!   batch-started, panel-checkpoint, completed, failed, rejected, plus
//!   an epoch marker per restart), each carrying the tenant, an
//!   idempotency key, and — for completions — the FNV digest of the
//!   result.
//! * [`frame`] — the wire format: every record is length-prefixed and
//!   CRC-32-protected, so a torn or corrupt trailing record is
//!   *detected* and discarded, never misparsed into garbage state.
//! * [`journal`] — the append path: group-commit flush batching costed
//!   on the virtual clock (many commits at one instant share one
//!   fsync), lazy vs. commit durability classes, and the crash seam
//!   (unflushed records are exactly what a crash loses; a torn write
//!   additionally truncates the durable tail mid-record).
//! * [`replay()`] — the recovery path: scan the durable bytes to the
//!   longest valid prefix and fold the records into a
//!   [`RecoveredState`] — the queue, quotas, in-flight set with resume
//!   fractions, and the terminal outcomes that make resubmission
//!   suppression (exactly-once completion) possible.
//! * [`crash`] — seeded crash specs for the `reproduce crash` harness:
//!   deterministic kill points at admission, batch dispatch, journal
//!   append (with torn tails), and checkpoint record instants.
//!
//! The crate is deliberately freestanding — it knows nothing about
//! `JobSpec` or the scheduler. The service converts its own types into
//! the journal's [`JobMeta`] vocabulary, which is what keeps the log
//! format stable under service-side refactors.

pub mod crash;
pub mod frame;
pub mod journal;
pub mod record;
pub mod replay;

pub use crash::{CrashKind, CrashSpec};
pub use frame::{crc32, decode_frames, encode_frame, DecodeOutcome};
pub use journal::{GroupCommitConfig, Journal, JournalStats};
pub use record::{idempotency_key, JobMeta, JournalRecord, RejectionReason, TerminalKind};
pub use replay::{replay, RecoveredJob, RecoveredState, Replay, TerminalRecord};

/// FNV-1a over a byte slice — the digest primitive shared by idempotency
/// keys and result digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a folded over a sequence of words (each eaten little-endian).
pub fn fnv1a_words(words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a("") is the offset basis; "a" and "foobar" are published
        // test vectors of the 64-bit variant.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn word_folding_matches_byte_folding() {
        let h1 = fnv1a_words(&[0x0102_0304_0506_0708]);
        let h2 = fnv1a(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(h1, h2);
    }
}
