//! The streaming audit log against the batch checker it replaced.
//!
//! `batch_verify` below is the old `audit::verify`, kept as the oracle: it
//! walked an append-only list of every applied update after the run. The
//! streaming [`AuditLog`] decides order and duplicates as it records and
//! keeps only per-session state and seq bitmaps, so over any log the two
//! must return the same `Ok(AuditReport)`, or the same violations in the
//! same order.

use std::collections::{BTreeMap, BTreeSet};

use pmnet_core::audit::{verify, AuditEntry, AuditLog, AuditReport, AuditViolation};
use pmnet_net::Addr;
use proptest::prelude::*;

/// The batch checker, as it was over the old log's `entries()`.
fn batch_verify(
    entries: &[AuditEntry],
    acked: &[(Addr, u16, u32)],
) -> Result<AuditReport, Vec<AuditViolation>> {
    let mut violations = Vec::new();
    let mut last_in_epoch: BTreeMap<(Addr, u16, u64), u32> = BTreeMap::new();
    let mut applied_set: BTreeSet<(Addr, u16, u32)> = BTreeSet::new();
    let mut sessions: BTreeSet<(Addr, u16)> = BTreeSet::new();
    let mut redo = 0;

    for e in entries {
        sessions.insert((e.client, e.session));
        if e.redo {
            redo += 1;
        }
        if let Some(&prev) = last_in_epoch.get(&(e.client, e.session, e.epoch)) {
            if e.seq <= prev {
                violations.push(AuditViolation::OrderRegression {
                    client: e.client,
                    session: e.session,
                    prev,
                    seq: e.seq,
                    epoch: e.epoch,
                });
            }
        }
        last_in_epoch.insert((e.client, e.session, e.epoch), e.seq);
        if !applied_set.insert((e.client, e.session, e.seq)) {
            violations.push(AuditViolation::DuplicateApply {
                client: e.client,
                session: e.session,
                seq: e.seq,
            });
        }
    }

    for &(client, session, seq) in acked {
        if !applied_set.contains(&(client, session, seq)) {
            violations.push(AuditViolation::AckedNotApplied {
                client,
                session,
                seq,
            });
        }
    }

    if violations.is_empty() {
        Ok(AuditReport {
            applied: entries.len(),
            redo,
            sessions: sessions.len(),
            acked_checked: acked.len(),
        })
    } else {
        Err(violations)
    }
}

/// Raw material for one log: a client and session count, where every
/// session's seqs start (near 0 or near `u32::MAX`), and epoch segments of
/// `(epoch, steps)`; each step is `([client, session], kind, delta, redo)`;
/// each ack is `([entry, session], kind, delta)`.
type Raw = (
    (u8, u8, bool),
    Vec<(u8, Vec<([u8; 2], u8, u32, bool)>)>,
    Vec<([u8; 2], u8, u32)>,
);

fn raw() -> impl Strategy<Value = Raw> {
    let pair = any::<u16>().prop_map(u16::to_le_bytes);
    let step = (pair.clone(), 0u8..16, any::<u32>(), any::<bool>());
    (
        (1u8..5, 1u8..4, any::<bool>()),
        // Epochs drawn from 0..4 per segment: they rise, come back and
        // repeat.
        prop::collection::vec((0u8..4, prop::collection::vec(step, 0..24)), 1..6),
        prop::collection::vec((pair, 0u8..4, any::<u32>()), 0..24),
    )
}

/// Builds the log the raw material describes. With `clean`, every step
/// moves its session forward by one or two (a one- or two-fragment
/// update); otherwise some steps also repeat a recent seq, step back, or
/// jump to either end of the seq space.
fn log_of(raw: &Raw, clean: bool) -> (Vec<AuditEntry>, Vec<(Addr, u16, u32)>) {
    let &((clients, sessions, high), ref segments, ref acks) = raw;
    let start = if high { u32::MAX - 250 } else { 0 };
    let mut next: BTreeMap<(Addr, u16), u32> = BTreeMap::new();
    let mut entries = Vec::new();
    for (epoch, steps) in segments {
        for &([c, s], kind, delta, redo) in steps {
            let client = Addr(1 + u32::from(c % clients));
            let session = u16::from(s % sessions);
            let cursor = next.entry((client, session)).or_insert(start);
            let seq = match kind {
                _ if clean => cursor.wrapping_add(delta % 2),
                0..=9 => cursor.wrapping_add(delta % 2),
                10 | 11 => cursor.wrapping_sub(1 + delta % 3),
                12 => cursor.wrapping_sub(1 + delta % 130),
                13 => u32::MAX - delta % 4,
                14 => delta % 4,
                _ => delta,
            };
            *cursor = if clean {
                seq.saturating_add(1)
            } else {
                seq.wrapping_add(1)
            };
            entries.push(AuditEntry {
                client,
                session,
                seq,
                redo,
                epoch: u64::from(*epoch),
            });
        }
    }
    let mut acked = Vec::new();
    for &([pick, s], kind, delta) in acks {
        if entries.is_empty() {
            break;
        }
        let e = entries[usize::from(pick) % entries.len()];
        acked.push(match kind {
            // An applied update, possibly acked twice.
            0 | 1 => (e.client, e.session, e.seq),
            // A neighbour that may never have been applied.
            2 if !clean => (e.client, e.session, e.seq.wrapping_add(1 + delta % 70)),
            // A session that may not exist.
            3 if !clean => (e.client, u16::from(s % 4), delta % 200),
            _ => (e.client, e.session, e.seq),
        });
    }
    (entries, acked)
}

fn streamed(entries: &[AuditEntry]) -> AuditLog {
    let mut log = AuditLog::new();
    for &e in entries {
        log.record(e);
    }
    assert_eq!(log.len(), entries.len());
    assert_eq!(log.is_empty(), entries.is_empty());
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random logs: mostly violations, in a long and exact order.
    #[test]
    fn the_streaming_log_finds_what_the_batch_checker_found(r in raw()) {
        let (entries, acked) = log_of(&r, false);
        prop_assert_eq!(verify(&streamed(&entries), &acked), batch_verify(&entries, &acked));
    }

    /// Forward-moving logs across returning epochs: the clean reports
    /// must agree field for field.
    #[test]
    fn clean_logs_report_the_same_counts(r in raw()) {
        let (entries, acked) = log_of(&r, true);
        let expected = batch_verify(&entries, &acked);
        prop_assert!(expected.is_ok(), "a forward-only log is clean: {:?}", expected);
        prop_assert_eq!(verify(&streamed(&entries), &acked), expected);
    }
}

/// Epoch 2 is left and re-entered: its last seq still orders what comes
/// after, and seqs from epoch 1 still count as applied.
#[test]
fn a_returning_epoch_resumes_its_order_and_keeps_its_duplicates() {
    let e = |seq, epoch| AuditEntry {
        client: Addr(7),
        session: 2,
        seq,
        redo: false,
        epoch,
    };
    let entries = [e(10, 2), e(3, 1), e(9, 2), e(3, 2), e(u32::MAX, 1), e(0, 3)];
    let got = verify(&streamed(&entries), &[(Addr(7), 2, 4)]);
    assert_eq!(got, batch_verify(&entries, &[(Addr(7), 2, 4)]));
    let violations = got.unwrap_err();
    assert_eq!(violations.len(), 4, "{violations:?}");
    assert!(matches!(
        violations[0],
        AuditViolation::OrderRegression {
            prev: 10,
            seq: 9,
            epoch: 2,
            ..
        }
    ));
}
