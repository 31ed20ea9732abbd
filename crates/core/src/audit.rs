//! End-to-end persistence auditing.
//!
//! Section VIII of the paper points at PM testing tools (PMTest, AGAMOTTO,
//! Jaaru) and suggests adapting them to in-network persistence to "validate
//! not only the ordering in one application but also the persist ordering
//! among clients and servers". This module is that idea for the simulated
//! system: the server hands every update it applies to an [`AuditLog`]
//! (which survives simulated crashes — the auditor is outside the
//! persistence domain, like a bus analyzer), and the log and [`verify`]
//! check the system-wide invariants:
//!
//! 1. **Per-session order** — within one server epoch, a session's applied
//!    sequence numbers are strictly increasing (the PMNet library's
//!    reordering guarantee, Figure 7).
//! 2. **No acknowledged loss** — every update sequence number a client saw
//!    acknowledged is applied by the server at least once (the central
//!    durability claim).
//! 3. **Exactly-once per epoch** — no sequence number is applied twice
//!    within an epoch (duplicates must be dropped); across a crash, a
//!    replay may legitimately re-apply only work whose durable sequence
//!    record was lost — which the durable WAL discipline makes impossible,
//!    so re-applies across epochs are also flagged.
//!
//! The log checks as it records: invariants 1 and 3 are decided in
//! [`AuditLog::record`] against per-session state, and only invariant 2
//! waits for [`verify`], which needs the clients' acknowledged lists. What
//! it holds is one record per `(client, session)` (the current epoch's last
//! sequence number, one more pair per epoch the session left, and the
//! bitmap word of the 64 sequence numbers it applied in last) and one
//! 64-bit word per other 64 sequence numbers of a session it applied in:
//! about half a byte per applied update, not the update itself.

use std::collections::hash_map::Entry;
use std::fmt;

use pmnet_net::Addr;
use pmnet_sim::hash::FixedMap;

/// One applied update, as observed at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEntry {
    /// Originating client.
    pub client: Addr,
    /// Client session.
    pub session: u16,
    /// Sequence number of the update's last fragment.
    pub seq: u32,
    /// Whether it arrived as a recovery/retry redo.
    pub redo: bool,
    /// The server's crash epoch when applied.
    pub epoch: u64,
}

/// A session's record: the last sequence number it applied in the epoch
/// it applied in last, the same pair for every epoch it left, and the
/// bitmap word it applied in last.
#[derive(Debug)]
struct SessionRecord {
    epoch: u64,
    last: u32,
    /// Never holds `epoch`; allocates only when the session changes epoch.
    earlier: Vec<(u64, u32)>,
    /// Word `word` of the session's bitmap lives here, not in
    /// [`AuditLog::applied`], so a run of nearby seqs touches one table.
    word: u32,
    bits: u64,
}

impl SessionRecord {
    /// Records `seq` as applied in `epoch`; returns the sequence number
    /// applied last in `epoch` before it, if any.
    fn advance(&mut self, epoch: u64, seq: u32) -> Option<u32> {
        let prev = if epoch == self.epoch {
            Some(self.last)
        } else {
            self.earlier.push((self.epoch, self.last));
            self.epoch = epoch;
            let i = self.earlier.iter().position(|&(e, _)| e == epoch);
            i.map(|i| self.earlier.swap_remove(i).1)
        };
        self.last = seq;
        prev
    }
}

/// The server's application record, checked as it is written.
#[derive(Default)]
pub struct AuditLog {
    sessions: FixedMap<(Addr, u16), SessionRecord>,
    /// Bit `seq % 64` of word `(client, session, seq / 64)` is set once
    /// `seq` was applied, in any epoch; each session's current word is in
    /// its [`SessionRecord`] instead.
    applied: FixedMap<(Addr, u16, u32), u64>,
    len: usize,
    redo: usize,
    /// Order and duplicate violations, in the order they were recorded.
    violations: Vec<AuditViolation>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Records one applied update, checking per-session order within its
    /// epoch and that its sequence number was not applied before.
    pub fn record(&mut self, entry: AuditEntry) {
        let AuditEntry {
            client,
            session,
            seq,
            redo,
            epoch,
        } = entry;
        self.len += 1;
        self.redo += usize::from(redo);
        let (word, bit) = (seq / 64, 1 << (seq % 64));
        let (order, prev) = match self.sessions.entry((client, session)) {
            Entry::Occupied(o) => {
                let order = o.into_mut();
                let prev = order.advance(epoch, seq);
                (order, prev)
            }
            Entry::Vacant(v) => {
                let order = v.insert(SessionRecord {
                    epoch,
                    last: seq,
                    earlier: Vec::new(),
                    word,
                    bits: 0,
                });
                (order, None)
            }
        };
        if let Some(prev) = prev.filter(|&prev| seq <= prev) {
            self.violations.push(AuditViolation::OrderRegression {
                client,
                session,
                prev,
                seq,
                epoch,
            });
        }
        if order.word != word {
            self.applied
                .insert((client, session, order.word), order.bits);
            order.bits = self.applied.remove(&(client, session, word)).unwrap_or(0);
            order.word = word;
        }
        if order.bits & bit != 0 {
            self.violations.push(AuditViolation::DuplicateApply {
                client,
                session,
                seq,
            });
        }
        order.bits |= bit;
    }

    /// Whether `seq` of `(client, session)` was applied, in any epoch.
    fn was_applied(&self, client: Addr, session: u16, seq: u32) -> bool {
        let word = seq / 64;
        let bits = match self.sessions.get(&(client, session)) {
            Some(order) if order.word == word => order.bits,
            _ => self.applied.get(&(client, session, word)).map_or(0, |&b| b),
        };
        bits & 1 << (seq % 64) != 0
    }

    /// Number of applied updates observed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was applied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Counts only: the tables are hashed, and their order must reach no
/// output.
impl fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditLog")
            .field("applied", &self.len)
            .field("redo", &self.redo)
            .field("sessions", &self.sessions.len())
            .field("violations", &self.violations.len())
            .finish()
    }
}

/// A violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A session's applied sequence went backwards (or repeated) within an
    /// epoch.
    OrderRegression {
        /// Client.
        client: Addr,
        /// Session.
        session: u16,
        /// Previously applied sequence number.
        prev: u32,
        /// The regressing sequence number.
        seq: u32,
        /// Epoch in which it happened.
        epoch: u64,
    },
    /// A sequence number was applied more than once (any epochs).
    DuplicateApply {
        /// Client.
        client: Addr,
        /// Session.
        session: u16,
        /// The re-applied sequence number.
        seq: u32,
    },
    /// A client-acknowledged update never reached the server's handler.
    AckedNotApplied {
        /// Client.
        client: Addr,
        /// Session.
        session: u16,
        /// The lost sequence number.
        seq: u32,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::OrderRegression {
                client,
                session,
                prev,
                seq,
                epoch,
            } => write!(
                f,
                "order regression: {client}/s{session} applied {seq} after {prev} in epoch {epoch}"
            ),
            AuditViolation::DuplicateApply {
                client,
                session,
                seq,
            } => write!(f, "duplicate apply: {client}/s{session} seq {seq}"),
            AuditViolation::AckedNotApplied {
                client,
                session,
                seq,
            } => write!(f, "acknowledged update lost: {client}/s{session} seq {seq}"),
        }
    }
}

/// Summary of a clean audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Updates applied in total.
    pub applied: usize,
    /// Of which redo resends.
    pub redo: usize,
    /// Distinct (client, session) streams.
    pub sessions: usize,
    /// Client-acknowledged updates checked.
    pub acked_checked: usize,
}

/// Verifies the invariants; `acked` lists every `(client, session, seq)`
/// update the clients saw acknowledged. The violations come in the order
/// the updates were recorded, then the lost acknowledgements in `acked`
/// order.
pub fn verify(
    log: &AuditLog,
    acked: &[(Addr, u16, u32)],
) -> Result<AuditReport, Vec<AuditViolation>> {
    let lost = acked
        .iter()
        .filter(|&&(client, session, seq)| !log.was_applied(client, session, seq))
        .map(|&(client, session, seq)| AuditViolation::AckedNotApplied {
            client,
            session,
            seq,
        });
    let violations: Vec<_> = log.violations.iter().cloned().chain(lost).collect();
    if violations.is_empty() {
        Ok(AuditReport {
            applied: log.len,
            redo: log.redo,
            sessions: log.sessions.len(),
            acked_checked: acked.len(),
        })
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u32, epoch: u64, redo: bool) -> AuditEntry {
        AuditEntry {
            client: Addr(1),
            session: 0,
            seq,
            redo,
            epoch,
        }
    }

    #[test]
    fn clean_sequential_log_passes() {
        let mut log = AuditLog::new();
        for seq in 0..10 {
            log.record(entry(seq, 0, false));
        }
        let acked: Vec<_> = (0..10).map(|s| (Addr(1), 0, s)).collect();
        let report = verify(&log, &acked).expect("clean");
        assert_eq!(report.applied, 10);
        assert_eq!(report.acked_checked, 10);
        assert_eq!(report.sessions, 1);
        assert_eq!(report.redo, 0);
    }

    #[test]
    fn regression_within_epoch_is_flagged() {
        let mut log = AuditLog::new();
        log.record(entry(5, 0, false));
        log.record(entry(3, 0, false));
        let err = verify(&log, &[]).unwrap_err();
        assert!(matches!(
            err[0],
            AuditViolation::OrderRegression {
                prev: 5,
                seq: 3,
                ..
            }
        ));
        assert!(err[0].to_string().contains("order regression"));
    }

    #[test]
    fn restart_at_lower_seq_in_new_epoch_is_allowed_but_duplicate_is_not() {
        let mut log = AuditLog::new();
        log.record(entry(0, 0, false));
        log.record(entry(1, 0, false));
        // Crash; epoch 1 replays seq 2 (never durably recorded as applied
        // is impossible with the WAL, but a *new* seq 2 redo is fine).
        log.record(entry(2, 1, true));
        let report = verify(&log, &[(Addr(1), 0, 2)]).expect("clean");
        assert_eq!(report.redo, 1);
        // Re-applying seq 1 in epoch 1 is a duplicate (and, arriving after
        // seq 2 in the same epoch, also an order regression).
        log.record(entry(1, 1, true));
        let err = verify(&log, &[]).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, AuditViolation::DuplicateApply { seq: 1, .. })));
        assert!(err
            .iter()
            .any(|v| matches!(v, AuditViolation::OrderRegression { seq: 1, .. })));
    }

    #[test]
    fn acked_but_never_applied_is_flagged() {
        let log = AuditLog::new();
        let err = verify(&log, &[(Addr(2), 3, 7)]).unwrap_err();
        assert_eq!(
            err[0],
            AuditViolation::AckedNotApplied {
                client: Addr(2),
                session: 3,
                seq: 7
            }
        );
        assert!(err[0].to_string().contains("lost"));
    }

    #[test]
    fn independent_sessions_do_not_interfere() {
        let mut log = AuditLog::new();
        for seq in 0..5 {
            log.record(AuditEntry {
                client: Addr(1),
                session: 0,
                seq,
                redo: false,
                epoch: 0,
            });
            log.record(AuditEntry {
                client: Addr(2),
                session: 0,
                seq,
                redo: false,
                epoch: 0,
            });
        }
        let report = verify(&log, &[]).expect("clean");
        assert_eq!(report.sessions, 2);
    }
}
