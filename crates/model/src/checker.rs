//! The durable-linearizability checker.
//!
//! [`check`] takes a recorded history (see [`pmnet_telemetry::history`])
//! plus an optional snapshot of the server's durable KV state and
//! verifies that the run is explainable as a correct sequential
//! execution:
//!
//! 1. **Exactly-once, in-order apply** — per `(client, session)` the
//!    applied sequence numbers are strictly increasing; an equal number is
//!    a duplicate apply (the dedup bug), a smaller one an order
//!    regression. Sound across crash epochs because every apply is
//!    WAL-persisted before it is acknowledged.
//! 2. **Apply provenance** — every apply has a matching client invocation
//!    with byte-identical payload, and a redo-flagged apply has a prior
//!    device log record to replay from.
//! 3. **Durability of acknowledgements** — every acknowledged update is
//!    applied somewhere in the history, and each of its fragments rests on
//!    evidence: a device-acked fragment on its device log record, a
//!    server-acked one on the update's apply before the completion.
//! 4. **Real-time write order** — two writes to the same key where one
//!    completed before the other was invoked must be applied in that
//!    order (pairs whose windows overlap are unconstrained, and counted).
//!    Across keys, rules 2 and 3 carry the order: a server-acked fragment
//!    needs its update's apply before the completion, so on a time-ordered
//!    history anything invoked after that completion applies after it.
//! 5. **Read values** — every KV read (server- or cache-served) returns a
//!    value some ack-order-consistent linearization allows: at least as
//!    new as the newest write completed before the read was invoked, and
//!    invoked before the read completed. A write invoked but never
//!    applied is treated as newest-possible (position `∞`) — generous,
//!    never a false positive.
//! 6. **Final durable state** — replaying the apply stream through the
//!    sequential [`ReferenceKv`] must reproduce the server's store
//!    byte-for-byte (skipped when the server is still crashed).
//!
//! The checker reports the **first divergent op** — the violation with the
//! smallest history index (final-state divergence anchors past the end) —
//! wrapped in a replayable text artifact (see [`crate::artifact`]).

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use pmnet_core::kvproto::KvFrame;
use pmnet_net::Addr;
use pmnet_sim::hash::FixedMap;
use pmnet_sim::record::hex;
use pmnet_sim::Time;
use pmnet_telemetry::history::{Event, EventKind, FragAcks};
use pmnet_telemetry::span::OpKind;

use crate::artifact::render;
use crate::reference::{write_key, write_value, ReferenceKv};

/// Identity of one client operation: `(client, session, seq)`. Update and
/// bypass sequence spaces are independent; maps are kept per kind.
pub type OpId = (Addr, u16, u32);

/// What a passing check covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Events in the history.
    pub events: usize,
    /// Client invocations.
    pub invokes: usize,
    /// Client completions.
    pub completes: usize,
    /// Server applies.
    pub applies: usize,
    /// KV reads whose returned value was validated.
    pub reads_checked: usize,
    /// Keys compared against the reference model's final state.
    pub state_keys_checked: usize,
    /// Same-key write pairs whose real-time windows overlapped (legally
    /// orderable either way). Zero in a concurrent-apply campaign means
    /// the schedule never actually raced two writes.
    pub overlapping_write_pairs: usize,
    /// Same-key write pairs constrained by real time and verified to be
    /// applied in that order.
    pub ordered_write_pairs: usize,
}

/// The first point where the run departs from every legal linearization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// History index of the divergent event (`history.len()` for a
    /// final-state divergence).
    pub index: usize,
    /// Human-readable violation.
    pub reason: String,
    /// Replayable text artifact: the full history, the durable snapshot,
    /// and this divergence (see [`crate::artifact::replay`]).
    pub artifact: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence at event {}: {}", self.index, self.reason)
    }
}

fn op(client: Addr, session: u16, seq: u32) -> String {
    format!("client {} session {} seq {}", client.0, session, seq)
}

/// One write to a KV key, positioned in the apply order (`usize::MAX` =
/// invoked but never applied).
struct WriteRec {
    pos: usize,
    /// History index of the apply (`usize::MAX` when never applied).
    apply_idx: usize,
    id: OpId,
    invoke_at: Time,
    complete_at: Option<Time>,
    value: Option<Vec<u8>>,
}

/// Checks `history` (and, when the server is inspectable, its durable
/// state `durable`) against the reference semantics. Returns the first
/// divergence, or coverage statistics when every rule holds.
pub fn check(
    history: &[Event],
    durable: Option<&BTreeMap<Vec<u8>, Vec<u8>>>,
) -> Result<CheckStats, Divergence> {
    let mut stats = CheckStats {
        events: history.len(),
        ..CheckStats::default()
    };
    // (index, reason) candidates; the smallest index wins.
    let mut candidates: Vec<(usize, String)> = Vec::new();

    // --- Pass 1: index the history. -------------------------------------
    let mut update_invokes: FixedMap<OpId, (usize, Time, &Bytes)> = FixedMap::default();
    let mut bypass_invokes: FixedMap<OpId, (usize, Time, &Bytes)> = FixedMap::default();
    let mut update_completes: FixedMap<OpId, (usize, Time, &[FragAcks])> = FixedMap::default();
    let mut bypass_completes: Vec<(usize, Time, OpId, Option<&Bytes>)> = Vec::new();
    let mut device_logged: FixedMap<(Addr, u16), Vec<(u32, usize)>> = FixedMap::default();
    // Each fragment seq's first `DeviceLogged` index.
    let mut first_logged: FixedMap<OpId, usize> = FixedMap::default();
    let mut applies: Vec<(usize, OpId, bool, u64, &Bytes)> = Vec::new();
    for (idx, e) in history.iter().enumerate() {
        let id: OpId = (e.client, e.session, e.seq);
        match &e.kind {
            EventKind::Invoke { kind, payload } => {
                stats.invokes += 1;
                let map = match kind {
                    OpKind::Update => &mut update_invokes,
                    OpKind::Read => &mut bypass_invokes,
                };
                map.entry(id).or_insert((idx, e.at, payload));
            }
            EventKind::Complete { kind, reply, frags } => {
                stats.completes += 1;
                match kind {
                    OpKind::Update => {
                        update_completes.entry(id).or_insert((idx, e.at, frags));
                    }
                    OpKind::Read => {
                        bypass_completes.push((idx, e.at, id, reply.as_ref()));
                    }
                }
            }
            EventKind::Apply {
                redo,
                epoch,
                payload,
            } => {
                stats.applies += 1;
                applies.push((idx, id, *redo, *epoch, payload));
            }
            EventKind::DeviceLogged { .. } => {
                first_logged.entry(id).or_insert(idx);
                device_logged
                    .entry((e.client, e.session))
                    .or_default()
                    .push((e.seq, idx));
            }
            EventKind::CacheServe { .. } => {}
        }
    }
    // `DeviceLogged` evidence for a fragment of `(client, session, seq)`
    // recorded before history index `before`: fragment seqs are at most
    // the update's last-fragment seq.
    let has_log_evidence = |client: Addr, session: u16, seq: u32, before: usize| {
        device_logged
            .get(&(client, session))
            .is_some_and(|v| v.iter().any(|&(s, i)| s <= seq && i < before))
    };

    // --- Rules 1+2: the apply stream. -----------------------------------
    let mut last_applied: FixedMap<(Addr, u16), u32> = FixedMap::default();
    for &(idx, (client, session, seq), redo, _epoch, payload) in &applies {
        match last_applied.get(&(client, session)) {
            Some(&prev) if seq == prev => candidates.push((
                idx,
                format!(
                    "duplicate apply: update {} applied twice despite equal SeqNum",
                    op(client, session, seq)
                ),
            )),
            Some(&prev) if seq < prev => candidates.push((
                idx,
                format!(
                    "apply order regression: {} applied after seq {}",
                    op(client, session, seq),
                    prev
                ),
            )),
            _ => {}
        }
        let e = last_applied.entry((client, session)).or_insert(seq);
        *e = (*e).max(seq);
        match update_invokes.get(&(client, session, seq)) {
            None => candidates.push((
                idx,
                format!(
                    "apply without invocation: no client invoked {}",
                    op(client, session, seq)
                ),
            )),
            Some(&(inv_idx, _, inv_payload)) => {
                if inv_idx > idx {
                    candidates.push((
                        idx,
                        format!("{} applied before it was invoked", op(client, session, seq)),
                    ));
                } else if inv_payload != payload {
                    candidates.push((
                        idx,
                        format!(
                            "apply payload mismatch for {}: invoked {} but applied {}",
                            op(client, session, seq),
                            hex(inv_payload),
                            hex(payload)
                        ),
                    ));
                }
            }
        }
        if redo && !has_log_evidence(client, session, seq, idx) {
            candidates.push((
                idx,
                format!(
                    "redo apply of {} with no prior device log record",
                    op(client, session, seq)
                ),
            ));
        }
    }

    // --- Rule 3: acknowledged updates are durable. ----------------------
    let mut first_apply_idx: FixedMap<OpId, usize> = FixedMap::default();
    for &(idx, id, ..) in &applies {
        first_apply_idx.entry(id).or_insert(idx);
    }
    for (&(client, session, seq), &(cidx, _at, frags)) in &update_completes {
        let applied_at = first_apply_idx.get(&(client, session, seq)).copied();
        if applied_at.is_none() {
            candidates.push((
                cidx,
                format!(
                    "acknowledged update {} was never applied",
                    op(client, session, seq)
                ),
            ));
        }
        // Fragment seqs run up to the update's last, which `seq` is.
        let Some(first_seq) = seq.checked_sub(frags.len().saturating_sub(1) as u32) else {
            let (n, update) = (frags.len(), op(client, session, seq));
            let reason =
                format!("update {update} completed {n} fragments, more than its seq allows");
            candidates.push((cidx, reason));
            continue;
        };
        for (i, f) in frags.iter().enumerate() {
            let frag_seq = first_seq + i as u32; // at most `seq`
            let logged = || {
                let first = first_logged.get(&(client, session, frag_seq));
                first.is_some_and(|&l| l < cidx)
            };
            let claim = if f.device_acks > 0 && !logged() {
                let n = f.device_acks;
                format!("claims {n} device ACK(s) but no device logged it")
            } else if f.server_acked && applied_at.is_some_and(|a| a > cidx) {
                "claims the server's ACK before the update was applied".to_string()
            } else if f.device_acks == 0 && !f.server_acked {
                "completed with neither a device ACK nor the server's".to_string()
            } else {
                continue;
            };
            let update = op(client, session, seq);
            let reason = format!("fragment seq {frag_seq} of update {update} {claim}");
            candidates.push((cidx, reason));
        }
    }

    // --- Rules 4+5 prep: per-key write records in apply order. ----------
    let mut writes_by_key: FixedMap<Vec<u8>, Vec<WriteRec>> = FixedMap::default();
    for &(idx, id, _redo, _epoch, payload) in &applies {
        let Some(k) = write_key(payload) else {
            continue;
        };
        let Some(&(_, invoke_at, _)) = update_invokes.get(&id) else {
            continue; // flagged by rule 2 already
        };
        let complete_at = update_completes.get(&id).map(|&(_, t, ..)| t);
        let recs = writes_by_key.entry(k).or_default();
        let pos = recs.len() + 1;
        recs.push(WriteRec {
            pos,
            apply_idx: idx,
            id,
            invoke_at,
            complete_at,
            value: write_value(payload).expect("write_key implies a KV frame"),
        });
    }
    // Invoked-but-never-applied writes: position "infinity".
    for (id, &(_, invoke_at, payload)) in &update_invokes {
        if first_apply_idx.contains_key(id) {
            continue;
        }
        let Some(k) = write_key(payload) else {
            continue;
        };
        writes_by_key.entry(k).or_default().push(WriteRec {
            pos: usize::MAX,
            apply_idx: usize::MAX,
            id: *id,
            invoke_at,
            complete_at: update_completes.get(id).map(|&(_, t, ..)| t),
            value: write_value(payload).expect("write_key implies a KV frame"),
        });
    }

    // --- Rule 4: real-time order of same-key writes. --------------------
    // The partial order made explicit, pair by pair. For two applied
    // writes to the same key (a before b in apply order), real time
    // constrains them only when one's Complete precedes the other's
    // Invoke; overlapping windows are legally orderable either way and
    // are *counted*, so a campaign that claims to have raced writes can
    // prove it was not vacuous.
    for recs in writes_by_key.values() {
        let applied: Vec<&WriteRec> = recs.iter().filter(|w| w.pos != usize::MAX).collect();
        for (i, a) in applied.iter().enumerate() {
            for b in &applied[i + 1..] {
                if b.complete_at.is_some_and(|c| c < a.invoke_at) {
                    candidates.push((
                        a.apply_idx,
                        format!(
                            "real-time order violation: {} completed before {} was \
                             invoked, yet was applied after it",
                            op(b.id.0, b.id.1, b.id.2),
                            op(a.id.0, a.id.1, a.id.2)
                        ),
                    ));
                } else if a.complete_at.is_some_and(|c| c < b.invoke_at) {
                    stats.ordered_write_pairs += 1;
                } else {
                    stats.overlapping_write_pairs += 1;
                }
            }
        }
    }

    // --- Rule 5: read values. -------------------------------------------
    let no_writes: Vec<WriteRec> = Vec::new();
    for &(idx, complete_at, id, reply) in &bypass_completes {
        let Some(&(_, invoke_at, inv_payload)) = bypass_invokes.get(&id) else {
            continue;
        };
        let Some(KvFrame::Get { key }) = KvFrame::decode(inv_payload) else {
            continue; // not a KV read (opaque bypass)
        };
        let Some(reply) = reply else { continue };
        let Some(KvFrame::Value { value, found, .. }) = KvFrame::decode(reply) else {
            continue;
        };
        stats.reads_checked += 1;
        let observed: Option<Vec<u8>> = if found { Some(value.to_vec()) } else { None };
        let writes = writes_by_key.get(&key.to_vec()).unwrap_or(&no_writes);
        // The newest write that must be visible: completed before the
        // read was invoked.
        let required_pos = writes
            .iter()
            .filter(|w| w.complete_at.is_some_and(|c| c < invoke_at))
            .map(|w| w.pos)
            .max()
            .unwrap_or(0);
        let valid_initial = required_pos == 0 && observed.is_none();
        let valid = valid_initial
            || writes.iter().any(|w| {
                w.pos >= required_pos && w.invoke_at <= complete_at && w.value == observed
            });
        if !valid {
            let reason = match &observed {
                // No client ever wrote the value: not an old write
                // resurfacing but one made up on the way (a truncated or
                // spliced value).
                Some(v) if !writes.iter().any(|w| w.value == observed) => format!(
                    "never-written read of key {} ({}): returned value {}, which no client \
                     wrote to the key",
                    hex(&key),
                    op(id.0, id.1, id.2),
                    hex(v)
                ),
                _ => {
                    let obs = match &observed {
                        Some(v) => format!("value {}", hex(v)),
                        None => "not-found".to_string(),
                    };
                    format!(
                        "stale read of key {} ({}): returned {obs}, but a newer write to the \
                         key completed before the read was invoked",
                        hex(&key),
                        op(id.0, id.1, id.2)
                    )
                }
            };
            candidates.push((idx, reason));
        }
    }

    // --- Rule 6: final durable state vs the reference model. ------------
    if let Some(actual) = durable {
        let mut model = ReferenceKv::new();
        for &(_idx, (client, session, seq), _redo, _epoch, payload) in &applies {
            model.apply(client, session, seq, payload);
        }
        stats.state_keys_checked = model.map().len().max(actual.len());
        if let Some((k, expected, got)) = model.first_difference(actual) {
            let show = |v: &Option<Vec<u8>>| match v {
                Some(v) => hex(v),
                None => "<absent>".to_string(),
            };
            candidates.push((
                history.len(),
                format!(
                    "final state divergence at key {}: reference model has {}, server has {}",
                    hex(&k),
                    show(&expected),
                    show(&got)
                ),
            ));
        }
    }

    match candidates.into_iter().min_by_key(|&(idx, _)| idx) {
        None => Ok(stats),
        Some((index, reason)) => Err(Divergence {
            artifact: render(history, durable, index, &reason),
            index,
            reason,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(key: &[u8], value: &[u8]) -> Bytes {
        KvFrame::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
        }
        .encode()
    }

    fn get(key: &[u8]) -> Bytes {
        KvFrame::Get {
            key: Bytes::copy_from_slice(key),
        }
        .encode()
    }

    fn value_reply(key: &[u8], value: &[u8], found: bool) -> Bytes {
        KvFrame::Value {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            found,
        }
        .encode()
    }

    fn ev(at: u64, seq: u32, kind: EventKind) -> Event {
        Event {
            at: Time::from_nanos(at),
            client: Addr(1),
            session: 0,
            seq,
            kind,
        }
    }

    fn invoke(at: u64, seq: u32, payload: Bytes) -> Event {
        ev(
            at,
            seq,
            EventKind::Invoke {
                kind: OpKind::Update,
                payload,
            },
        )
    }

    fn complete(at: u64, seq: u32) -> Event {
        ev(
            at,
            seq,
            EventKind::Complete {
                kind: OpKind::Update,
                reply: None,
                frags: vec![FragAcks {
                    device_acks: 1,
                    server_acked: false,
                }],
            },
        )
    }

    fn logged(at: u64, seq: u32) -> Event {
        ev(at, seq, EventKind::DeviceLogged { device: Addr(2000) })
    }

    fn apply(at: u64, seq: u32, payload: Bytes) -> Event {
        ev(
            at,
            seq,
            EventKind::Apply {
                redo: false,
                epoch: 0,
                payload,
            },
        )
    }

    /// invoke → device log → complete → apply, for one Set.
    fn healthy_op(t0: u64, seq: u32, payload: &Bytes) -> Vec<Event> {
        vec![
            invoke(t0, seq, payload.clone()),
            logged(t0 + 10, seq),
            complete(t0 + 20, seq),
            apply(t0 + 30, seq, payload.clone()),
        ]
    }

    #[test]
    fn healthy_history_passes_with_state() {
        let p0 = set(b"k", b"v1");
        let p1 = set(b"k", b"v2");
        let mut h = healthy_op(0, 0, &p0);
        h.extend(healthy_op(100, 1, &p1));
        let mut model = ReferenceKv::new();
        model.apply(Addr(1), 0, 0, &p0);
        model.apply(Addr(1), 0, 1, &p1);
        let stats = check(&h, Some(model.map())).unwrap();
        assert_eq!(stats.applies, 2);
        assert_eq!(stats.invokes, 2);
        assert!(stats.state_keys_checked >= 2);
    }

    #[test]
    fn duplicate_apply_is_first_divergence() {
        let p = set(b"k", b"v");
        let mut h = healthy_op(0, 0, &p);
        h.push(apply(50, 0, p.clone())); // the dedup bug
        let d = check(&h, None).unwrap_err();
        assert_eq!(d.index, 4);
        assert!(d.reason.contains("duplicate apply"), "{}", d.reason);
        assert!(d.artifact.contains("duplicate apply"));
    }

    #[test]
    fn order_regression_is_caught() {
        let p0 = set(b"a", b"1");
        let p1 = set(b"b", b"2");
        let mut h = vec![
            invoke(0, 0, p0.clone()),
            logged(1, 0),
            complete(2, 0),
            invoke(10, 1, p1.clone()),
            logged(11, 1),
            complete(12, 1),
        ];
        h.push(apply(20, 1, p1));
        h.push(apply(21, 0, p0));
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("order regression"), "{}", d.reason);
        assert_eq!(d.index, 7);
    }

    #[test]
    fn acked_but_never_applied_is_caught() {
        let p = set(b"k", b"v");
        let h = vec![invoke(0, 0, p.clone()), logged(1, 0), complete(2, 0)];
        let d = check(&h, None).unwrap_err();
        assert_eq!(d.index, 2);
        assert!(d.reason.contains("never applied"), "{}", d.reason);
    }

    #[test]
    fn apply_payload_mismatch_is_caught() {
        let p = set(b"k", b"v");
        let wrong = set(b"k", b"evil");
        let mut h = vec![invoke(0, 0, p.clone()), logged(1, 0), complete(2, 0)];
        h.push(apply(3, 0, wrong));
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("payload mismatch"), "{}", d.reason);
    }

    #[test]
    fn device_ack_without_log_record_is_caught() {
        let p = set(b"k", b"v");
        let h = vec![
            invoke(0, 0, p.clone()),
            complete(2, 0), // claims device_acks=1, but nothing was logged
            apply(3, 0, p.clone()),
        ];
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("no device logged it"), "{}", d.reason);
    }

    #[test]
    fn each_fragment_rests_on_its_own_evidence() {
        // Two fragments, seqs 0 and 1: the first device-acked, the second
        // bypassed by a full log and then server-acked.
        let p = set(b"k", b"v");
        let acks = |device_acks, server_acked| FragAcks {
            device_acks,
            server_acked,
        };
        let done = |frags| {
            let (kind, reply) = (OpKind::Update, None);
            ev(30, 1, EventKind::Complete { kind, reply, frags })
        };
        let mut h = vec![
            invoke(0, 1, p.clone()),
            logged(10, 0),
            apply(20, 1, p),
            done(vec![acks(1, false), acks(0, true)]),
        ];
        check(&h, None).unwrap();
        // A device ACK for the second fragment needs its own log record.
        h[3] = done(vec![acks(1, false), acks(1, false)]);
        let d = check(&h, None).unwrap_err();
        let want = "fragment seq 1 of update client 1 session 0 seq 1 claims 1 device ACK(s)";
        assert!(d.reason.contains(want), "{}", d.reason);
    }

    #[test]
    fn stale_read_is_caught() {
        let p0 = set(b"k", b"v1");
        let p1 = set(b"k", b"v2");
        let mut h = healthy_op(0, 0, &p0);
        h.extend(healthy_op(100, 1, &p1));
        // Read invoked after v2's ack returns v1: stale.
        h.push(ev(
            200,
            0,
            EventKind::Invoke {
                kind: OpKind::Read,
                payload: get(b"k"),
            },
        ));
        h.push(ev(
            210,
            0,
            EventKind::Complete {
                kind: OpKind::Read,
                reply: Some(value_reply(b"k", b"v1", true)),
                frags: vec![FragAcks {
                    device_acks: 0,
                    server_acked: false,
                }],
            },
        ));
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("stale read"), "{}", d.reason);
        assert_eq!(d.index, 9);
        // The same read returning v2 passes.
        let len = h.len();
        h[len - 1] = ev(
            210,
            0,
            EventKind::Complete {
                kind: OpKind::Read,
                reply: Some(value_reply(b"k", b"v2", true)),
                frags: vec![FragAcks {
                    device_acks: 0,
                    server_acked: false,
                }],
            },
        );
        let stats = check(&h, None).unwrap();
        assert_eq!(stats.reads_checked, 1);
    }

    #[test]
    fn a_read_of_a_value_no_client_wrote_is_named_as_such() {
        // A truncated value: the device served the first part of v2.
        let mut h = healthy_op(0, 0, &set(b"k", b"v1"));
        h.extend(healthy_op(100, 1, &set(b"k", b"v2-whole")));
        h.push(ev(
            200,
            0,
            EventKind::Invoke {
                kind: OpKind::Read,
                payload: get(b"k"),
            },
        ));
        h.push(ev(
            210,
            0,
            EventKind::Complete {
                kind: OpKind::Read,
                reply: Some(value_reply(b"k", b"v2", true)),
                frags: vec![FragAcks {
                    device_acks: 0,
                    server_acked: false,
                }],
            },
        ));
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("never-written read"), "{}", d.reason);
        assert!(!d.reason.contains("stale read"), "{}", d.reason);
        assert_eq!(d.index, 9);
    }

    #[test]
    fn concurrent_read_may_return_either_value() {
        let p0 = set(b"k", b"v1");
        let p1 = set(b"k", b"v2");
        let mut h = healthy_op(0, 0, &p0);
        // v2 is invoked but completes only after the read: the read may
        // legally return v1 (old) or v2 (new, already invoked).
        h.push(invoke(100, 1, p1.clone()));
        for returned in [&b"v1"[..], &b"v2"[..]] {
            let mut hh = h.clone();
            hh.push(ev(
                110,
                0,
                EventKind::Invoke {
                    kind: OpKind::Read,
                    payload: get(b"k"),
                },
            ));
            hh.push(ev(
                120,
                0,
                EventKind::Complete {
                    kind: OpKind::Read,
                    reply: Some(value_reply(b"k", returned, true)),
                    frags: vec![FragAcks {
                        device_acks: 0,
                        server_acked: false,
                    }],
                },
            ));
            hh.push(logged(130, 1));
            hh.push(complete(140, 1));
            hh.push(apply(150, 1, p1.clone()));
            let r = check(&hh, None);
            assert!(r.is_ok(), "returned {:?}: {:?}", returned, r);
        }
    }

    #[test]
    fn not_found_read_is_validated() {
        let p0 = set(b"k", b"v1");
        let mut h = healthy_op(0, 0, &p0);
        h.push(ev(
            100,
            0,
            EventKind::Invoke {
                kind: OpKind::Read,
                payload: get(b"k"),
            },
        ));
        h.push(ev(
            110,
            0,
            EventKind::Complete {
                kind: OpKind::Read,
                reply: Some(value_reply(b"k", b"", false)),
                frags: vec![FragAcks {
                    device_acks: 0,
                    server_acked: false,
                }],
            },
        ));
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("not-found"), "{}", d.reason);
    }

    #[test]
    fn final_state_divergence_anchors_past_the_end() {
        let p = set(b"k", b"v");
        let h = healthy_op(0, 0, &p);
        let tampered = BTreeMap::from([(b"k".to_vec(), b"other".to_vec())]);
        let d = check(&h, Some(&tampered)).unwrap_err();
        assert_eq!(d.index, h.len());
        assert!(d.reason.contains("final state divergence"), "{}", d.reason);
    }

    #[test]
    fn redo_apply_needs_a_log_record() {
        let p = set(b"k", b"v");
        let h = vec![
            invoke(0, 0, p.clone()),
            ev(
                10,
                0,
                EventKind::Apply {
                    redo: true,
                    epoch: 1,
                    payload: p.clone(),
                },
            ),
        ];
        let d = check(&h, None).unwrap_err();
        assert!(d.reason.contains("no prior device log"), "{}", d.reason);
    }

    /// Two sessions' writes to one key with overlapping Invoke/Complete
    /// windows, applied in either order.
    fn overlapping_writes(apply_first: u32) -> Vec<Event> {
        let p0 = set(b"k", b"v1");
        let p1 = set(b"k", b"v2");
        let mk = |session: u16, seq: u32, t0: u64, p: &Bytes| {
            vec![
                Event {
                    at: Time::from_nanos(t0),
                    client: Addr(1),
                    session,
                    seq,
                    kind: EventKind::Invoke {
                        kind: OpKind::Update,
                        payload: p.clone(),
                    },
                },
                Event {
                    at: Time::from_nanos(t0 + 5),
                    client: Addr(1),
                    session,
                    seq,
                    kind: EventKind::DeviceLogged { device: Addr(2000) },
                },
                Event {
                    at: Time::from_nanos(t0 + 100),
                    client: Addr(1),
                    session,
                    seq,
                    kind: EventKind::Complete {
                        kind: OpKind::Update,
                        reply: None,
                        frags: vec![FragAcks {
                            device_acks: 1,
                            server_acked: false,
                        }],
                    },
                },
            ]
        };
        let mut h: Vec<Event> = Vec::new();
        h.extend(mk(0, 0, 0, &p0));
        h.extend(mk(1, 0, 10, &p1)); // invoked before either completes
        let apply_of = |session: u16, at: u64, p: &Bytes| Event {
            at: Time::from_nanos(at),
            client: Addr(1),
            session,
            seq: 0,
            kind: EventKind::Apply {
                redo: false,
                epoch: 0,
                payload: p.clone(),
            },
        };
        if apply_first == 0 {
            h.push(apply_of(0, 200, &p0));
            h.push(apply_of(1, 210, &p1));
        } else {
            h.push(apply_of(1, 200, &p1));
            h.push(apply_of(0, 210, &p0));
        }
        h
    }

    #[test]
    fn overlapping_writes_pass_in_either_apply_order_and_are_counted() {
        for first in [0, 1] {
            let h = overlapping_writes(first);
            let stats = check(&h, None).unwrap();
            assert_eq!(stats.overlapping_write_pairs, 1, "apply_first={first}");
            assert_eq!(stats.ordered_write_pairs, 0);
        }
    }

    #[test]
    fn concurrent_mode_still_catches_real_time_same_key_violations() {
        // Session 1's write completes before session 0's is invoked, yet
        // session 0's is applied first: no linearization explains it.
        let p0 = set(b"k", b"v1");
        let p1 = set(b"k", b"v2");
        let mut h = vec![
            Event {
                at: Time::from_nanos(0),
                client: Addr(1),
                session: 1,
                seq: 0,
                kind: EventKind::Invoke {
                    kind: OpKind::Update,
                    payload: p1.clone(),
                },
            },
            Event {
                at: Time::from_nanos(5),
                client: Addr(1),
                session: 1,
                seq: 0,
                kind: EventKind::DeviceLogged { device: Addr(2000) },
            },
            Event {
                at: Time::from_nanos(10),
                client: Addr(1),
                session: 1,
                seq: 0,
                kind: EventKind::Complete {
                    kind: OpKind::Update,
                    reply: None,
                    frags: vec![FragAcks {
                        device_acks: 1,
                        server_acked: false,
                    }],
                },
            },
        ];
        h.extend(healthy_op(100, 0, &p0)); // session 0, invoked at t=100
        h.push(Event {
            at: Time::from_nanos(300),
            client: Addr(1),
            session: 1,
            seq: 0,
            kind: EventKind::Apply {
                redo: false,
                epoch: 0,
                payload: p1.clone(),
            },
        });
        let d = check(&h, None).unwrap_err();
        assert!(
            d.reason.contains("real-time order violation"),
            "{}",
            d.reason
        );
    }

    #[test]
    fn server_acked_completion_fences_later_invokes_across_keys() {
        // Update A (key a) rests solely on the server's ACK — so it was
        // applied before it completed. Update B (key b) is invoked after
        // A completed but applied *before* A: impossible, on one apply
        // thread as on four, so the default configuration rejects it.
        let pa = set(b"a", b"1");
        let pb = set(b"b", b"2");
        let server_acked_complete = |at: u64, session: u16| Event {
            at: Time::from_nanos(at),
            client: Addr(1),
            session,
            seq: 0,
            kind: EventKind::Complete {
                kind: OpKind::Update,
                reply: None,
                frags: vec![FragAcks {
                    device_acks: 0,
                    server_acked: true,
                }],
            },
        };
        let with_session = |mut e: Event, session: u16| {
            e.session = session;
            e
        };
        let h = vec![
            invoke(0, 0, pa.clone()),                    // A invoked (session 0)
            server_acked_complete(50, 0),                // A completed on server ACK
            with_session(invoke(100, 0, pb.clone()), 1), // B invoked after A completed
            with_session(apply(200, 0, pb.clone()), 1),  // B applied first…
            apply(210, 0, pa.clone()),                   // …A applied after: violation
            with_session(server_acked_complete(300, 1), 1),
        ];
        // Rule 3 rejects it at A's completion: it claims the server's ACK
        // before A was applied.
        let d = check(&h, None).unwrap_err();
        assert_eq!(d.index, 1);
        assert!(
            d.reason
                .contains("claims the server's ACK before the update was applied"),
            "{}",
            d.reason
        );
        // Applied the other way round, the history is fine.
        let h_ok = vec![
            invoke(0, 0, pa.clone()),
            server_acked_complete(40, 0),
            with_session(invoke(100, 0, pb.clone()), 1),
            apply(30, 0, pa.clone()),
            with_session(apply(200, 0, pb.clone()), 1),
            with_session(server_acked_complete(300, 1), 1),
        ];
        // Re-sort by time so history order matches apply order.
        let mut h_ok = h_ok;
        h_ok.sort_by_key(|e| e.at);
        check(&h_ok, None).unwrap();
    }

    #[test]
    fn opaque_histories_pass_vacuously_on_values() {
        // MicroSource-style opaque payloads: structural rules still apply,
        // value rules have nothing to say.
        let p = Bytes::from_static(b"Opaque-payload");
        let h = healthy_op(0, 0, &p);
        let mut model = ReferenceKv::new();
        model.apply(Addr(1), 0, 0, &p);
        let stats = check(&h, Some(model.map())).unwrap();
        assert_eq!(stats.reads_checked, 0);
        assert_eq!(stats.applies, 1);
    }
}
