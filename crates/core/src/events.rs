//! The recorded-history event vocabulary.
//!
//! [`crate::ClientLib`], [`crate::ServerLib`] and [`crate::PmnetDevice`]
//! each accept a cloned [`Recorder`] handle (`set_recorder`) and, while
//! it is armed, append one [`Event`] per PMNet-visible state
//! transition: a client invoking or completing a request, the server
//! applying an update, a device logging an update fragment or serving a
//! read from its cache. The merged, sim-timestamped stream is the input to
//! `pmnet-model`'s durable-linearizability checker.
//!
//! Recording is pure observation: no RNG draws, no timers, no packets —
//! an attached recorder cannot change a run's behaviour (campaign digests
//! are bit-identical with recording on or off). The hooks are always
//! compiled; every hook body sits under [`Recorder::is_armed`], so a
//! detached run pays one branch per hook — it builds no [`Event`] and
//! touches no `Bytes` refcount — exactly like a detached `Telemetry`
//! (`tests/alloc_budget.rs` runs detached).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use pmnet_net::Addr;
use pmnet_sim::Time;

use crate::client::RequestKind;

/// What happened (see the module docs for who records which variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A client handed a request to the PMNet library (`PMNet_send_update`
    /// / `PMNet_bypass`). For fragmented updates `seq` is the last
    /// fragment's sequence number — the one the server's apply reports.
    Invoke {
        /// Update or bypass.
        kind: RequestKind,
        /// The full, pre-fragmentation request payload.
        payload: Bytes,
    },
    /// The client's completion: the request reached the ack strength its
    /// mode requires (device PM, replication chain, or server ACK).
    Complete {
        /// Update or bypass.
        kind: RequestKind,
        /// The reply payload, for requests that carry one (reads).
        reply: Option<Bytes>,
        /// Weakest per-fragment device-ACK count at completion — the
        /// replication-chain ack strength this completion rests on.
        device_acks: u8,
        /// True if every fragment also saw the server's ACK.
        server_acked: bool,
    },
    /// The server's library delivered the (reassembled, in-order) update
    /// to the application handler.
    Apply {
        /// True if the update arrived as a redo resend from a device log.
        redo: bool,
        /// The server's crash epoch at apply time.
        epoch: u64,
        /// The reassembled update payload as applied.
        payload: Bytes,
    },
    /// A PMNet device persisted one update fragment in its redo log.
    DeviceLogged {
        /// The logging device's address.
        device: Addr,
    },
    /// A PMNet device answered a read from its cache (Figure 10).
    CacheServe {
        /// The serving device's address.
        device: Addr,
        /// The `KvFrame::Value` reply it produced.
        reply: Bytes,
    },
}

/// One recorded event, stamped with simulated time and the PMNet identity
/// fields `(client, session, seq)` of the request it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Simulated time of the transition.
    pub at: Time,
    /// Originating client address.
    pub client: Addr,
    /// Client session.
    pub session: u16,
    /// Per-session sequence number (last fragment's, for updates).
    pub seq: u32,
    /// The transition.
    pub kind: EventKind,
}

/// A cloneable recording handle.
///
/// `Recorder::default()` is detached and records nothing; an armed handle
/// (from [`Recorder::new`]) shares one history across every clone (one
/// `Rc` per simulated world; single-threaded by design). Every node
/// holds one: the detached state is a `None` and each hook is one branch.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    tap: Option<Rc<RefCell<Vec<Event>>>>,
}

impl Recorder {
    /// An armed recorder; clones share the same history.
    pub fn new() -> Recorder {
        Recorder {
            tap: Some(Rc::default()),
        }
    }

    /// True if this handle records.
    pub fn is_armed(&self) -> bool {
        self.tap.is_some()
    }

    /// Appends an event (no-op when detached).
    pub fn record(&self, event: Event) {
        if let Some(tap) = &self.tap {
            tap.borrow_mut().push(event);
        }
    }

    /// A copy of the recorded history, oldest first (empty if detached).
    pub fn history(&self) -> Vec<Event> {
        self.tap
            .as_ref()
            .map_or_else(Vec::new, |t| t.borrow().clone())
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.tap.as_ref().map_or(0, |t| t.borrow().len())
    }

    /// True if nothing was recorded (or the handle is detached).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u32) -> Event {
        Event {
            at: Time::ZERO,
            client: Addr(1),
            session: 0,
            seq,
            kind: EventKind::Invoke {
                kind: RequestKind::Update,
                payload: Bytes::from_static(b"p"),
            },
        }
    }

    #[test]
    fn detached_recorder_records_nothing() {
        let r = Recorder::default();
        assert!(!r.is_armed());
        r.record(ev(0));
        assert!(r.is_empty());
        assert!(r.history().is_empty());
    }

    #[test]
    fn armed_clones_share_one_history() {
        let r = Recorder::new();
        assert!(r.is_armed());
        let clone = r.clone();
        clone.record(ev(0));
        r.record(ev(1));
        assert_eq!(r.len(), 2);
        let h = r.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].seq, 0);
        assert_eq!(h[1].seq, 1);
        assert_eq!(clone.history(), h);
    }
}
