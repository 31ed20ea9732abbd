//! The recorded-history pillar: the event vocabulary of the model
//! checker.
//!
//! A [`Telemetry::checking`](crate::Telemetry::checking) handle keeps one
//! [`Event`] per PMNet-visible state transition, appended through
//! [`Telemetry::record`](crate::Telemetry::record) by the same nodes that
//! emit spans: a client host invoking or completing a request (both
//! client drivers share it), the server applying an update, a device
//! logging an update fragment or serving a read from its cache. The
//! merged, sim-timestamped stream is the input to `pmnet-model`'s
//! durable-linearizability checker.
//!
//! Recording is pure observation: no RNG draws, no timers, no packets —
//! campaign digests are bit-identical whichever handle is attached. A
//! hook hands `record` a closure, so a handle that keeps no history (a
//! detached one, or [`Telemetry::full`](crate::Telemetry::full)) builds
//! no [`Event`] and touches no `Bytes` refcount (`tests/alloc_budget.rs`
//! runs detached). History events never enter the flight rings.

use pmnet_net::{Addr, Bytes};
use pmnet_sim::Time;

use crate::span::OpKind;

/// What happened (see the module docs for who records which variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A client handed a request to the PMNet library (`PMNet_send_update`
    /// / `PMNet_bypass`). For fragmented updates `seq` is the last
    /// fragment's sequence number — the one the server's apply reports.
    Invoke {
        /// Update or read (bypass).
        kind: OpKind,
        /// The full, pre-fragmentation request payload.
        payload: Bytes,
    },
    /// The client's completion: the request reached the ack strength its
    /// mode requires (device PM, replication chain, or server ACK).
    Complete {
        /// Update or read (bypass).
        kind: OpKind,
        /// The reply payload, for requests that carry one (reads).
        reply: Option<Bytes>,
        /// What each fragment, in order, had been acknowledged by: the
        /// evidence the completion rests on.
        frags: Vec<FragAcks>,
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

/// What one fragment of a request had been acknowledged by when the
/// request completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragAcks {
    /// Distinct PMNet devices (or server-side loggers) that acknowledged
    /// it: the replication-chain ack strength it rests on.
    pub device_acks: u8,
    /// True if the server's ACK for it had arrived.
    pub server_acked: bool,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn ev(seq: u32) -> Event {
        Event {
            at: Time::ZERO,
            client: Addr(1),
            session: 0,
            seq,
            kind: EventKind::Invoke {
                kind: OpKind::Update,
                payload: Bytes::from_static(b"p"),
            },
        }
    }

    #[test]
    fn only_a_checking_handle_builds_events() {
        for t in [Telemetry::disabled(), Telemetry::full()] {
            t.record(|| unreachable!("built an event nobody keeps"));
            assert!(t.history().is_empty());
        }
    }

    #[test]
    fn checking_clones_share_one_history() {
        let t = Telemetry::checking();
        let clone = t.clone();
        clone.record(|| ev(0));
        t.record(|| ev(1));
        let h = t.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].seq, 0);
        assert_eq!(h[1].seq, 1);
        assert_eq!(clone.history(), h);
        // History never enters the flight rings.
        assert!(t.flight_dump().is_empty());
    }
}
