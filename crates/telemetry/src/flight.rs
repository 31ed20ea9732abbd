//! The flight recorder: a bounded ring of recent telemetry events per
//! node, dumped as a replayable text artifact when something goes wrong.
//!
//! Under a [`Telemetry::checking`](crate::Telemetry::checking) handle,
//! every span event (and op issue/completion) is also appended to the
//! emitting node's ring; when a chaos invariant or the model checker
//! fires, the merged rings become a deterministic text timeline of the
//! moments before the violation. Ordering is by a global record counter,
//! not wall clock: each simulated world is single-threaded, so the
//! counter order is the exact causal record order and the dump is
//! byte-identical at any campaign thread count.

use std::fmt;
use std::str::FromStr;

use pmnet_net::Addr;
use pmnet_sim::record::{self, Kinds, Reader, Token, Value, Writer};
use pmnet_sim::{kinds, Dur, Time};

use crate::span::{AckKind, Evidence, OpEvent, OpKey, OpKind};

/// A non-span lifecycle event recorded only in the flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightBody {
    /// A span event (see [`OpEvent`]).
    Span(OpEvent),
    /// The client issued the op.
    Issue {
        /// Update or read.
        kind: OpKind,
    },
    /// The client completed the op.
    Complete {
        /// Update or read.
        kind: OpKind,
        /// Reported end-to-end latency.
        latency: Dur,
        /// Retransmission attempts.
        retries: u32,
        /// What completed the op.
        evidence: Evidence,
    },
}

/// One flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record counter — the dump's total order.
    pub ord: u64,
    /// Simulation time at which the event was recorded.
    pub at: Time,
    /// Node that recorded it.
    pub node: Addr,
    /// `(client, session, seq)` of the fragment concerned.
    pub key: OpKey,
    /// What happened.
    pub body: FlightBody,
}

/// A ring entry: [`FlightEvent`] minus the node, which the ring itself
/// keys — smaller entries keep the recorder's cache footprint down on the
/// always-on path.
#[derive(Debug, Clone, Copy)]
struct StoredEvent {
    ord: u64,
    at: Time,
    key: OpKey,
    body: FlightBody,
}

/// One node's bounded ring: a flat buffer that grows to `capacity` and
/// then overwrites its oldest slot — a single indexed store on the
/// recording hot path. Slot order is scrambled relative to record order,
/// which is fine: dumps re-sort by the global counter anyway.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<StoredEvent>,
    /// Oldest slot, i.e. the next to overwrite once full.
    head: usize,
}

impl Ring {
    fn push(&mut self, capacity: usize, ev: StoredEvent) -> bool {
        if self.buf.len() < capacity {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == capacity {
                self.head = 0;
            }
            true
        }
    }
}

/// Bounded per-node rings of recent [`FlightEvent`]s.
///
/// Rings live in a flat vector (node populations are small — clients,
/// devices, one server) with a most-recently-used index hint: nodes
/// record in bursts, so the common case is a single compare instead of a
/// map lookup. Ring order is irrelevant: [`dump`](FlightRecorder::dump)
/// re-sorts by the global record counter, so the rendered timeline is
/// deterministic regardless of layout.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    rings: Vec<(u32, Ring)>,
    mru: usize,
    capacity: usize,
    next_ord: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping `capacity` events per node (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ..FlightRecorder::default()
        }
    }

    /// Records one event against `node`'s ring, evicting the oldest when
    /// the ring is full.
    pub fn record(&mut self, node: Addr, at: Time, key: OpKey, body: FlightBody) {
        if self.capacity == 0 {
            return;
        }
        let idx = match self.rings.get(self.mru) {
            Some((n, _)) if *n == node.0 => self.mru,
            _ => match self.rings.iter().position(|(n, _)| *n == node.0) {
                Some(i) => i,
                None => {
                    // Full-size up front: a ring that records at all will
                    // usually fill, and growth reallocs would land on the
                    // hot path.
                    self.rings.push((
                        node.0,
                        Ring {
                            buf: Vec::with_capacity(self.capacity),
                            head: 0,
                        },
                    ));
                    self.rings.len() - 1
                }
            },
        };
        self.mru = idx;
        let ev = StoredEvent {
            ord: self.next_ord,
            at,
            key,
            body,
        };
        if self.rings[idx].1.push(self.capacity, ev) {
            self.dropped += 1;
        }
        self.next_ord += 1;
    }

    /// Events evicted so far across all rings.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merges every ring into one record-order timeline.
    pub fn dump(&self) -> FlightDump {
        let mut events: Vec<FlightEvent> = self
            .rings
            .iter()
            .flat_map(|(node, ring)| {
                ring.buf.iter().map(|e| FlightEvent {
                    ord: e.ord,
                    at: e.at,
                    node: Addr(*node),
                    key: e.key,
                    body: e.body,
                })
            })
            .collect();
        events.sort_by_key(|e| e.ord);
        FlightDump {
            dropped: self.dropped,
            events,
        }
    }
}

/// A rendered (and re-parseable) flight-recorder timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Events evicted from the rings before the dump.
    pub dropped: u64,
    /// Surviving events in record order.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

const ACK_KIND: Kinds<AckKind> = kinds!("ack kind", AckKind {
    "device" => Device(device),
    "peer" => Peer(device),
    "server" => Server,
    "reply" => Reply,
    "cache" => Cache,
});

const EVIDENCE: Kinds<Evidence> = kinds!("evidence", Evidence {
    "device" => DeviceAck { device: "" },
    "server" => ServerAck,
    "reply" => AppReply,
    "cache" => CacheResp,
    "local" => LocalLog,
});

const OP_KIND: Kinds<OpKind> = kinds!("op kind", OpKind {
    "update" => Update,
    "read" => Read,
});

const SPAN: Kinds<OpEvent> = kinds!("flight event", OpEvent {
    "client-send" => ClientSend { attempt: "attempt", tx_start: "tx_start", wire_at: "wire" },
    "client-recv" => ClientRecv { kind: "kind" => ACK_KIND, at: "at" },
    "device-recv" => DeviceRecv { device: "device", at: "at" },
    "device-ack" => DeviceAckSend { device: "device", at: "at" },
    "cache-resp" => DeviceCacheResp { device: "device", at: "at" },
    "batch-stage" => DeviceBatchStage { device: "device", at: "at" },
    "batch-flush" => DeviceBatchFlush { device: "device", at: "at" },
    "server-recv" => ServerRecv { at: "at" },
    "server-apply" => ServerApply { at: "at" },
    "server-send" => ServerSend { at: "at" },
});

/// The twelve flight-line bodies: each word and its fields, once.
const BODY: Kinds<FlightBody> = kinds!("flight event", FlightBody {
    "issue" => Issue { kind: "kind" => OP_KIND },
    "complete" => Complete {
        kind: "kind" => OP_KIND,
        latency: "latency",
        retries: "retries",
        evidence: "evidence" => EVIDENCE,
    },
    _ => Span(SPAN),
});

/// `op=client/session/seq`.
const OP_KEY: Token<OpKey> = Token(
    |(client, session, seq)| format!("{}/{session}/{seq}", client.0),
    |s| match s.split('/').collect::<Vec<_>>()[..] {
        [c, s, q] => Ok((
            Addr(Value::get(Some(c))?),
            Value::get(Some(s))?,
            Value::get(Some(q))?,
        )),
        _ => Err("want client/session/seq".into()),
    },
);

impl fmt::Display for FlightDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# pmnet-telemetry flight v1")?;
        writeln!(f, "flight dropped={}", self.dropped)?;
        for e in &self.events {
            let mut w = Writer::new(' ');
            w.word("flight").field("", &e.ord).field("t", &e.at);
            w.field("node", &e.node.0);
            w.token("op", &OP_KEY.put(&e.key));
            BODY.write(&e.body, &mut w);
            writeln!(f, "{}", w.finish())?;
        }
        Ok(())
    }
}

impl FromStr for FlightDump {
    type Err = String;

    fn from_str(s: &str) -> Result<FlightDump, String> {
        let mut dump = FlightDump::default();
        for line in record::lines(s) {
            let mut r = Reader::new(line);
            (|| {
                if r.take("") != Some("flight") {
                    return Err("not a flight line".to_string());
                }
                if let Some(dropped) = r.field("dropped")? {
                    dump.dropped = dropped;
                    return r.finish();
                }
                dump.events.push(FlightEvent {
                    ord: r.field("")?,
                    at: r.field("t")?,
                    node: Addr(r.field("node")?),
                    key: r.token("op", |s| OP_KEY.get(s))?,
                    body: BODY.read(&mut r)?,
                });
                r.finish()
            })()
            .map_err(|e| format!("{e} in: {line}"))?;
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four events of one op: three on the client, one on a device.
    fn sample_recorder() -> FlightRecorder {
        let mut fr = FlightRecorder::new(4);
        let kind = OpKind::Update;
        for (node, at) in [(1, 10), (1, 10), (2000, 200), (1, 700)] {
            let at = Time::from_nanos(at);
            fr.record(Addr(node), at, (Addr(1), 2, 3), FlightBody::Issue { kind });
        }
        fr
    }

    /// PR 19: these parsed — `device=300` as device 44, the others modulo
    /// 2^32 — because every number was read as a `u64` and cast down.
    #[test]
    fn numbers_that_do_not_fit_their_field_are_errors() {
        let ok = "flight 0 t=1 node=1 op=1/0/0 device-recv device=255 at=1";
        assert!(ok.parse::<FlightDump>().is_ok());
        for (from, to) in [
            ("device=255", "device=300"),
            ("node=1", "node=4294967296"),
            ("op=1/0/0", "op=1/65536/0"),
            (
                "device-recv device=255 at",
                "client-send attempt=4294967296 tx_start=1 wire",
            ),
            ("flight 0", "flight -1"),
        ] {
            let e = ok.replace(from, to).parse::<FlightDump>().unwrap_err();
            assert!(e.contains("bad ") && e.contains(" in: flight"), "{e}");
        }
    }

    #[test]
    fn dump_merges_nodes_in_record_order() {
        let dump = sample_recorder().dump();
        let ords: Vec<u64> = dump.events.iter().map(|e| e.ord).collect();
        assert_eq!(ords, vec![0, 1, 2, 3]);
        // Node 2000's event interleaves at its record position.
        assert_eq!(dump.events[2].node, Addr(2000));
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let mut fr = FlightRecorder::new(2);
        let key = (Addr(1), 0, 0);
        for i in 0..5u64 {
            fr.record(
                Addr(1),
                Time::from_nanos(i),
                key,
                FlightBody::Issue { kind: OpKind::Read },
            );
        }
        assert_eq!(fr.dropped(), 3);
        let dump = fr.dump();
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].ord, 3);
        assert_eq!(dump.dropped, 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        fr.record(
            Addr(1),
            Time::ZERO,
            (Addr(1), 0, 0),
            FlightBody::Issue {
                kind: OpKind::Update,
            },
        );
        assert!(fr.dump().is_empty());
    }
}
