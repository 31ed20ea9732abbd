//! # pmnet-telemetry — deterministic observability for the PMNet stack
//!
//! An always-compiled, runtime-gated observability layer threaded through
//! `pmnet-core`, `pmnet-sim` and `pmnet-chaos`. Five pillars:
//!
//! 1. **Causal span tracing** ([`span`]) — every op, keyed by
//!    `(client, session, seq)`, accumulates exact sim-time events as it
//!    crosses client → wire → device MAT/PM persist → server stack →
//!    handler; at completion the events are attributed to phases that
//!    *sum to the measured end-to-end latency* (the paper's Figure 2
//!    breakdown, from real traces instead of constants).
//! 2. **Fixed-memory histograms** — the log-bucketed
//!    [`pmnet_sim::stats::LatencyHistogram`], reused here for per-phase
//!    distributions in the registry.
//! 3. **A metric registry** ([`registry`]) — components publish counter
//!    groups and histograms into one sink instead of harnesses
//!    hand-flattening them.
//! 4. **A flight recorder** ([`flight`]) — bounded per-node rings of
//!    recent events, dumped as a replayable text timeline when a chaos
//!    invariant or the model checker fires.
//! 5. **A recorded history** ([`history`]) — every client invoke and
//!    complete, server apply, device log persist and cache serve, the
//!    input to `pmnet-model`'s durable-linearizability checker.
//!
//! A handle comes in two fixed modes: [`Telemetry::full`] (spans and
//! registry — what benchmarks trace with) and [`Telemetry::checking`]
//! (256-deep flight rings and the history — what every model-checked run
//! attaches).
//!
//! ## Determinism rules
//!
//! A [`Telemetry`] handle is *pure observation*: hooks never draw from
//! the simulation RNG, never schedule timers or packets, and stamp
//! future-time events (wire exits, ack emissions) by reusing delay
//! values the instrumented component had already computed. Consequently
//! a simulation's event stream — and every golden digest — is
//! bit-identical whether telemetry is attached, in either mode, or
//! detached. Each simulated world owns one handle (`Rc`-shared), so
//! parallel chaos campaigns stay deterministic at any thread count.
//!
//! ## Quickstart
//!
//! ```
//! use pmnet_telemetry::{Telemetry, span::{OpEvent, Phase}};
//! use pmnet_net::Addr;
//! use pmnet_sim::Time;
//!
//! let tel = Telemetry::full();
//! // Components clone the handle and emit events as ops cross them
//! // (pmnet-core does this when you attach a handle to a BuiltSystem).
//! tel.op_event(Addr(1), Time::ZERO, (Addr(1), 0, 0), OpEvent::ClientSend {
//!     attempt: 0,
//!     tx_start: Time::ZERO,
//!     wire_at: Time::from_nanos(50),
//! });
//! assert!(tel.is_enabled());
//! assert!(Telemetry::disabled().traces().is_empty());
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod history;
pub mod registry;
pub mod span;

use std::cell::RefCell;
use std::rc::Rc;

use pmnet_net::Addr;
use pmnet_sim::stats::LatencyHistogram;
use pmnet_sim::Time;

use flight::{FlightBody, FlightDump, FlightRecorder};
use history::Event;
use registry::Registry;
use span::{OpCompletion, OpEvent, OpKey, OpKind, OpTrace, Phase, SpanCollector};

#[derive(Debug)]
struct Inner {
    /// Keep per-op span state and produce [`OpTrace`]s (plus per-phase
    /// histograms in the registry): [`Telemetry::full`] only.
    trace_ops: bool,
    /// The model checker's history: [`Telemetry::checking`] only.
    history: Option<Vec<Event>>,
    spans: SpanCollector,
    flight: FlightRecorder,
    /// Per-kind end-to-end latency, indexed by [`OpKind`] — recorded on
    /// the completion hot path without string lookups, folded into the
    /// registry snapshot under `op.{kind}.latency`.
    op_hists: [LatencyHistogram; 2],
    /// Per-phase durations, indexed by [`Phase`] — folded into the
    /// registry snapshot under `phase.{name}`.
    phase_hists: [LatencyHistogram; 11],
}

impl Inner {
    /// Attributes completions the hot path deferred and folds their
    /// latency/phase durations into the enum-indexed histograms. Called
    /// before any read of traces or the registry; a pure function of
    /// recorded data, so when it runs is unobservable.
    fn sync_spans(&mut self) {
        let Inner {
            spans,
            op_hists,
            phase_hists,
            ..
        } = self;
        for trace in spans.attribute_pending() {
            op_hists[trace.kind as usize].record(trace.latency);
            for &(phase, d) in &trace.phases {
                phase_hists[phase as usize].record(d);
            }
        }
    }
}

/// A cloneable telemetry handle; components hold one and emit events
/// through it. The default handle is detached and costs one branch per
/// hook.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Telemetry {
    /// A detached handle: every hook is a no-op.
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    fn attached(trace_ops: bool, flight_capacity: usize, history: Option<Vec<Event>>) -> Telemetry {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Inner {
                trace_ops,
                history,
                spans: SpanCollector::new(),
                flight: FlightRecorder::new(flight_capacity),
                op_hists: std::array::from_fn(|_| LatencyHistogram::new()),
                phase_hists: std::array::from_fn(|_| LatencyHistogram::new()),
            }))),
        }
    }

    /// Full tracing: spans and registry histograms; no flight rings (their
    /// only reader is a chaos run, which attaches [`checking`](Self::checking))
    /// and no history.
    pub fn full() -> Telemetry {
        Telemetry::attached(true, 0, None)
    }

    /// What a model-checked run (every chaos run) attaches: the full
    /// [`history`] for the checker and deeper flight rings for the
    /// post-mortem timeline, with no per-op span retention.
    pub fn checking() -> Telemetry {
        // Rings big enough to hold the events leading up to an invariant
        // violation, small enough that ten thousand campaign runs don't
        // notice them.
        Telemetry::attached(false, 256, Some(Vec::new()))
    }

    /// True when attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one span event for the fragment `key`, emitted by `node`
    /// at sim-time `now` (the event's semantic stamp may lie later; see
    /// [`OpEvent::at`]).
    #[inline]
    pub fn op_event(&self, node: Addr, now: Time, key: OpKey, ev: OpEvent) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            if i.trace_ops {
                i.spans.record(key, ev);
            }
            i.flight.record(node, now, key, FlightBody::Span(ev));
        }
    }

    /// Records an op issue (flight recorder only; span state begins with
    /// the first [`OpEvent`]).
    #[inline]
    pub fn op_issue(&self, node: Addr, now: Time, key: OpKey, kind: span::OpKind) {
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .flight
                .record(node, now, key, FlightBody::Issue { kind });
        }
    }

    /// Reports a completed op: attributes its spans (in [`full`](Self::full) mode),
    /// folds phase durations into the registry, and appends a completion
    /// record to the flight ring (in [`checking`](Self::checking) mode).
    pub fn op_complete(&self, node: Addr, now: Time, c: OpCompletion) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            i.flight.record(
                node,
                now,
                (c.client, c.session, c.completing_seq),
                FlightBody::Complete {
                    kind: c.kind,
                    latency: c.latency,
                    retries: c.retries,
                    evidence: c.evidence,
                },
            );
            if i.trace_ops {
                // Attribution and histogram folding are deferred to the
                // next trace/registry read; completing here only purges
                // open state and snapshots the op's events.
                i.spans.complete(c);
            }
        }
    }

    /// Drops span state for the fragments `frags` (an inclusive seq range,
    /// like [`OpCompletion::frag_range`]) of an op that will never
    /// complete (failed or abandoned).
    pub fn op_abandon(&self, client: Addr, session: u16, frags: (u32, u32)) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().spans.abandon(client, session, frags);
        }
    }

    /// Appends the event `event` builds to the history. Only a
    /// [`checking`](Self::checking) handle keeps one: any other handle
    /// never calls `event`, so a hook costs one branch and builds nothing.
    #[inline]
    pub fn record(&self, event: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            if let Some(history) = &mut inner.borrow_mut().history {
                history.push(event());
            }
        }
    }

    /// A copy of the recorded history, oldest first (empty unless this is
    /// a [`checking`](Self::checking) handle).
    pub fn history(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.borrow().history.clone().unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Completed per-op traces, in completion order (empty unless this is
    /// a [`full`](Self::full) handle).
    pub fn traces(&self) -> Vec<OpTrace> {
        match &self.inner {
            Some(inner) => {
                let mut i = inner.borrow_mut();
                i.sync_spans();
                i.spans.traces().to_vec()
            }
            None => Vec::new(),
        }
    }

    /// A new registry holding the per-kind latency and per-phase
    /// histograms recorded so far.
    pub fn registry(&self) -> Registry {
        match &self.inner {
            Some(inner) => {
                let mut i = inner.borrow_mut();
                i.sync_spans();
                let i = &*i;
                let mut reg = Registry::new();
                for kind in [OpKind::Update, OpKind::Read] {
                    let h = &i.op_hists[kind as usize];
                    if !h.is_empty() {
                        reg.record_histogram(kind.latency_metric(), h);
                    }
                }
                for phase in Phase::ALL {
                    let h = &i.phase_hists[phase as usize];
                    if !h.is_empty() {
                        reg.record_histogram(phase.metric_name(), h);
                    }
                }
                reg
            }
            None => Registry::new(),
        }
    }

    /// The merged flight-recorder timeline (empty unless this is a
    /// [`checking`](Self::checking) handle).
    pub fn flight_dump(&self) -> FlightDump {
        match &self.inner {
            Some(inner) => inner.borrow().flight.dump(),
            None => FlightDump::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmnet_sim::Dur;
    use span::{Evidence, OpKind, Phase};

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.op_event(
            Addr(1),
            Time::ZERO,
            (Addr(1), 0, 0),
            OpEvent::ServerRecv { at: Time::ZERO },
        );
        t.op_complete(
            Addr(1),
            Time::ZERO,
            OpCompletion {
                client: Addr(1),
                session: 0,
                completing_seq: 0,
                frag_range: (0, 0),
                kind: OpKind::Update,
                issued_at: Time::ZERO,
                completed_at: Time::ZERO,
                latency: Dur::ZERO,
                retries: 0,
                evidence: Evidence::ServerAck,
            },
        );
        assert!(!t.is_enabled());
        assert!(t.traces().is_empty());
        assert!(t.flight_dump().is_empty());
        assert!(t.history().is_empty());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::checking();
        let writer = t.clone();
        writer.op_event(
            Addr(1),
            Time::ZERO,
            (Addr(1), 0, 0),
            OpEvent::ServerRecv { at: Time::ZERO },
        );
        assert_eq!(t.flight_dump().events.len(), 1);
    }

    #[test]
    fn completion_fills_registry_histograms() {
        let t = Telemetry::full();
        t.op_event(
            Addr(1),
            Time::ZERO,
            (Addr(1), 0, 0),
            OpEvent::ServerRecv { at: Time::ZERO },
        );
        t.op_complete(
            Addr(1),
            Time::from_nanos(500),
            OpCompletion {
                client: Addr(1),
                session: 0,
                completing_seq: 0,
                frag_range: (0, 0),
                kind: OpKind::Update,
                issued_at: Time::ZERO,
                completed_at: Time::from_nanos(500),
                latency: Dur::nanos(500),
                retries: 0,
                evidence: Evidence::LocalLog,
            },
        );
        let reg = t.registry();
        assert_eq!(reg.histogram("op.update.latency").unwrap().len(), 1);
        assert!(reg
            .histogram(&format!("phase.{}", Phase::Unattributed.name()))
            .is_some());
        assert_eq!(t.traces().len(), 1);
        // A full handle keeps no flight rings.
        assert!(t.flight_dump().is_empty());
    }

    #[test]
    fn checking_skips_span_state() {
        let t = Telemetry::checking();
        t.op_event(
            Addr(1),
            Time::ZERO,
            (Addr(1), 0, 0),
            OpEvent::ServerRecv { at: Time::ZERO },
        );
        assert!(t.traces().is_empty());
        assert_eq!(t.flight_dump().events.len(), 1);
    }
}
