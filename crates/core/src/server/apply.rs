//! Applying updates and completing them. A **scheduling policy** decides
//! when an in-order [`Update`] reaches the handler and how long a worker
//! is occupied — the k-worker delay queue (each update as it is
//! delivered) or the session-pinned pool (`apply.threads > 1`: a run per
//! worker). [`ServerLib::apply_one`] is the only place the handler and
//! every observer see it; its [`AckTicket`] is then parked until the
//! occupancy elapses ([`TIMER_DONE`]) and redeemed by
//! [`ServerLib::finish_update_job`].

use std::collections::VecDeque;

use bytes::Bytes;
use pmnet_net::{Addr, Ctx, Packet, Proto};
use pmnet_pmem::CostModel;
use pmnet_sim::hash::{fnv1a, FixedMap, FNV_OFFSET};
use pmnet_sim::{Dur, SimRng, Time};
use pmnet_telemetry::history::{Event, EventKind};
use pmnet_telemetry::span::OpEvent;

use super::stream::{AckTicket, PendingPkt, Update};
use super::{ServerLib, TIMER_DONE};
use crate::audit::AuditEntry;
use crate::config::ApplyConfig;
use crate::kvproto::KvFrame;
use crate::protocol::{PacketType, PmnetHeader, FLAG_REDO, SERVICE_PORT};

/// Why a bypass read is held ([`ServerLib::read_hold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hold {
    /// The recovery barrier is open.
    Barrier,
    /// A staged pool write addresses the read's key.
    Pool,
}

/// Work whose worker occupancy is still elapsing, keyed by the
/// [`TIMER_DONE`] token in [`ServerLib::parked`].
#[derive(Debug)]
pub(super) enum Parked {
    /// One update applied on the delay queue; the ticket rides inline,
    /// so it pays no allocation for its completion.
    Update(AckTicket),
    /// A run on pool worker `worker`, each ticket redeemed exactly as a
    /// solo one.
    Run {
        tickets: Vec<AckTicket>,
        worker: usize,
    },
    /// A served bypass request; `payload` now holds the reply body.
    Bypass(PendingPkt),
}

/// One in-order update staged on a concurrent-apply worker queue: the
/// handler has **not** seen it yet.
#[derive(Debug)]
struct ApplyOp {
    /// Delivery order id (global across queues, so rising along each
    /// queue); doubles as the same-key fence token.
    id: u64,
    /// The latest earlier staged write to the same KV key, if any, as its
    /// `(worker, id)`: this op may not reach the handler before it does.
    dep: Option<(usize, u64)>,
    /// Decoded `Set`/`Del` key (None for opaque payloads, which carry no
    /// cross-session ordering obligations).
    key: Option<Bytes>,
    update: Update,
}

/// The sharded concurrent-apply worker pool (`ApplyConfig { threads > 1 }`).
///
/// Dispatch is stealing-free: an update is pinned to worker
/// `fnv(client, session) % threads`, so per-session apply order is each
/// queue's FIFO order and the handler's durable applied-seq table (the
/// redo-log dedup source) only ever advances in sequence order per
/// session. Cross-session writes to the same KV key are fenced in
/// delivery order (`ApplyOp::dep`), and bypass reads addressing a key
/// with a staged — delivered but not yet applied — write wait until that
/// write reaches the handler ([`ServerLib::read_hold`]). The queues are the
/// pool's only record of what is staged: a fence is passed once its
/// writer's queue head is past it. Whether a duplicate is still staged
/// the session's stream says ([`super::stream::Stream::staged`]).
#[derive(Debug)]
pub(super) struct ApplyPool {
    /// Per-worker FIFO queues of staged updates.
    queues: Vec<VecDeque<ApplyOp>>,
    /// Whether each pool worker is inside a dispatched run.
    busy: Vec<bool>,
    /// Simulated instant each worker's current/last run completes —
    /// the pool's contribution to [`ServerLib::apply_busy_until`].
    busy_until: Vec<Time>,
    /// Monotone delivery counter feeding [`ApplyOp::id`].
    next_id: u64,
    /// Latest staged writer `(worker, id)` per KV key: the write-write
    /// fence source and the pool's half of the read-holding predicate.
    key_writer: FixedMap<Bytes, (usize, u64)>,
    /// The seeded logical scheduler: jitters run occupancy so different
    /// `PMNET_APPLY_SCHED_SEED`s explore different interleavings. Never
    /// touches `ctx.rng()` — the world's schedule stays comparable
    /// across scheduler seeds.
    rng: SimRng,
}

impl ApplyPool {
    pub(super) fn new(cfg: &ApplyConfig) -> ApplyPool {
        let n = cfg.threads as usize;
        ApplyPool {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            busy: vec![false; n],
            busy_until: vec![Time::ZERO; n],
            next_id: 0,
            key_writer: FixedMap::default(),
            rng: SimRng::seed(cfg.sched_seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Drops everything volatile at a power cut. Counters stay monotone
    /// and the scheduler stream keeps its position (both deterministic).
    pub(super) fn clear(&mut self) {
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.busy.fill(false);
        self.busy_until.fill(Time::ZERO);
        self.key_writer.clear();
    }

    /// Whether updates are staged on the pool (more than one worker)
    /// rather than applied on the k-worker delay queue.
    pub(super) fn is_concurrent(&self) -> bool {
        self.queues.len() > 1
    }

    /// Whether the staged write `(w, id)` has left its queue for a worker:
    /// ids rise along each FIFO queue, so it has once the head is past it.
    fn dispatched(&self, (w, id): (usize, u64)) -> bool {
        self.queues[w].front().is_none_or(|head| head.id > id)
    }

    /// The instant the pool's last dispatched run completes.
    pub(super) fn busy_until(&self) -> Time {
        self.busy_until.iter().copied().max().unwrap_or(Time::ZERO)
    }

    pub(super) fn debug(&self) -> String {
        format!(
            "queues={:?} busy={:?} heads={:?}",
            self.queues.iter().map(|q| q.len()).collect::<Vec<_>>(),
            self.busy,
            self.queues
                .iter()
                .map(|q| q.front().map(|o| (o.id, o.dep)))
                .collect::<Vec<_>>(),
        )
    }
}

/// The handler times of a pool run each include one `sfence` drain; the
/// run needs only the last, so the other `n - 1` are given back at the
/// calibrated per-fence cost.
fn fence_refund(n: u64) -> Dur {
    CostModel::optane_server().per_fence * (n - 1)
}

impl ServerLib {
    /// The one apply routine: hands `update` to the handler and tells
    /// every observer. What the returned service time does to worker
    /// occupancy is the calling policy's business.
    fn apply_one(&mut self, ctx: &mut Ctx<'_>, update: &Update) -> Dur {
        let (client, session) = (update.ticket.client, update.ticket.session);
        for h in update.ticket.frag_headers.iter() {
            self.stamp(ctx, h, OpEvent::ServerApply { at: ctx.now() });
        }
        let service = self.handler.handle_update(
            client,
            session,
            update.last_seq,
            &update.payload,
            ctx.rng(),
        );
        self.counters.updates_applied += 1;
        self.audit.record(AuditEntry {
            client,
            session,
            seq: update.last_seq,
            redo: update.redo,
            epoch: self.epoch,
        });
        self.telemetry.record(|| Event {
            at: ctx.now(),
            client,
            session,
            seq: update.last_seq,
            kind: EventKind::Apply {
                redo: update.redo,
                epoch: self.epoch,
                payload: update.payload.clone(),
            },
        });
        if update.redo {
            self.counters.redo_applied += 1;
            if let Some(r) = &mut self.recovery {
                r.redo_applied += 1;
                r.last_redo_at = ctx.now();
            }
        }
        service
    }

    /// Routes one in-order update through the configured policy: staged
    /// on the pool, or applied now and acked once its worker is done.
    pub(super) fn deliver(&mut self, ctx: &mut Ctx<'_>, update: Update) {
        if self.pool.is_concurrent() {
            self.stage_concurrent(ctx, update);
            return;
        }
        let service = self.apply_one(ctx, &update);
        self.park(ctx, service, Parked::Update(update.ticket));
    }

    /// The k-worker delay queue: occupies the earliest-free worker for
    /// `service` and parks `work` until then.
    fn park(&mut self, ctx: &mut Ctx<'_>, service: Dur, work: Parked) {
        let now = ctx.now();
        let idx = (0..self.workers.len())
            .min_by_key(|&i| self.workers[i])
            .expect("worker pool non-empty");
        let done = now.max(self.workers[idx]) + service;
        self.workers[idx] = done;
        self.park_until(ctx, done.saturating_since(now), work);
    }

    fn park_until(&mut self, ctx: &mut Ctx<'_>, after: Dur, work: Parked) {
        let id = self.next_parked;
        self.next_parked += 1;
        self.parked.insert(id, work);
        self.arm(ctx, after, TIMER_DONE, id);
    }

    /// [`TIMER_DONE`]: a parked occupancy elapsed.
    pub(super) fn on_done(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        match self.parked.remove(&id) {
            Some(Parked::Update(ticket)) => self.finish_update_job(ctx, ticket),
            Some(Parked::Run { tickets, worker }) => {
                self.pool.busy[worker] = false;
                for ticket in tickets {
                    self.finish_update_job(ctx, ticket);
                }
                self.pump_pool(ctx);
            }
            Some(Parked::Bypass(reply)) if !self.silent_commit => {
                let mut h = reply.header;
                h.ptype = PacketType::AppReply;
                let pkt = self.reply_packet(h, &reply.payload, reply.src_port, reply.proto);
                let at = ctx.now() + self.send_via_stack(ctx, pkt);
                self.stamp(ctx, &h, OpEvent::ServerSend { at });
            }
            Some(Parked::Bypass(_)) | None => {}
        }
    }

    /// The pool worker an update is pinned to: FNV-1a over the session
    /// identity, so a session's updates always share one FIFO queue.
    fn apply_worker(&self, client: Addr, session: u16) -> usize {
        let mut h = fnv1a(FNV_OFFSET, &client.0.to_le_bytes());
        h = fnv1a(h, &session.to_le_bytes());
        // FNV's low bits mix poorly for short inputs, and `% threads` with
        // a small power of two reads only those bits — small client ids
        // pile whole fleets onto the even workers. Finish with a 64-bit
        // avalanche so every input bit reaches the modulus.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h % self.pool.queues.len() as u64) as usize
    }

    /// Stages one in-order update onto its session's pool queue,
    /// recording the same-key fence if an earlier staged write addresses
    /// the same KV key, then pumps the dispatcher.
    fn stage_concurrent(&mut self, ctx: &mut Ctx<'_>, update: Update) {
        let key = match KvFrame::decode(&update.payload) {
            Some(KvFrame::Set { key, .. }) | Some(KvFrame::Del { key }) => Some(key),
            _ => None,
        };
        let id = self.pool.next_id;
        self.pool.next_id += 1;
        let w = self.apply_worker(update.ticket.client, update.ticket.session);
        // Taking over as the key's latest staged writer yields the fence.
        let dep = key
            .as_ref()
            .and_then(|k| self.pool.key_writer.insert(k.clone(), (w, id)));
        if dep.is_some() {
            self.counters.apply_key_fences += 1;
        }
        self.pool.queues[w].push_back(ApplyOp {
            id,
            dep,
            key,
            update,
        });
        self.pump_pool(ctx);
    }

    /// Hands every idle worker the longest ready prefix of its queue,
    /// iterating to a fixpoint: dispatching a fence op on one worker can
    /// unblock the head of another worker's queue within the same pump.
    fn pump_pool(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut progressed = false;
            for w in 0..self.pool.queues.len() {
                if !self.pool.busy[w] && self.dispatch_run(ctx, w) {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        self.release_held_reads(ctx);
    }

    /// Dispatches one run on idle worker `w`: peels ready ops off the
    /// queue head, applies each, and occupies the worker for the combined
    /// service time with the run's redundant fence drains refunded.
    /// Returns false if the queue head is empty or fenced.
    fn dispatch_run(&mut self, ctx: &mut Ctx<'_>, w: usize) -> bool {
        let mut service = Dur::ZERO;
        let mut tickets = Vec::new();
        while let Some(front) = self.pool.queues[w].front() {
            // Ready once its same-key fence has reached a worker. A fence
            // queued ahead on this same worker was peeled just above, so
            // intra-queue fences never stall a run.
            if front.dep.is_some_and(|d| !self.pool.dispatched(d)) {
                break;
            }
            let op = self.pool.queues[w].pop_front().expect("front just seen");
            let session = (op.update.ticket.client, op.update.ticket.session);
            if let Some(stream) = self.streams.get_mut(&session) {
                stream.dispatched(op.update.last_seq);
            }
            if let Some(k) = &op.key {
                if self.pool.key_writer.get(k) == Some(&(w, op.id)) {
                    self.pool.key_writer.remove(k);
                }
            }
            service += self.apply_one(ctx, &op.update);
            self.counters.concurrent_applies += 1;
            tickets.push(op.update.ticket);
        }
        if tickets.is_empty() {
            return false;
        }
        let n = tickets.len() as u64;
        self.counters.apply_runs += 1;
        let jitter = Dur::nanos(self.pool.rng.uniform_u64(0..256));
        let service = service.saturating_sub(fence_refund(n)) + jitter;
        self.pool.busy[w] = true;
        self.pool.busy_until[w] = ctx.now() + service;
        self.park_until(ctx, service, Parked::Run { tickets, worker: w });
        true
    }

    /// Whether a bypass request addresses a KV key with a staged — not
    /// yet applied — write on a pool queue. Serving it now would read
    /// around an update the device already durably acked.
    fn read_blocked_by_pool(&self, pending: &PendingPkt) -> bool {
        if self.pool.key_writer.is_empty() {
            return false;
        }
        match KvFrame::decode(&pending.payload) {
            Some(KvFrame::Get { key }) => self.pool.key_writer.contains_key(&key),
            _ => false,
        }
    }

    /// The one read-holding predicate: a durable write the read could miss
    /// may still be in flight, as redo behind the open recovery barrier or
    /// staged on a pool queue for the read's key.
    fn read_hold(&self, pending: &PendingPkt) -> Option<Hold> {
        if !self.recovery_pending.is_empty() {
            return Some(Hold::Barrier);
        }
        self.read_blocked_by_pool(pending).then_some(Hold::Pool)
    }

    /// Re-offers every held read in arrival order: when the barrier
    /// closes and after each pool pump.
    pub(super) fn release_held_reads(&mut self, ctx: &mut Ctx<'_>) {
        for (hold, pending) in std::mem::take(&mut self.held_reads) {
            self.offer_read(ctx, Some(hold), pending);
        }
    }

    /// Serves a bypass read, or holds it while [`ServerLib::read_hold`]
    /// says so; `held` is why it waited last, so a read is counted once
    /// per reason it starts waiting for.
    pub(super) fn offer_read(&mut self, ctx: &mut Ctx<'_>, held: Option<Hold>, read: PendingPkt) {
        if let Some(hold) = self.read_hold(&read) {
            match hold {
                _ if held == Some(hold) => {}
                Hold::Barrier => self.counters.bypasses_parked += 1,
                Hold::Pool => self.counters.apply_reads_parked += 1,
            }
            self.held_reads.push((hold, read));
            return;
        }
        self.stamp(ctx, &read.header, OpEvent::ServerApply { at: ctx.now() });
        let (service, reply) = self.handler.handle_bypass(&read.payload, ctx.rng());
        self.counters.bypasses_served += 1;
        let payload = reply.unwrap_or_default();
        self.park(ctx, service, Parked::Bypass(PendingPkt { payload, ..read }));
    }

    /// The one place a `ServerAck` leaves the server. Every caller holds
    /// the same justification: the handler has durably recorded a sequence
    /// number at or above `header.seq` for this session, so the device may
    /// invalidate its log entry — the update was just applied (a redeemed
    /// [`AckTicket`]), or this is a duplicate below the stream's
    /// expectation that is not still staged on a pool queue (a make-up ack).
    pub(super) fn send_server_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        header: &PmnetHeader,
        src_port: u16,
        proto: Proto,
    ) {
        let pkt = self.reply_packet(header.server_ack(), &[], src_port, proto);
        let at = ctx.now() + self.send_via_stack(ctx, pkt);
        self.stamp(ctx, header, OpEvent::ServerSend { at });
    }

    fn redeem(&mut self, ctx: &mut Ctx<'_>, ticket: &AckTicket) {
        for h in ticket.frag_headers.iter() {
            self.send_server_ack(ctx, h, ticket.src_port, ticket.proto);
        }
    }

    /// The one completion path: the update behind `ticket` has been
    /// applied and its worker occupancy has elapsed.
    fn finish_update_job(&mut self, ctx: &mut Ctx<'_>, ticket: AckTicket) {
        if !self.replicate_to.is_empty() {
            // Baseline replication: forward a copy to every replica and
            // defer the client ACK until they all confirm (Figure 21).
            for i in 0..self.replicate_to.len() {
                let replica = self.replicate_to[i];
                for h in ticket.frag_headers.iter() {
                    // Address the copy's ACK back to this primary by
                    // rewriting the header's client field.
                    let mut copy = *h;
                    copy.client = self.addr;
                    copy.flags |= FLAG_REDO; // never logged in-network
                    let mut pkt = Packet::udp(
                        self.addr,
                        replica,
                        SERVICE_PORT,
                        SERVICE_PORT,
                        copy.encode(&[]),
                    );
                    pkt.proto = ticket.proto;
                    self.send_via_stack(ctx, pkt);
                }
            }
            self.awaiting_replicas
                .push((self.replicate_to.len(), ticket));
        } else if self.silent_commit {
            // A replica: confirm to the primary (the header's client field
            // was rewritten to the primary's address).
            let h = ticket.frag_headers[0];
            self.send_server_ack(ctx, &h, ticket.src_port, ticket.proto);
        } else {
            self.redeem(ctx, &ticket);
        }
    }

    /// A `ServerAck` arriving *at a server* is a replica confirmation.
    /// Its `client` field names this primary, not the issuing client, so
    /// the fragment's `hash` (which names both, and survives the rewrite
    /// and `server_ack()`) tells apart two clients that share a session
    /// id and a seq.
    pub(super) fn on_replica_ack(&mut self, ctx: &mut Ctx<'_>, header: PmnetHeader) {
        let Some(i) = self.awaiting_replicas.iter().position(|(_, t)| {
            t.session == header.session
                && t.frag_headers
                    .iter()
                    .any(|h| h.seq == header.seq && h.hash == header.hash)
        }) else {
            return;
        };
        self.awaiting_replicas[i].0 -= 1;
        if self.awaiting_replicas[i].0 == 0 {
            let (_, ticket) = self.awaiting_replicas.swap_remove(i);
            self.redeem(ctx, &ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use pmnet_net::{LinkSpec, Msg, Node, World};
    use pmnet_sim::hash::FixedSet;

    use super::super::stream::FragHeaders;
    use super::super::tests::mk;
    use super::super::{IdealHandler, RequestHandler};
    use super::*;
    use crate::protocol::client_port;

    #[test]
    fn apply_worker_pins_sessions_and_spreads_them() {
        let s = mk(Box::new(IdealHandler::new())).with_apply(ApplyConfig::threaded(4));
        let w = s.apply_worker(Addr(1), 7);
        assert!(w < 4);
        for _ in 0..3 {
            assert_eq!(s.apply_worker(Addr(1), 7), w, "pinning must be stable");
        }
        let spread: FixedSet<usize> = (0..32u16)
            .map(|sess| s.apply_worker(Addr(1), sess))
            .collect();
        assert_eq!(spread.len(), 4, "32 sessions must reach all 4 workers");
        // Sessions from distinct small client ids must spread too — this
        // is the shape real fleets have, and the raw FNV residue used to
        // park them all on the even workers.
        let clients: FixedSet<usize> = (1..25u32).map(|c| s.apply_worker(Addr(c), 0)).collect();
        assert_eq!(clients.len(), 4, "24 clients must reach all 4 workers");
    }

    #[test]
    fn with_apply_sizes_the_pool() {
        let s = mk(Box::new(IdealHandler::new())).with_apply(ApplyConfig::threaded(3));
        assert_eq!(s.pool.queues.len(), 3);
        assert_eq!(s.pool.busy, vec![false; 3]);
        assert!(s.pool.is_concurrent());
        let s1 = mk(Box::new(IdealHandler::new()));
        assert!(!s1.pool.is_concurrent());
    }

    #[test]
    fn reads_block_only_on_staged_same_key_writes() {
        let mut s = mk(Box::new(IdealHandler::new())).with_apply(ApplyConfig::threaded(2));
        let bypass = |payload: Bytes| PendingPkt {
            header: PmnetHeader::request(PacketType::BypassReq, 1, 0, Addr(1), Addr(9), 0, 1),
            payload,
            src_port: client_port(0),
            proto: Proto::Udp,
        };
        let get = |key: &[u8]| {
            let key = Bytes::copy_from_slice(key);
            bypass(KvFrame::Get { key }.encode())
        };
        assert!(
            !s.read_blocked_by_pool(&get(b"k1")),
            "empty pool blocks nothing"
        );
        s.pool.key_writer.insert(Bytes::from_static(b"k1"), (0, 0));
        assert!(s.read_blocked_by_pool(&get(b"k1")));
        assert!(!s.read_blocked_by_pool(&get(b"k2")), "other keys pass");
        // Opaque (non-Get) bypass payloads never park.
        assert!(!s.read_blocked_by_pool(&bypass(Bytes::from_static(b"Onot-kv"))));
    }

    #[test]
    fn pool_clear_drops_volatile_state_but_keeps_counters_monotone() {
        let mut s = mk(Box::new(IdealHandler::new())).with_apply(ApplyConfig::threaded(2));
        s.pool.next_id = 7;
        s.next_parked = 3;
        s.pool.key_writer.insert(Bytes::from_static(b"k"), (1, 6));
        s.pool.busy[1] = true;
        s.wipe_volatile(Time::ZERO);
        assert!(s.pool.key_writer.is_empty());
        assert_eq!(s.pool.busy, vec![false; 2]);
        assert_eq!(
            s.pool.next_id, 7,
            "delivery ids stay monotone across crashes"
        );
        assert_eq!(s.next_parked, 3, "so do completion tokens");
    }

    /// A handler that takes 1 ms per update and logs `(session, seq)` in
    /// the order it applies them.
    #[derive(Debug)]
    struct SlowLog(Rc<RefCell<Vec<(u16, u32)>>>);

    impl RequestHandler for SlowLog {
        fn handle_update(&mut self, _: Addr, s: u16, q: u32, _: &Bytes, _: &mut SimRng) -> Dur {
            self.0.borrow_mut().push((s, q));
            Dur::millis(1)
        }
        fn handle_bypass(&mut self, _: &Bytes, _: &mut SimRng) -> (Dur, Option<Bytes>) {
            (Dur::ZERO, None)
        }
        fn applied_seq(&mut self, _: Addr, _: u16) -> Option<u32> {
            None
        }
        fn on_crash(&mut self, _: &mut SimRng) {}
        fn on_recover(&mut self) -> Dur {
            Dur::ZERO
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_same_key_write_waits_for_its_fence_on_another_worker() {
        let applied = Rc::new(RefCell::new(Vec::new()));
        let s = mk(Box::new(SlowLog(applied.clone()))).with_apply(ApplyConfig::threaded(2));
        // Two sessions of one client, pinned to different workers.
        let a = 0;
        let b = (1..).find(|&b| s.apply_worker(Addr(1), b) != s.apply_worker(Addr(1), a));
        let b = b.expect("two workers");
        let set = |session: u16, seq: u32, key: &'static [u8]| {
            let key = Bytes::from_static(key);
            let body = KvFrame::Set {
                key,
                value: Bytes::from_static(b"v"),
            }
            .encode();
            let h =
                PmnetHeader::request(PacketType::UpdateReq, session, seq, Addr(1), Addr(9), 0, 1)
                    .with_payload(&body);
            Packet::udp(
                Addr(1),
                Addr(9),
                client_port(session),
                SERVICE_PORT,
                h.encode(&body),
            )
        };
        let mut w = World::new(1);
        let node = w.add_node(Box::new(s));
        let acks = w.add_node(Box::new(Tap(Rc::default())));
        w.connect(node, acks, LinkSpec::ten_gbps());
        let port = super::super::POST_STACK;
        // A's first write occupies A's worker, so its write to `k` waits
        // staged; B's later write to `k` finds its own worker idle but
        // is fenced behind A's.
        for packet in [set(a, 0, b"j"), set(a, 1, b"k"), set(b, 0, b"k")] {
            w.schedule(Time::ZERO, node, Msg::Packet { port, packet });
        }
        w.run_to_quiescence(10_000);
        assert_eq!(*applied.borrow(), [(a, 0), (a, 1), (b, 0)]);
        assert_eq!(w.node::<ServerLib>(node).counters().apply_key_fences, 1);
    }

    /// An endpoint that keeps the header of every packet that arrives.
    struct Tap(Rc<RefCell<Vec<PmnetHeader>>>);

    impl Node for Tap {
        fn on_msg(&mut self, msg: Msg, _: &mut Ctx<'_>) {
            if let Msg::Packet { packet, .. } = msg {
                self.0
                    .borrow_mut()
                    .extend(PmnetHeader::peek(&packet.payload));
            }
        }
    }

    #[test]
    fn a_replica_ack_releases_only_the_update_it_names() {
        // Two clients share a session id and a seq. The primary forwarded
        // both updates and awaits one replica ack each; B's ticket is first.
        let (a, b, primary) = (Addr(1), Addr(2), Addr(9));
        let update =
            |client| PmnetHeader::request(PacketType::UpdateReq, 1, 5, client, primary, 0, 1);
        let ticket = |client| AckTicket {
            client,
            session: 1,
            frag_headers: FragHeaders::One([update(client)]),
            src_port: client_port(0),
            proto: Proto::Udp,
        };
        let mut s = mk(Box::new(IdealHandler::new()));
        s.awaiting_replicas.push((1, ticket(b)));
        s.awaiting_replicas.push((1, ticket(a)));
        // The replica confirms A's copy: the client field names the
        // primary, the hash is still A's.
        let mut copy = update(a);
        copy.client = primary;
        let ack = copy.server_ack().encode(&[]);
        let mut w = World::new(1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let node = w.add_node(Box::new(s));
        let tap = w.add_node(Box::new(Tap(seen.clone())));
        w.connect(node, tap, LinkSpec::ten_gbps());
        let packet = Packet::udp(Addr(10), primary, SERVICE_PORT, SERVICE_PORT, ack);
        let port = super::super::POST_STACK;
        w.schedule(Time::ZERO, node, Msg::Packet { port, packet });
        w.run_to_quiescence(1_000);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1, "one ServerAck: {seen:?}");
        assert_eq!(seen[0].ptype, PacketType::ServerAck);
        assert_eq!(seen[0].client, a, "B's update is not replicated yet");
        let left = &w.node::<ServerLib>(node).awaiting_replicas;
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].1.client, b);
    }
}
