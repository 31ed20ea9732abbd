//! The PM-backed key-value server application.
//!
//! [`KvHandler`] implements [`RequestHandler`] over a crash-consistent
//! [`PersistentKv`] (WAL + checkpoint on a simulated PM arena) using any of
//! the five PMDK index structures. Service times are *derived from work
//! actually done*: the index's traversal counters and the arena's
//! flush/fence counters feed the calibrated [`CostModel`]. The per-session
//! applied-sequence table required for deduplication after recovery
//! (Section IV-E1) is stored through the same durable path, under a
//! reserved key prefix.

use std::fmt;

use bytes::Bytes;
use pmnet_core::kvproto::KvFrame;
use pmnet_core::server::RequestHandler;
use pmnet_net::Addr;
use pmnet_pmem::kv::store_by_name;
use pmnet_pmem::{CostModel, KvOp, PersistentKv, PmArena};
use pmnet_sim::{Dur, SimRng};

/// Reserved key prefix for the applied-sequence table (never collides with
/// workload keys, which are printable).
const SEQ_PREFIX: u8 = 0x00;

fn seq_key(client: Addr, session: u16) -> [u8; 7] {
    let mut k = [SEQ_PREFIX; 7];
    k[1..5].copy_from_slice(&client.0.to_le_bytes());
    k[5..].copy_from_slice(&session.to_le_bytes());
    k
}

/// A PM-backed KV request handler.
pub struct KvHandler {
    index_name: &'static str,
    index_seed: u64,
    kv: Option<PersistentKv>,
    crashed_arena: Option<PmArena>,
    cost: CostModel,
    /// Extra fixed cost per request (e.g. Redis protocol parsing).
    extra: Dur,
    /// Jitter applied to every service time (handler-side variance).
    jitter_frac: f64,
    /// Checkpoint every this many ops (bounds recovery replay).
    checkpoint_every: u64,
    ops: u64,
}

impl fmt::Debug for KvHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvHandler")
            .field("index", &self.index_name)
            .field("live", &self.kv.is_some())
            .finish()
    }
}

impl KvHandler {
    /// Creates a handler over the named index structure (`btree`, `ctree`,
    /// `rbtree`, `hashmap`, `skiplist`).
    pub fn new(index_name: &'static str, seed: u64) -> KvHandler {
        KvHandler {
            index_name,
            index_seed: seed,
            kv: Some(PersistentKv::with_defaults(store_by_name(index_name, seed))),
            crashed_arena: None,
            cost: CostModel::optane_server(),
            extra: Dur::ZERO,
            jitter_frac: 0.15,
            checkpoint_every: 50_000,
            ops: 0,
        }
    }

    /// Adds a fixed per-request cost (protocol parsing, richer dispatch).
    pub fn with_extra_cost(mut self, d: Dur) -> KvHandler {
        self.extra = d;
        self
    }

    /// The live store (None while crashed).
    pub fn kv(&self) -> Option<&PersistentKv> {
        self.kv.as_ref()
    }

    /// Reads a key directly (test support).
    pub fn peek(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.kv.as_mut()?.get(key).map(<[u8]>::to_vec)
    }

    fn kv_mut(&mut self) -> &mut PersistentKv {
        self.kv.as_mut().expect("handler used while crashed")
    }

    /// Applies one durable op and returns its derived service time.
    pub fn apply_costed(&mut self, op: &KvOp<'_>, rng: &mut SimRng) -> Dur {
        let kv = self.kv.as_mut().expect("handler used while crashed");
        kv.apply(op);
        self.ops += 1;
        if self.ops.is_multiple_of(self.checkpoint_every) {
            kv.checkpoint();
        }
        let idx = kv.take_index_stats();
        let pm = kv.take_arena_stats();
        let t = self.cost.service_time(idx, pm);
        rng.jittered(t, self.jitter_frac)
    }

    /// Serves one read and returns (service time, encoded reply frame).
    /// The reply is encoded into a pooled builder straight from the value
    /// the store lends — the value's one copy on the way to the wire.
    pub fn get_costed(&mut self, key: &[u8], rng: &mut SimRng) -> (Dur, Bytes) {
        let kv = self.kv.as_mut().expect("handler used while crashed");
        let reply = KvFrame::encode_value(key, kv.get(key));
        let idx = kv.take_index_stats();
        let pm = kv.take_arena_stats();
        let t = rng.jittered(self.cost.service_time(idx, pm), self.jitter_frac);
        (t, reply)
    }
}

impl RequestHandler for KvHandler {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur {
        let mut t = self.extra;
        t += match KvFrame::decode(payload) {
            // The op views the wire buffer; the durable store takes its
            // two copies from there (into the WAL, into the index, over a
            // replaced value's own buffer).
            Some(KvFrame::Set { key, value }) => self.apply_costed(
                &KvOp::Put {
                    key: &key,
                    value: &value,
                },
                rng,
            ),
            Some(KvFrame::Del { key }) => self.apply_costed(&KvOp::Del { key: &key }, rng),
            // Malformed or opaque updates still cost a dispatch.
            _ => Dur::micros(1),
        };
        // The applied-sequence record rides the same durable path.
        t += self.apply_costed(
            &KvOp::Put {
                key: &seq_key(client, session),
                value: &seq.to_le_bytes(),
            },
            rng,
        );
        t
    }

    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        match KvFrame::decode(payload) {
            Some(KvFrame::Get { key }) => {
                let (t, reply) = self.get_costed(&key, rng);
                (t + self.extra, Some(reply))
            }
            _ => (self.extra + Dur::micros(1), Some(Bytes::new())),
        }
    }

    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        let v = self.kv_mut().get(&seq_key(client, session))?;
        Some(u32::from_le_bytes(v.try_into().ok()?))
    }

    fn on_crash(&mut self, rng: &mut SimRng) {
        if let Some(kv) = self.kv.take() {
            self.crashed_arena = Some(kv.crash(rng));
        }
    }

    fn on_recover(&mut self) -> Dur {
        let arena = self
            .crashed_arena
            .take()
            .expect("recover without preceding crash");
        let kv = PersistentKv::recover(arena, store_by_name(self.index_name, self.index_seed));
        // Recovery cost: replaying the surviving WAL records (the
        // checkpoint load is bandwidth-bound and comparatively small).
        let replayed = kv.applied_ops();
        self.kv = Some(kv);
        Dur::micros(2) * replayed + Dur::millis(1)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_frame(key: &[u8], value: &[u8]) -> Bytes {
        KvFrame::Set {
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
        }
        .encode()
    }

    #[test]
    fn updates_apply_and_cost_microseconds() {
        let mut h = KvHandler::new("btree", 1);
        let mut rng = SimRng::seed(1);
        let t = h.handle_update(Addr(1), 0, 0, &put_frame(b"key1", &[9; 80]), &mut rng);
        assert!(t >= Dur::micros(3) && t <= Dur::micros(40), "{t}");
        assert_eq!(h.peek(b"key1"), Some(vec![9; 80]));
    }

    #[test]
    fn bypass_reads_return_frames() {
        let mut h = KvHandler::new("hashmap", 1);
        let mut rng = SimRng::seed(2);
        h.handle_update(Addr(1), 0, 0, &put_frame(b"k", b"v"), &mut rng);
        let (t, reply) = h.handle_bypass(
            &KvFrame::Get {
                key: Bytes::from_static(b"k"),
            }
            .encode(),
            &mut rng,
        );
        assert!(t > Dur::ZERO);
        match KvFrame::decode(&reply.unwrap()) {
            Some(KvFrame::Value { value, found, .. }) => {
                assert!(found);
                assert_eq!(&value[..], b"v");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Miss.
        let (_, reply) = h.handle_bypass(
            &KvFrame::Get {
                key: Bytes::from_static(b"nope"),
            }
            .encode(),
            &mut rng,
        );
        match KvFrame::decode(&reply.unwrap()) {
            Some(KvFrame::Value { found, .. }) => assert!(!found),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn applied_seq_round_trips_and_survives_crash() {
        let mut rng = SimRng::seed(3);
        let mut h = KvHandler::new("rbtree", 1);
        assert_eq!(h.applied_seq(Addr(7), 2), None);
        h.handle_update(Addr(7), 2, 41, &put_frame(b"a", b"b"), &mut rng);
        assert_eq!(h.applied_seq(Addr(7), 2), Some(41));
        h.on_crash(&mut rng);
        let d = h.on_recover();
        assert!(d > Dur::ZERO);
        assert_eq!(h.applied_seq(Addr(7), 2), Some(41));
        assert_eq!(h.peek(b"a"), Some(b"b".to_vec()));
    }

    #[test]
    fn every_index_kind_works_through_the_handler() {
        let mut rng = SimRng::seed(4);
        for name in ["btree", "ctree", "rbtree", "hashmap", "skiplist"] {
            let mut h = KvHandler::new(name, 2);
            for i in 0..50u32 {
                h.handle_update(
                    Addr(1),
                    0,
                    i,
                    &put_frame(format!("k{i}").as_bytes(), &[1; 32]),
                    &mut rng,
                );
            }
            h.on_crash(&mut rng);
            h.on_recover();
            for i in 0..50u32 {
                assert_eq!(
                    h.peek(format!("k{i}").as_bytes()),
                    Some(vec![1; 32]),
                    "{name} k{i}"
                );
            }
        }
    }

    #[test]
    fn extra_cost_raises_service_time() {
        let mut rng = SimRng::seed(5);
        let mut plain = KvHandler::new("hashmap", 1);
        let mut redisish = KvHandler::new("hashmap", 1).with_extra_cost(Dur::micros(12));
        let a = plain.handle_update(Addr(1), 0, 0, &put_frame(b"k", b"v"), &mut rng);
        let b = redisish.handle_update(Addr(1), 0, 0, &put_frame(b"k", b"v"), &mut rng);
        assert!(b > a + Dur::micros(8));
    }

    /// Sums the derived service times of `n` updates of `vlen`-byte
    /// values over 512 keys (fresh inserts, then replacements).
    fn summed_service_time(h: &mut KvHandler, n: u32, vlen: usize) -> Dur {
        let mut rng = SimRng::seed(7);
        let value = vec![0xAB; vlen];
        let mut total = Dur::ZERO;
        for i in 0..n {
            let key = format!("user{:08}", i % 512);
            total += h.handle_update(Addr(1), 0, i, &put_frame(key.as_bytes(), &value), &mut rng);
        }
        total
    }

    /// Service times derive from the flushes, fences and bytes the arena
    /// counts and the work the index counts. These sums were captured
    /// before the arena's dirty-line map became a dense tracker and the
    /// WAL record and checkpoint stopped being staged in a `Vec`: a
    /// host-side change to the durable path must not move them.
    #[test]
    fn summed_service_times_are_pinned() {
        // A 256 KiB WAL fills every ~120 updates: the sum includes
        // automatic checkpoints of up to 512 x 2 KiB entries.
        let mut small_wal = KvHandler {
            kv: Some(PersistentKv::create(
                store_by_name("btree", 5),
                8 << 20,
                256 << 10,
                2 << 20,
            )),
            ..KvHandler::new("btree", 5)
        };
        let t = summed_service_time(&mut small_wal, 2_000, 2048);
        assert!(small_wal.kv().unwrap().ops_since_checkpoint() < 4_000);
        assert_eq!(t.as_nanos(), 143_512_321);
        let t = summed_service_time(&mut KvHandler::new("hashmap", 5), 2_000, 512);
        assert_eq!(t.as_nanos(), 35_288_018);
    }

    #[test]
    fn seq_keys_never_collide_with_workload_keys() {
        let k = seq_key(Addr(0xFFFF_FFFF), 0xFFFF);
        assert_eq!(k[0], 0x00);
        assert_eq!(k.len(), 7);
        assert_ne!(seq_key(Addr(1), 2), seq_key(Addr(1), 3));
        assert_ne!(seq_key(Addr(1), 2), seq_key(Addr(2), 2));
    }
}
