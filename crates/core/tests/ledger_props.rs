//! The log store's per-session ledger against a recount of the log.
//!
//! `LogStore` keeps live-entry counts per `(server, client, session)` next
//! to its entry table. Those counts decide two things on every packet: the
//! read-ordering guard (`has_outstanding`) and the spill quota
//! (`BypassReason::SessionQuota`). Random interleavings of logging,
//! staging, doorbell flushes, invalidation, power loss and purges are
//! driven into one store, and after every step both decisions must equal
//! what a recount over the live entries says.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use pmnet_core::config::DeviceConfig;
use pmnet_core::logstore::{BypassReason, LogOutcome, LogStore};
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_net::Addr;
use pmnet_sim::{Dur, Time};
use proptest::prelude::*;

type SessionKey = (Addr, Addr, u16);

/// The `k`-th key of the universe: two servers, sixteen clients and up to
/// nineteen sessions each, one key per `k` below 600.
fn key(k: usize) -> SessionKey {
    (
        Addr(8 + (k % 2) as u32),
        Addr(1 + ((k / 2) % 16) as u32),
        (k / 32) as u16,
    )
}

/// Live entries per key, counted from the entry table itself.
fn recount(s: &LogStore) -> BTreeMap<SessionKey, u32> {
    let mut counts = BTreeMap::new();
    for hash in s.hashes() {
        let e = s.peek(hash).expect("listed hashes are live");
        *counts
            .entry((e.server, e.header.client, e.header.session))
            .or_insert(0) += 1;
    }
    counts
}

struct Model {
    store: LogStore,
    quota: u32,
    now: Time,
    /// The last header offered per key, re-offered as a retransmission.
    last: BTreeMap<SessionKey, PmnetHeader>,
    next_seq: u32,
    touched: BTreeSet<SessionKey>,
}

impl Model {
    fn offer(&mut self, k: SessionKey, stage: bool, retransmit: bool) {
        let (server, client, session) = k;
        let header = match self.last.get(&k) {
            Some(&h) if retransmit => h,
            _ => {
                self.next_seq += 1;
                let seq = self.next_seq;
                PmnetHeader::request(PacketType::UpdateReq, session, seq, client, server, 0, 1)
            }
        };
        self.last.insert(k, header);
        self.touched.insert(k);
        let live = recount(&self.store).get(&k).copied().unwrap_or(0);
        let payload = Bytes::from_static(b"ledger");
        let outcome = if stage {
            self.store
                .try_stage(self.now, header, payload, server, 51000, 51000)
        } else {
            self.store
                .try_log(self.now, header, payload, server, 51000, 51000)
        };
        match outcome {
            LogOutcome::Bypass(BypassReason::SessionQuota) => {
                prop_assert!(live >= self.quota, "spilled {k:?} at {live} live");
            }
            // Decided before the quota check: nothing to compare.
            LogOutcome::Duplicate | LogOutcome::Bypass(BypassReason::HashCollision) => {}
            // Every other outcome passed the quota check.
            _ => prop_assert!(live < self.quota, "admitted {k:?} at {live} live"),
        }
    }

    fn step(&mut self, op: u8, k: usize, arg: u64) {
        match op {
            0..=2 => self.offer(key(k), false, false),
            3 | 4 => self.offer(key(k), true, false),
            5 => self.offer(key(k), arg.is_multiple_of(2), true),
            6 => {
                self.store.flush_staged(self.now);
            }
            7..=9 => {
                let hashes = self.store.hashes();
                if !hashes.is_empty() {
                    let hash = hashes[arg as usize % hashes.len()];
                    prop_assert!(self.store.invalidate(hash).is_some());
                }
            }
            10 => {
                self.store.crash(self.now);
            }
            11 if arg.is_multiple_of(8) => {
                self.store.purge();
            }
            _ => self.now += Dur::nanos(arg % 2_000),
        }
    }

    fn check(&self) {
        let live = recount(&self.store);
        for k in &self.touched {
            let (server, client, session) = *k;
            prop_assert_eq!(
                self.store.has_outstanding(server, client, session),
                live.contains_key(k),
                "ledger disagrees with the log on {:?} ({:?} live)",
                k,
                live.get(k)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn the_ledger_equals_a_recount_of_the_log(
        keys in prop_oneof![1usize..8, 8usize..64, 64usize..601],
        quota in 1u32..5,
        steps in prop::collection::vec((0u8..14, 0usize..600, any::<u64>()), 1..200),
    ) {
        let config = DeviceConfig::fpga().with_spill_policy(quota, 0);
        let mut m = Model {
            store: LogStore::new(&config),
            quota,
            now: Time::ZERO,
            last: BTreeMap::new(),
            next_seq: 0,
            touched: BTreeSet::new(),
        };
        for (op, k, arg) in steps {
            m.step(op, k % keys, arg);
            m.check();
        }
    }
}
