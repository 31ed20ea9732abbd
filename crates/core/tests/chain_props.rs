//! The device's acknowledgement rule, checked without a simulated world:
//! [`DeviceRole::owed`] is a pure function of the role and the log, so
//! random interleavings of everything that can happen to a log entry are
//! driven into a real [`LogStore`] and the rule is asked, the way the
//! device does (DESIGN.md §19), against a model of what the wire saw.
//!
//! Whatever the order: a client ack is never released before the entry's
//! write completed, at most once per admission outside duplicate re-acks,
//! and never lost; a primary never releases before its backup confirmed
//! or the chain was promoted, across power loss too; a backup never acks
//! the client and acks the primary only for a durable entry; nothing is
//! released for an entry the server acknowledged or a power loss took.

use bytes::Bytes;
use pmnet_core::config::DeviceConfig;
use pmnet_core::device::{DeviceRole, Release};
use pmnet_core::logstore::{LogOutcome, LogStore};
use pmnet_core::protocol::{PacketType, PmnetHeader};
use pmnet_net::Addr;
use pmnet_sim::Time;
use proptest::prelude::*;

/// Deliberately not ascending, so promote's release order is not the
/// admission order by accident.
const HASHES: [u32; 3] = [0x30, 0x10, 0x20];

/// The update logged under `HASHES[i]`.
fn header(i: usize) -> PmnetHeader {
    let mut h = PmnetHeader::request(PacketType::UpdateReq, 1, i as u32, Addr(1), Addr(9), 0, 1);
    h.hash = HASHES[i];
    h
}

fn index(hash: u32) -> usize {
    HASHES.iter().position(|&x| x == hash).unwrap()
}

/// What the wire knows about one hash.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// In the log (admitted and not yet server-acked or lost).
    live: bool,
    /// Its PM write completed: with `live`, the log's `durable`.
    written: bool,
    /// The backup's `ChainAck` arrived during this admission.
    confirmed: bool,
    /// Client acks released by a write completion, a `ChainAck` or a
    /// promotion.
    released: u32,
}

impl Entry {
    fn durable(&self) -> bool {
        self.live && self.written
    }
}

struct Model {
    log: LogStore,
    now: Time,
    /// The role the device was wired with; `role` turns solo on promotion.
    wired: DeviceRole,
    role: DeviceRole,
    entries: [Entry; 3],
}

impl Model {
    fn owed(&self, hash: u32) -> Release {
        self.role.owed(&self.log, hash, self.now)
    }

    /// Checks one decision against every safety property.
    fn check(&mut self, i: usize, release: Release, duplicate: bool) {
        let e = self.entries[i];
        let promoted = self.role != self.wired;
        match release {
            Release::Hold => {}
            Release::AckClient => {
                prop_assert!(e.durable(), "client ack before the write completed");
                prop_assert!(
                    self.wired != DeviceRole::Backup || promoted,
                    "a backup acknowledged a client"
                );
                if self.wired == DeviceRole::Primary && !promoted {
                    prop_assert!(e.confirmed, "primary released before the backup confirmed");
                }
                if !duplicate {
                    prop_assert_eq!(e.released, 0, "released twice in one admission");
                    self.entries[i].released += 1;
                }
            }
            Release::AckPrimary => {
                prop_assert!(e.durable(), "chain ack before the write completed");
                prop_assert_eq!(self.role, DeviceRole::Backup);
            }
        }
    }

    /// No ack is lost: once everything an entry's ack waits for has
    /// happened, it has been released.
    fn check_nothing_stranded(&self) {
        if self.wired == DeviceRole::Backup {
            // A promoted backup owes the client nothing for what it took as
            // a backup: the primary acknowledged it, or the client
            // retransmits and the duplicate is answered.
            return;
        }
        for e in self.entries.iter().filter(|e| e.durable()) {
            let owed = match self.role {
                DeviceRole::Solo => true,
                DeviceRole::Primary => e.confirmed,
                DeviceRole::Backup => false,
            };
            if owed {
                prop_assert_eq!(e.released, 1, "a due client ack was never released");
            }
        }
    }

    fn step(&mut self, event: u8, i: usize) {
        let hash = HASHES[i];
        let e = self.entries[i];
        match event {
            // An update arrives: staged behind the doorbell, or a duplicate
            // of a live entry.
            0 if !e.live => {
                let h = header(i);
                let staged = self.log.try_stage(self.now, h, Bytes::new(), Addr(9), 1, 2);
                self.entries[i] = Entry {
                    live: true,
                    ..Entry::default()
                };
                prop_assert_eq!(staged, LogOutcome::Staged);
            }
            0 | 1 if e.live => {
                let release = self.owed(hash);
                self.check(i, release, true);
            }
            // The doorbell rings and the window's PM write completes:
            // every staged entry is written at once.
            2 if e.live && !e.written => {
                let (ack_at, window) = self.log.flush_staged(self.now).expect("staged");
                let window: Vec<u32> = window.collect();
                prop_assert!(window.contains(&hash));
                self.now = ack_at;
                for hash in window {
                    let i = index(hash);
                    self.entries[i].written = true;
                    let release = self.owed(hash);
                    self.check(i, release, false);
                }
            }
            // A `ChainAck` arrives — possibly late, repeated, or for an
            // entry long gone. Only a primary records it.
            3 => {
                self.entries[i].confirmed |= e.live;
                let confirmed = self.role == DeviceRole::Primary && self.log.confirm(hash);
                let release = if confirmed {
                    self.owed(hash)
                } else {
                    Release::Hold
                };
                prop_assert!(e.live || release == Release::Hold, "released a dead entry");
                self.check(i, release, false);
            }
            4 => {
                self.log.invalidate(hash);
                self.entries[i].live = false;
            }
            // Promote: a primary's durable unconfirmed entries are owed
            // their client acks now, in ascending hash order.
            5 => {
                let was = std::mem::replace(&mut self.role, DeviceRole::Solo);
                if was != DeviceRole::Primary {
                    return self.check_nothing_stranded();
                }
                let mut last = None;
                for hash in self.log.hashes() {
                    if self.log.peek(hash).is_some_and(|e| e.confirmed) {
                        continue;
                    }
                    let release = self.owed(hash);
                    if release == Release::AckClient {
                        prop_assert!(last < Some(hash), "not ascending");
                        last = Some(hash);
                        let i = index(hash);
                        prop_assert!(!self.entries[i].confirmed, "was not stranded");
                        self.check(i, release, false);
                    }
                }
            }
            // Power loss and restore: PM keeps what was written, the bit
            // included; a backup re-sends each survivor's `ChainAck`.
            6 => {
                self.log.crash(self.now);
                for e in &mut self.entries {
                    e.live &= e.written;
                }
                for (i, &hash) in HASHES.iter().enumerate() {
                    let kept = self.log.peek(hash).is_some();
                    prop_assert_eq!(kept, self.entries[i].live, "the log disagrees");
                }
                if self.role == DeviceRole::Backup {
                    for hash in self.log.hashes() {
                        let release = self.owed(hash);
                        self.check(index(hash), release, true);
                    }
                }
            }
            _ => {}
        }
        self.check_nothing_stranded();
    }
}

fn run(wired: DeviceRole, events: &[(u8, usize)]) {
    let mut model = Model {
        log: LogStore::new(&DeviceConfig::fpga()),
        now: Time::ZERO,
        wired,
        role: wired,
        entries: [Entry::default(); 3],
    };
    for &(event, i) in events {
        model.step(event, i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn every_interleaving_keeps_the_acknowledgement_rule(
        events in prop::collection::vec((0u8..7, 0usize..3), 0..60),
    ) {
        for role in [DeviceRole::Solo, DeviceRole::Primary, DeviceRole::Backup] {
            run(role, &events);
        }
    }
}

#[test]
fn the_three_role_table() {
    // The happy path of each role, spelled out once.
    use DeviceRole::{Backup, Primary, Solo};
    use Release::{AckClient, AckPrimary, Hold};
    let mut log = LogStore::new(&DeviceConfig::fpga());
    let owed = |log: &LogStore, hash, now| [Solo, Primary, Backup].map(|r| r.owed(log, hash, now));
    let stage =
        |log: &mut LogStore, i| log.try_stage(Time::ZERO, header(i), Bytes::new(), Addr(9), 1, 2);
    let (one, two) = (HASHES[0], HASHES[1]);

    stage(&mut log, 0);
    assert_eq!(owed(&log, one, Time::ZERO), [Hold; 3], "staged");
    let (now, _) = log.flush_staged(Time::ZERO).unwrap();
    assert_eq!(owed(&log, one, now), [AckClient, Hold, AckPrimary]);
    assert!(log.confirm(one));
    assert!(!log.confirm(one), "a repeat");
    assert_eq!(owed(&log, one, now), [AckClient, AckClient, AckPrimary]);
    assert_eq!(log.crash(now), 0);
    assert_eq!(
        owed(&log, one, now),
        [AckClient, AckClient, AckPrimary],
        "kept"
    );

    stage(&mut log, 1);
    assert!(log.confirm(two), "confirmed first");
    assert_eq!(owed(&log, two, now), [Hold; 3]);
    let (later, _) = log.flush_staged(now).unwrap();
    assert_eq!(owed(&log, two, later), [AckClient, AckClient, AckPrimary]);

    log.invalidate(one);
    assert_eq!(owed(&log, one, later), [Hold; 3], "server-acked");
    assert!(!log.confirm(one));
}
