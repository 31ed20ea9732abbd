//! The device's acknowledgement rule, checked without a simulated world:
//! [`Chain`] is a pure machine, so random interleavings of everything that
//! can happen to a log entry are driven straight into it, the way the
//! device does (DESIGN.md §19), against a model of the log.
//!
//! Whatever the order: a client ack is never released before the entry's
//! write completed, at most once per admission outside duplicate re-acks,
//! and never lost; a primary never releases before its backup confirmed
//! or the chain was promoted; a backup never acks the client and acks the
//! primary only for a durable entry; nothing is released for an entry the
//! server acknowledged or a power loss took.

use pmnet_core::device::chain::{Chain, DeviceRole, Release};
use proptest::prelude::*;

/// Deliberately not ascending, so promote's release order is not the
/// admission order by accident.
const HASHES: [u32; 3] = [0x30, 0x10, 0x20];

/// What the log and the wire know about one hash.
#[derive(Clone, Copy, Default)]
struct Entry {
    /// In the log (admitted and not yet server-acked or lost).
    live: bool,
    /// Its PM write completed: with `live`, the log's `durable`.
    written: bool,
    /// The backup's `ChainAck` arrived during this admission.
    confirmed: bool,
    /// Admitted since the last power loss. A power loss wipes the
    /// primary's withheld-ack set (DRAM), so a surviving entry is from
    /// then on acknowledged as if confirmed; the chain properties below
    /// speak about entries the machine has watched from admission.
    watched: bool,
    /// Client acks released by `written` / `confirmed` / `promoted`.
    released: u32,
}

impl Entry {
    fn durable(&self) -> bool {
        self.live && self.written
    }
}

struct Model {
    chain: Chain,
    /// The role the device was wired with; `chain.role()` turns solo on
    /// promotion.
    wired: DeviceRole,
    entries: [Entry; 3],
}

impl Model {
    /// Checks one decision against every safety property.
    fn check(&mut self, i: usize, release: Release, duplicate: bool) {
        let e = self.entries[i];
        let promoted = self.chain.role() != self.wired;
        match release {
            Release::Hold => {}
            Release::AckClient => {
                prop_assert!(e.durable(), "client ack before the write completed");
                prop_assert!(
                    self.wired != DeviceRole::Backup || promoted,
                    "a backup acknowledged a client"
                );
                if self.wired == DeviceRole::Primary && !promoted && e.watched {
                    prop_assert!(e.confirmed, "primary released before the backup confirmed");
                }
                if !duplicate {
                    prop_assert_eq!(e.released, 0, "released twice in one admission");
                    self.entries[i].released += 1;
                }
            }
            Release::AckPrimary => {
                prop_assert!(e.durable(), "chain ack before the write completed");
                prop_assert_eq!(self.chain.role(), DeviceRole::Backup);
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
        for e in self.entries.iter().filter(|e| e.durable() && e.watched) {
            let owed = match self.chain.role() {
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
            // An update arrives: admitted, or a duplicate of a live entry.
            0 if !e.live => {
                self.entries[i] = Entry {
                    live: true,
                    watched: true,
                    ..Entry::default()
                };
                self.chain.admitted(hash);
            }
            0 | 1 if e.live => {
                let release = self.chain.duplicate(hash, e.durable());
                self.check(i, release, true);
            }
            // The PM write completes — once per admission, and only for an
            // entry still in the log (the device checks `durable` first).
            2 if e.live && !e.written => {
                self.entries[i].written = true;
                let release = self.chain.written(hash);
                self.check(i, release, false);
            }
            // A `ChainAck` arrives — possibly late, repeated, or for an
            // entry long gone.
            3 => {
                self.entries[i].confirmed |= e.live;
                let release = self.chain.confirmed(hash, e.durable());
                prop_assert!(e.live || release == Release::Hold, "released a dead entry");
                self.check(i, release, false);
            }
            4 => {
                self.chain.server_acked(hash);
                self.entries[i].live = false;
            }
            5 => {
                let entries = self.entries;
                let index = |h: u32| HASHES.iter().position(|&x| x == h).unwrap();
                let durable = |h: u32| entries[index(h)].durable();
                let stranded = self.chain.promoted(durable);
                prop_assert!(stranded.windows(2).all(|w| w[0] < w[1]), "not ascending");
                prop_assert_eq!(self.chain.role(), DeviceRole::Solo);
                for h in stranded {
                    let i = index(h);
                    prop_assert!(!self.entries[i].confirmed, "was not stranded");
                    self.check(i, Release::AckClient, false);
                }
            }
            // Power loss: PM keeps what was written, DRAM keeps nothing.
            6 => {
                self.chain.reset();
                for e in &mut self.entries {
                    e.live &= e.written;
                    e.watched = false;
                }
                for (i, &hash) in HASHES.iter().enumerate() {
                    let release = self.chain.restored(hash);
                    if self.entries[i].live {
                        prop_assert!(release != Release::AckClient);
                        self.check(i, release, true);
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
        chain: Chain::new(wired),
        wired,
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
    let mut solo = Chain::new(DeviceRole::Solo);
    solo.admitted(1);
    assert_eq!(solo.duplicate(1, false), Release::Hold);
    assert_eq!(solo.written(1), Release::AckClient);
    assert_eq!(solo.duplicate(1, true), Release::AckClient);

    let mut primary = Chain::new(DeviceRole::Primary);
    primary.admitted(1);
    assert_eq!(primary.written(1), Release::Hold);
    assert_eq!(primary.duplicate(1, true), Release::Hold);
    assert_eq!(primary.confirmed(1, true), Release::AckClient);
    assert_eq!(primary.confirmed(1, true), Release::Hold, "a repeat");
    assert_eq!(primary.duplicate(1, true), Release::AckClient);
    primary.admitted(2);
    assert_eq!(
        primary.confirmed(2, false),
        Release::Hold,
        "confirmed first"
    );
    assert_eq!(primary.written(2), Release::AckClient);

    let mut backup = Chain::new(DeviceRole::Backup);
    backup.admitted(1);
    assert_eq!(backup.duplicate(1, false), Release::Hold);
    assert_eq!(backup.written(1), Release::AckPrimary);
    assert_eq!(backup.duplicate(1, true), Release::AckPrimary);
    assert_eq!(backup.restored(1), Release::AckPrimary);
    assert_eq!(backup.promoted(|_| true), Vec::<u32>::new());
    assert_eq!(backup.duplicate(1, true), Release::AckClient, "solo now");
}
