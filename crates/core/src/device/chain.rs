//! The chain rule: which acknowledgement a log entry is owed, by role
//! (DESIGN.md §13.2, §19). A pure decision table in the style of
//! [`crate::fabric::FabricMap`] and [`crate::server::stream::Stream`] — no
//! clock, no packets, no counters. It never learns *when* an entry is
//! durable: the device reads that from the log
//! ([`crate::logstore::LogStore::durable`]) and tells the machine, so the
//! only state kept here is what the log cannot know — which entries a
//! primary's backup has yet to confirm.

use std::collections::HashSet;

use pmnet_sim::hash::FixedState;

/// The device's position in its shard's replication chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    /// Unreplicated (the single-device configuration, or a promoted
    /// survivor): log-and-ack exactly as the paper describes.
    Solo,
    /// Chain head: logs, forwards the update through the backup, and
    /// withholds the client's PMNet-ACK until the backup's `ChainAck`
    /// proves the update is durable twice.
    Primary,
    /// Chain tail: logs and acknowledges *to the primary* (`ChainAck`)
    /// instead of to the client.
    Backup,
}

/// What the device owes for one entry after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Nothing yet: a later event (the write completing, the backup's
    /// confirmation, a promotion) releases it.
    Hold,
    /// The PMNet-ACK to the client.
    AckClient,
    /// The `ChainAck` to the chain primary.
    AckPrimary,
}

/// One device's side of the chain protocol.
#[derive(Debug)]
pub struct Chain {
    role: DeviceRole,
    /// Primary role: admitted entries the backup has not confirmed. Empty
    /// in every other role — a solo device keeps no per-entry record.
    /// Held in DRAM: a power loss forgets it ([`Chain::reset`]).
    awaiting: HashSet<u32, FixedState>,
}

impl Chain {
    /// A chain member in `role` with nothing outstanding.
    pub fn new(role: DeviceRole) -> Chain {
        let awaiting = HashSet::default();
        Chain { role, awaiting }
    }

    /// The current role.
    pub fn role(&self) -> DeviceRole {
        self.role
    }

    /// The log admitted `hash` (its write scheduled, or staged behind the
    /// doorbell).
    pub fn admitted(&mut self, hash: u32) {
        if self.role == DeviceRole::Primary {
            self.awaiting.insert(hash);
        }
    }

    /// The PM write covering `hash` completed and the entry is still live:
    /// it is durable from this instant, and owed its role's ack.
    pub fn written(&self, hash: u32) -> Release {
        match self.role {
            DeviceRole::Solo => Release::AckClient,
            DeviceRole::Primary if self.awaiting.contains(&hash) => Release::Hold,
            DeviceRole::Primary => Release::AckClient,
            DeviceRole::Backup => Release::AckPrimary,
        }
    }

    /// The backup's `ChainAck` for `hash` arrived. A repeat, or one for an
    /// entry the server already acknowledged, releases nothing.
    pub fn confirmed(&mut self, hash: u32, durable: bool) -> Release {
        if self.awaiting.remove(&hash) && durable {
            Release::AckClient
        } else {
            Release::Hold
        }
    }

    /// Another copy of the already-logged `hash` arrived (a client
    /// retransmission, or the primary re-driving a lost `ChainAck`). An
    /// acknowledgement lost on the wire is repeated; one not yet earned is
    /// not brought forward.
    pub fn duplicate(&self, hash: u32, durable: bool) -> Release {
        if durable {
            self.written(hash)
        } else {
            Release::Hold
        }
    }

    /// The server acknowledged `hash`: its ack supersedes the chain's (the
    /// client is satisfied by the `ServerAck` itself).
    pub fn server_acked(&mut self, hash: u32) {
        self.awaiting.remove(&hash);
    }

    /// The coordinator collapsed the chain: this device is solo from now
    /// on. Returns, in ascending hash order (the order they go on the
    /// wire), the entries whose client ack was waiting on a `ChainAck`
    /// that will never come and which `durable` says may be acknowledged
    /// now; the rest are acknowledged solo when their write completes.
    pub fn promoted(&mut self, durable: impl Fn(u32) -> bool) -> Vec<u32> {
        self.role = DeviceRole::Solo;
        let mut stranded: Vec<u32> = self.awaiting.drain().filter(|&h| durable(h)).collect();
        stranded.sort_unstable();
        stranded
    }

    /// Power returned with `hash` still in PM. Only a backup speaks up: its
    /// primary may be withholding a client ack on a `ChainAck` the outage
    /// swallowed. (A client whose PMNet-ACK was lost retransmits, and the
    /// duplicate is answered then.)
    pub fn restored(&self, _hash: u32) -> Release {
        if self.role == DeviceRole::Backup {
            Release::AckPrimary
        } else {
            Release::Hold
        }
    }

    /// Power loss or fencing: every withheld ack is forgotten. Clients
    /// re-drive incomplete updates; the server's ack backstops an entry
    /// whose chain completion was mid-flight.
    pub fn reset(&mut self) {
        self.awaiting.clear();
    }
}
