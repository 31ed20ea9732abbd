//! Persistent-memory substrate for the PMNet reproduction.
//!
//! The paper's system has PM in two places: on the **network device** (the
//! FPGA's battery-backed DRAM that holds the request log, Section V-A) and
//! on the **server** (Intel Optane DCPMM holding the application state,
//! Table II). This crate models both:
//!
//! * [`PmDevice`] — a latency/bandwidth timing model of a PM module
//!   (write 273 ns, 2.5 GB/s by default, matching Section V-A/VII), used by
//!   the PMNet device's log store and by server-side cost accounting.
//! * [`PmArena`] — a byte-addressable persistence simulation with
//!   cache-line granularity: stores are volatile until flushed and fenced;
//!   [`PmArena::crash`] persists a *random subset* of unfenced lines, the
//!   adversarial semantics real write-back caches have. It numbers its own
//!   persist points and [`PmArena::arm`] cuts the power at any one of them.
//! * [`Wal`] — a checksummed write-ahead redo log on a [`PmArena`].
//! * [`kv`] — five key-value structures mirroring the paper's PMDK
//!   workloads (B-Tree, C-Tree/crit-bit, RB-Tree, Hashmap, Skip list), each
//!   instrumented with [`kv::OpStats`] so server service times can be
//!   derived from real work done.
//! * [`PersistentKv`] — the crash-consistent store every KV request is
//!   served from: a KV structure, a [`Wal`] and out-of-place checkpoints;
//!   after any crash, recovery replays the log over the last checkpoint.
//!   `tests/crash_sweep.rs` kills it at every persist point.
//!
//! Substitution note (see DESIGN.md): the paper's PMDK workloads run PMDK
//! transactions directly on Optane. We substitute a redo-log +
//! checkpointed-index design with identical recovery semantics — the part
//! of the stack PMNet's protocol actually interacts with — and model PM
//! costs through [`CostModel`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod cost;
mod crc32;
mod device;
mod persistent;
mod wal;

pub mod kv;

pub use arena::{ArenaStats, PmArena, PmPtr, LINE};
pub use cost::CostModel;
pub use crc32::{crc32, crc32_finish, crc32_init, crc32_update};
pub use device::{PmDevice, PmDeviceConfig, PmDeviceCounters};
pub use persistent::{KvOp, PersistentKv};
pub use wal::{Wal, WalStats};
