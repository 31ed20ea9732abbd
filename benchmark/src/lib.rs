//! The repo benchmark: five seeded workloads through the public API,
//! host and simulated end-to-end metrics, and a per-layer ledger.
//! See `README.md` beside this package and `BENCHMARK.json` at the
//! repository root.

pub mod alloc;
pub mod bench;
pub mod calib;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod rig;
pub mod spans;
pub mod stats;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
