//! Telemetry overhead smoke: the same seeded workload run back-to-back
//! with a detached handle and with full tracing attached.
//!
//! Two properties are checked:
//!
//! 1. **Equivalence** — completions, mean latency and the flattened
//!    counter set are bit-identical with telemetry on or off (hooks are
//!    pure observation; a divergence here is a correctness bug, not a
//!    perf problem). This always fails the run.
//! 2. **Overhead** — full tracing must stay within 10% of the detached
//!    run or within `FLOOR_NS_PER_OP` of it per op, whichever is
//!    larger (`--gate` enforces; without it both are only reported).
//!    The ratio alone tightens whenever the simulator gets faster while
//!    tracing's own cost has not moved; the floor is what 10% was worth
//!    when the detached run last cost 5.6 us per op, so the bar on
//!    tracing's absolute cost stays where it was.
//!    Scheduler noise only ever *adds* time, so the best-of-N minimum
//!    over enough rounds converges on the unloaded cost of each side;
//!    rounds alternate which side runs first so neither one
//!    systematically enjoys a warmer cache. A breach must show in both
//!    the best-of ratio and the median per-round ratio, and survive a
//!    fresh re-measurement, before the gate fails the run.
//!
//! Modes: `--fast` shrinks the workload for CI smoke runs; `--gate`
//! exits nonzero when the overhead bound is breached.

use std::time::Instant;

use pmnet_core::system::{DesignPoint, SystemBuilder};
use pmnet_core::SystemConfig;
use pmnet_sim::Dur;
use pmnet_telemetry::Telemetry;
use pmnet_workloads::{KvHandler, YcsbSource};

const SEED: u64 = 53;

struct RunResult {
    wall_nanos: u64,
    completed: usize,
    mean: Dur,
    counters: String,
    traces: usize,
}

fn run_once(attach: bool, requests: usize) -> RunResult {
    let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 5)));
    for _ in 0..4 {
        b = b.client(Box::new(YcsbSource::new(requests, 4000, 0.7, 100)));
    }
    let mut sys = b.build(SEED);
    let tel = if attach {
        Telemetry::full()
    } else {
        Telemetry::disabled()
    };
    sys.attach_telemetry(&tel);
    let wall = Instant::now();
    sys.run_clients(Dur::secs(30));
    let metrics = sys.metrics();
    RunResult {
        wall_nanos: wall.elapsed().as_nanos() as u64,
        completed: metrics.completed,
        mean: metrics.latency.mean(),
        counters: sys.counter_set().to_string(),
        traces: tel.traces().len(),
    }
}

/// Tracing's cost by one estimator: as a ratio to the detached run and
/// in nanoseconds per op.
#[derive(Clone, Copy)]
struct Overhead {
    ratio: f64,
    ns_per_op: f64,
}

impl Overhead {
    fn over_budget(self) -> bool {
        self.ratio > BUDGET && self.ns_per_op > FLOOR_NS_PER_OP
    }
}

/// One full measurement: `rounds` interleaved pairs. Returns the
/// best-of-N overhead and the median per-round overhead — two
/// estimators with different failure modes under load (the minimum can
/// pair a quiet "off" window with an unlucky "on" one; the median is
/// immune to that but jittery when every round is disturbed).
fn measure(requests: usize, rounds: usize) -> (Overhead, Overhead) {
    let mut ratios: Vec<f64> = Vec::new();
    let mut diffs: Vec<f64> = Vec::new();
    let mut best_off = u64::MAX;
    let mut best_on = u64::MAX;
    let mut reference: Option<RunResult> = None;
    for round in 0..rounds {
        // Alternate which side runs first within the pair.
        let (off, on) = if round % 2 == 0 {
            let off = run_once(false, requests);
            let on = run_once(true, requests);
            (off, on)
        } else {
            let on = run_once(true, requests);
            let off = run_once(false, requests);
            (off, on)
        };
        // Equivalence: telemetry must observe, never perturb.
        assert_eq!(on.completed, off.completed, "completions diverged");
        assert_eq!(on.mean, off.mean, "mean latency diverged");
        assert_eq!(on.counters, off.counters, "counter set diverged");
        assert_eq!(on.traces, on.completed, "one trace per completion");
        assert_eq!(off.traces, 0, "detached handle must record nothing");
        if let Some(r) = &reference {
            assert_eq!(r.mean, on.mean, "nondeterministic run at round {round}");
        }
        ratios.push(on.wall_nanos as f64 / off.wall_nanos as f64);
        diffs.push(on.wall_nanos as f64 - off.wall_nanos as f64);
        best_off = best_off.min(off.wall_nanos);
        best_on = best_on.min(on.wall_nanos);
        reference = Some(off);
    }

    let ops = reference.as_ref().map_or(0, |r| r.completed);
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    diffs.sort_by(|a, b| a.partial_cmp(b).expect("differences are finite"));
    let best = Overhead {
        ratio: best_on as f64 / best_off as f64,
        ns_per_op: (best_on as f64 - best_off as f64) / ops as f64,
    };
    let median = Overhead {
        ratio: ratios[ratios.len() / 2],
        ns_per_op: diffs[diffs.len() / 2] / ops as f64,
    };
    eprintln!(
        "telemetry_overhead: {ops} ops x {rounds} rounds: off {:.2} ms, on {:.2} ms, \
         overhead {:+.1}% ({:+.0} ns/op) best-of / {:+.1}% ({:+.0} ns/op) median",
        best_off as f64 / 1e6,
        best_on as f64 / 1e6,
        (best.ratio - 1.0) * 100.0,
        best.ns_per_op,
        (median.ratio - 1.0) * 100.0,
        median.ns_per_op,
    );
    (best, median)
}

const BUDGET: f64 = 1.10;
/// 10% of the 5.6 us the detached run cost per op when the event list
/// was replaced (this container). Below it a ratio over `BUDGET` means
/// the simulator got cheaper, not that tracing got dearer.
const FLOOR_NS_PER_OP: f64 = 560.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let gate = args.iter().any(|a| a == "--gate");
    // Fast mode still needs runs long enough that scheduler jitter can't
    // fake a double-digit overhead: ~10ms per side per round, and enough
    // rounds for each side's minimum to converge.
    let (requests, rounds) = if fast { (300, 9) } else { (600, 9) };

    // Warm up both paths once so the first measured round isn't paying
    // for lazy allocator/page-cache setup.
    run_once(false, 40);
    run_once(true, 40);

    // A breach must show in BOTH estimators, and survive one fresh
    // re-measurement: a real regression (the budget guards against
    // order-of-magnitude mistakes, not percent creep) trips everything;
    // a loaded CI neighbor rarely distorts two estimators twice.
    let mut breaches = 0;
    for attempt in 0..2 {
        let (best, median) = measure(requests, rounds);
        if !(best.over_budget() && median.over_budget()) {
            break;
        }
        breaches += 1;
        if attempt == 0 {
            eprintln!("telemetry_overhead: over budget on both estimators; re-measuring once");
        }
    }
    if breaches == 2 {
        eprintln!(
            "telemetry_overhead: full tracing exceeds the 10% / {FLOOR_NS_PER_OP} ns per op overhead budget"
        );
        if gate {
            std::process::exit(1);
        }
        eprintln!("telemetry_overhead: (not gated; pass --gate to enforce)");
    }
}
