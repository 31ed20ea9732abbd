//! The measurement protocol: repetitions, gates and metric arithmetic.
//!
//! An untraced run repeats one cycle until `seconds` have passed: set up
//! (inputs, a warm-up repetition at 1/10 size, the full-size build), then
//! the timed window (client start until every client finished and every
//! device log drained). The cycles take turns over [`WORLDS`] worlds, each
//! with a seed of its own derived from `--seed`: simulated metrics are the
//! mean over the worlds, which is what keeps seed-to-seed noise (one
//! world's luck with losses and backoff) out of them. A world simulated
//! again must repeat its first outcome bit for bit; host metrics are the
//! median over all cycles. A traced run spends its time on rounds of a
//! span-wrapped and a telemetry-attached repetition between two detached
//! ones, all of the first world, then the isolated layer drives.

use std::time::{Duration, Instant};

use pmnet_telemetry::span::Phase;
use pmnet_telemetry::Telemetry;

use crate::alloc;
use crate::calib::{Calib, Pacer};
use crate::json::{obj, Json};
use crate::layers::DRIVES;
use crate::manifest::{per_layer, span_metric_names, END_TO_END};
use crate::rig::{Outcome, Rig, Workload};
use crate::spans::{NodeKind, SpanTable, MSG_KINDS};
use crate::stats::{median, quantile_ns, range_share};

/// Worlds an untraced run simulates in turn.
pub const WORLDS: usize = 3;

/// The seed of world `world` of a workload whose seed is `seed`; world 0
/// is the workload's own seed, and the world a traced run looks into.
fn world_seed(seed: u64, world: usize) -> u64 {
    seed.wrapping_add(world as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Base seed; workload `i` builds with `seed ^ i`.
    pub seed: u64,
    /// Measure for at least this long.
    pub seconds: f64,
    /// Divide every workload's size by this (1 = full, 100 = smoke).
    pub shrink: usize,
}

/// The result of one workload in one mode.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which workload.
    pub workload: Workload,
    /// Every gate passed: nothing failed, audit clean, logs drained,
    /// repetitions and worlds identical.
    pub correct: bool,
    /// Operations the clients tried, over every world simulated.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// `(name, value, unit)`, in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Readings printed beside the metrics and left out of the result
    /// line: the raw figures behind the calibrated ones.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// CRC-32 of each world's simulated outcome: a host-speed-only change
    /// must leave them unchanged.
    pub sim_digests: Vec<u32>,
    /// Measured cycles (untraced) or rounds (traced) behind the medians.
    pub cycles: usize,
    /// What failed, when something did.
    pub complaints: Vec<String>,
    /// Span accumulators of the traced run, for `out/trace.json`.
    pub trace: Option<Json>,
}

impl Report {
    /// The driver's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = obj([("value", (*value).into()), ("unit", (*unit).into())]);
                (name.clone(), m)
            })
            .collect();
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
        .line()
    }

    /// The same for people: one `name value unit` row per metric.
    pub fn table(&self) -> String {
        let mut out = format!("workload {}\n", self.workload.name());
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("  {name:<46} {value:>16.4} {unit}\n"));
        }
        for (name, value, unit) in &self.notes {
            out.push_str(&format!("  ({name:<44}) {value:>16.4} {unit}\n"));
        }
        let digests: Vec<String> = self
            .sim_digests
            .iter()
            .map(|d| format!("{d:08x}"))
            .collect();
        out.push_str(&format!("  sim_digest {}\n", digests.join(" ")));
        out.push_str(&format!(
            "  attempted {} failed {} correct {} cycles {}\n",
            self.attempted, self.failed, self.correct, self.cycles
        ));
        for c in &self.complaints {
            out.push_str(&format!("  GATE FAILED: {c}\n"));
        }
        out
    }
}

/// One repetition's host-side measurements.
struct Timed {
    /// Raw time of the timed window.
    raw: Duration,
    /// The reference loop's cost while this repetition ran.
    calib_ns: f64,
    heap: alloc::HeapWindow,
    outcome: Outcome,
}

impl Timed {
    /// Factor turning raw host time into calibrated host time.
    fn scale(&self) -> f64 {
        Calib::REF_NS_PER_ITER / self.calib_ns
    }

    fn seconds(&self) -> f64 {
        self.raw.as_secs_f64() * self.scale()
    }
}

/// Runs and reads back one repetition. `finish` runs inside the clock
/// after the world stops (to pay for reading telemetry back). The
/// calibration window closes with the repetition; whatever the caller
/// calibrated since the previous one (the set-up) shares it.
fn repetition(calib: &mut Calib, mut rig: Rig, finish: impl FnOnce()) -> Timed {
    alloc::reset();
    calib.take_heap(alloc::window());
    let mut pacer = Pacer::start(calib);
    rig.run(&mut || pacer.tick());
    finish();
    let raw = pacer.stop();
    let heap = calib.take_heap(alloc::window());
    let calib_ns = calib.take_ns_per_iter();
    Timed {
        raw,
        calib_ns,
        heap,
        outcome: rig.outcome(),
    }
}

fn gates(outcome: &Outcome, complaints: &mut Vec<String>) {
    if outcome.failed() > 0 {
        complaints.push(format!(
            "{} of {} operations did not complete",
            outcome.failed(),
            outcome.attempted
        ));
    }
    if outcome.ragged_acks > 0 {
        complaints.push(format!(
            "audit: {} clients acknowledged fragments that are not whole updates",
            outcome.ragged_acks
        ));
    }
    if outcome.audit_violations > 0 {
        complaints.push(format!(
            "audit: {} acked updates lost, duplicated or reordered",
            outcome.audit_violations
        ));
    }
    if outcome.stranded > 0 {
        complaints.push(format!(
            "{} device-log entries never drained",
            outcome.stranded
        ));
    }
}

fn same_outcome(what: &str, first: &Outcome, other: &Outcome, complaints: &mut Vec<String>) {
    if first != other {
        complaints.push(format!(
            "{what} diverged from the first repetition: digest {:08x} vs {:08x}",
            digest(first),
            digest(other)
        ));
    }
}

fn digest(outcome: &Outcome) -> u32 {
    pmnet_pmem::crc32(format!("{outcome:?}").as_bytes())
}

/// On-CPU nanoseconds of this process so far, when the kernel says.
fn on_cpu_ns() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Share of `wall` this process spent on a CPU since `since` (0 when
/// `/proc` cannot tell). Below 0.95 marks a preempted run.
fn cpu_share(since: Option<f64>, wall: Duration) -> f64 {
    match (since, on_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) / wall.as_nanos() as f64,
        _ => 0.0,
    }
}

fn warm_calib() -> Calib {
    let mut calib = Calib::new();
    calib.run(Calib::WARM_ITERS);
    calib.take_ns_per_iter();
    calib
}

/// The end-to-end run: every metric of [`END_TO_END`], tracing off.
pub fn run_untraced(workload: Workload, opt: Options) -> Report {
    let spec = workload.spec(opt.shrink);
    let warm_up = workload.spec(opt.shrink * 10);
    let mut calib = warm_calib();
    let mut complaints = Vec::new();
    // Cycle `i` simulates world `i % WORLDS`, so `reps[w]` is world `w`'s
    // first repetition.
    let mut reps: Vec<Timed> = Vec::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let begin = Instant::now();
    // Every world once and one of them twice at least, so the determinism
    // gate always has a pair.
    while reps.len() <= WORLDS || begin.elapsed().as_secs_f64() < opt.seconds {
        let world = reps.len() % WORLDS;
        let seed = world_seed(workload.seed(opt.seed), world);
        // Set-up: inputs and builds, with a warm-up repetition between
        // them that fills host caches and the allocator's free lists.
        let mut pacer = Pacer::start(&mut calib);
        let mut warm = Rig::build(&warm_up, seed);
        warm.run(&mut || pacer.tick());
        drop(warm);
        let rig = Rig::build(&spec, seed);
        let setup_raw = pacer.stop().as_secs_f64();
        let rep = repetition(&mut calib, rig, || {});
        // The set-up shares the repetition's calibration window.
        setups.push(setup_raw * rep.scale());
        raw_setups.push(setup_raw);
        gates(&rep.outcome, &mut complaints);
        if let Some(first) = reps.get(world) {
            same_outcome(
                "a repetition",
                &first.outcome,
                &rep.outcome,
                &mut complaints,
            );
        }
        reps.push(rep);
    }

    let ops = |r: &Timed| r.outcome.completed.max(1) as f64;
    let over_reps = |f: &dyn Fn(&Timed) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut worlds: Vec<Outcome> = reps[..WORLDS].iter().map(|r| r.outcome.clone()).collect();
    let mut over_worlds =
        |f: &dyn Fn(&mut Outcome) -> f64| worlds.iter_mut().map(f).sum::<f64>() / WORLDS as f64;
    let values = [
        over_reps(&|r| ops(r) / r.seconds()),
        over_reps(&|r| r.heap.allocs as f64 / ops(r)),
        over_reps(&|r| r.heap.bytes as f64 / ops(r)),
        over_reps(&|r| r.heap.peak_live as f64 / 1e6),
        median(&setups),
        over_worlds(&|o| o.sim_ops_per_s),
        over_worlds(&|o| o.latency.mean().as_nanos() as f64 / 1e3),
        over_worlds(&|o| quantile_ns(&mut o.latency, 0.50) / 1e3),
        over_worlds(&|o| quantile_ns(&mut o.latency, 0.99) / 1e3),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect();
    let notes = vec![
        (
            "raw_ops_per_s",
            over_reps(&|r| ops(r) / r.raw.as_secs_f64()),
            "ops/s",
        ),
        ("raw_setup_s", median(&raw_setups), "s"),
        ("calib_ns_per_iter", over_reps(&|r| r.calib_ns), "ns"),
    ];
    Report {
        workload,
        correct: complaints.is_empty(),
        attempted: worlds.iter().map(|o| o.attempted).sum(),
        failed: worlds.iter().map(Outcome::failed).sum(),
        metrics,
        notes,
        sim_digests: worlds.iter().map(digest).collect(),
        cycles: reps.len(),
        complaints,
        trace: None,
    }
}

/// The per-layer run: every metric of [`per_layer`].
pub fn run_traced(workload: Workload, opt: Options) -> Report {
    let seed = workload.seed(opt.seed);
    let spec = workload.spec(opt.shrink);
    let mut calib = warm_calib();
    let mut complaints = Vec::new();
    let begin = Instant::now();
    let cpu_begin = on_cpu_ns();

    // Rounds of (detached, span wrapped, telemetry attached, detached)
    // until half the budget is spent; the drives get the rest. The two
    // detached repetitions bracket the traced ones, so each overhead ratio
    // is taken against their mean and their distance says how far to
    // trust it.
    let mut rounds: Vec<Vec<(String, f64)>> = Vec::new();
    let mut plain_walls = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut trace = None;
    while rounds.is_empty() || begin.elapsed().as_secs_f64() < opt.seconds / 2.0 {
        // A small repetition first, for the same reason the untraced run
        // warms up.
        let warm_up = workload.spec(opt.shrink * 10);
        Rig::build(&warm_up, seed).run(&mut || {});

        let mut detached = |calib: &mut Calib, complaints: &mut Vec<String>| {
            let plain = repetition(calib, Rig::build(&spec, seed), || {});
            gates(&plain.outcome, complaints);
            let first = first.get_or_insert_with(|| plain.outcome.clone());
            same_outcome("a repetition", first, &plain.outcome, complaints);
            plain
        };
        let before = detached(&mut calib, &mut complaints);

        let spans = SpanTable::default();
        let wrapped = spec.can_wrap().then(|| {
            let rig = Rig::build_wrapped(&spec, seed, &spans);
            repetition(&mut calib, rig, || {})
        });
        let telemetry = Telemetry::full();
        let mut rig = Rig::build(&spec, seed);
        rig.attach_telemetry(&telemetry);
        // Attribution is deferred to the first read; reading inside the
        // clock charges it to the attached run, where it belongs.
        let attached = repetition(&mut calib, rig, || drop(telemetry.registry()));
        let after = detached(&mut calib, &mut complaints);

        let plain_seconds = (before.seconds() + after.seconds()) / 2.0;
        plain_walls.extend([before.seconds(), after.seconds()]);
        let mut row = Vec::new();
        match &wrapped {
            Some(wrapped) => {
                same_outcome(
                    "the wrapped world",
                    &before.outcome,
                    &wrapped.outcome,
                    &mut complaints,
                );
                span_metrics(&spans, wrapped, plain_seconds, &mut row);
                trace = Some(trace_json(&spans, wrapped));
            }
            // No spans outside the single-switch worlds: they read 0.
            None => row.extend(span_metric_names().into_iter().map(|n| (n, 0.0))),
        }
        same_outcome(
            "the telemetry-attached world",
            &before.outcome,
            &attached.outcome,
            &mut complaints,
        );
        phase_metrics(&telemetry, &mut row);
        row.push((
            "telemetry.overhead_ratio".into(),
            attached.seconds() / plain_seconds,
        ));
        let ops = before.outcome.completed.max(1) as f64;
        let raw = (before.raw + after.raw).as_secs_f64() / 2.0;
        row.push(("host.raw_ops_per_s".into(), ops / raw));
        row.push((
            "host.calib_ns_per_iter".into(),
            (before.calib_ns + after.calib_ns) / 2.0,
        ));
        rounds.push(row);
    }
    let mut first = first.expect("at least one round ran");

    // Per-round host metrics: median over rounds.
    let mut values: Vec<(String, f64)> = Vec::new();
    for (i, (name, _)) in rounds[0].iter().enumerate() {
        let column: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
        values.push((name.clone(), median(&column)));
    }
    counter_metrics(&mut first, &mut values);
    values.push(("host.rep_spread".into(), range_share(&plain_walls)));
    values.push((
        "host.cpu_share".into(),
        cpu_share(cpu_begin, begin.elapsed()),
    ));

    // Isolated drives: median of three, each calibrated by the loop run
    // around it.
    for (name, drive) in DRIVES {
        let mut samples = [0.0; 3];
        for s in &mut samples {
            calib.run(2 * Calib::CHUNK_ITERS);
            let raw_ns = drive(opt.shrink as u64);
            calib.run(2 * Calib::CHUNK_ITERS);
            *s = raw_ns * Calib::REF_NS_PER_ITER / calib.take_ns_per_iter();
        }
        values.push((name.to_string(), median(&samples)));
    }

    // Declaration order. Measured and declared names must be the same
    // set: anything else is a bug in this file or in `manifest.rs`.
    let declared = per_layer();
    assert_eq!(values.len(), declared.len(), "a metric is undeclared");
    let metrics = declared
        .into_iter()
        .map(|m| {
            let measured = values.iter().find(|(n, _)| *n == m.name);
            let v = measured.unwrap_or_else(|| panic!("{} was not measured", m.name));
            (m.name, v.1, m.unit)
        })
        .collect();
    Report {
        workload,
        correct: complaints.is_empty(),
        attempted: first.attempted,
        failed: first.failed(),
        metrics,
        notes: Vec::new(),
        sim_digests: vec![digest(&first)],
        cycles: rounds.len(),
        complaints,
        trace,
    }
}

/// Node-kind spans of one wrapped repetition. Handler spans have no
/// children, so span time is self time; what the traced window holds
/// beyond them is the runtime (pop, dispatch, deferred `PortTx`), which
/// makes the shares sum to one by construction.
fn span_metrics(
    spans: &SpanTable,
    wrapped: &Timed,
    plain_seconds: f64,
    row: &mut Vec<(String, f64)>,
) {
    let ops = wrapped.outcome.completed.max(1) as f64;
    let window_ns = wrapped.raw.as_nanos() as f64;
    let mut node_ns = 0.0;
    let mut node_events = 0.0;
    for kind in NodeKind::ALL {
        let total = spans.total(kind);
        let (events, ns) = (total.events as f64, total.ns as f64);
        node_ns += ns;
        node_events += events;
        let k = kind.name();
        row.push((format!("node.{k}.events_per_op"), events / ops));
        row.push((
            format!("node.{k}.ns_per_event"),
            ns * wrapped.scale() / events.max(1.0),
        ));
        row.push((format!("node.{k}.host_share"), ns / window_ns));
    }
    let runtime_ns = window_ns - node_ns;
    // Per node event: the runtime's own `PortTx` events are not visible
    // from outside the `World`.
    row.push((
        "net.runtime.ns_per_event".into(),
        runtime_ns * wrapped.scale() / node_events.max(1.0),
    ));
    row.push(("net.runtime.host_share".into(), runtime_ns / window_ns));
    row.push((
        "trace.overhead_ratio".into(),
        wrapped.seconds() / plain_seconds,
    ));
}

fn trace_json(spans: &SpanTable, wrapped: &Timed) -> Json {
    let mut cells = Vec::new();
    for kind in NodeKind::ALL {
        for (slot, msg) in MSG_KINDS.iter().enumerate() {
            let cell = spans.cell(kind, slot);
            if cell.events > 0 {
                cells.push(obj([
                    ("node", kind.name().into()),
                    ("msg", (*msg).into()),
                    ("events", cell.events.into()),
                    ("host_ns", cell.ns.into()),
                ]));
            }
        }
    }
    obj([
        ("traced_window_ns", (wrapped.raw.as_nanos() as u64).into()),
        ("calibration_scale", wrapped.scale().into()),
        ("completed_ops", wrapped.outcome.completed.into()),
        ("spans", Json::Arr(cells)),
    ])
}

fn phase_metrics(telemetry: &Telemetry, row: &mut Vec<(String, f64)>) {
    let registry = telemetry.registry();
    for phase in Phase::ALL {
        let (mean, p99) = match registry.histogram(phase.metric_name()) {
            Some(h) => {
                let mut h = h.clone();
                (h.mean().as_nanos() as f64, quantile_ns(&mut h, 0.99))
            }
            None => (0.0, 0.0),
        };
        row.push((format!("phase.{}.mean_us", phase.name()), mean / 1e3));
        row.push((format!("phase.{}.p99_us", phase.name()), p99 / 1e3));
    }
}

/// Exact per-layer readings from the outcome's counters.
fn counter_metrics(o: &mut Outcome, out: &mut Vec<(String, f64)>) {
    let ops = o.completed.max(1) as f64;
    let kop = ops / 1e3;
    let c = |name: &str| o.counters.get(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us = |h: &mut pmnet_sim::stats::LatencyHistogram, q: f64| {
        if h.is_empty() {
            0.0
        } else {
            quantile_ns(h, q) / 1e3
        }
    };
    let tails = [
        ("core.client.p999_us", us(&mut o.latency, 0.999)),
        ("core.client.update_p50_us", us(&mut o.update_latency, 0.50)),
        ("core.client.update_p99_us", us(&mut o.update_latency, 0.99)),
        ("core.client.read_p50_us", us(&mut o.read_latency, 0.50)),
        ("core.client.read_p99_us", us(&mut o.read_latency, 0.99)),
    ];
    let retries = c("client.retransmits") + o.traffic.retransmits as f64;
    let mut add = |name: &str, v: f64| out.push((name.to_string(), v));
    for (name, v) in tails {
        add(name, v);
    }
    add(
        "net.port.tx_packets_per_op",
        o.ports.tx_packets as f64 / ops,
    );
    add("net.port.tx_bytes_per_op", o.ports.tx_bytes as f64 / ops);
    add("net.port.drops_per_kop", o.ports.drops as f64 / kop);
    add("core.client.retries_per_kop", retries / kop);
    add("core.device.forwarded_per_op", c("device.forwarded") / ops);
    add("core.device.acks_per_op", c("device.acks_sent") / ops);
    add(
        "core.device.congestion_flagged_per_kop",
        c("device.congestion_flagged") / kop,
    );
    add(
        "core.device.entry_retries_per_kop",
        c("device.entry_retries") / kop,
    );
    add(
        "core.device.cache_hit_ratio",
        ratio(o.cache_hits as f64, (o.cache_hits + o.cache_misses) as f64),
    );
    add(
        "core.device.batch_fill",
        ratio(c("device.batched_entries"), c("device.batches_flushed")),
    );
    add(
        "core.device.chain_acks_per_op",
        c("device.chain_acks_sent") / ops,
    );
    add("core.logstore.logged_per_op", c("log.logged") / ops);
    add(
        "core.logstore.bypass_per_kop",
        (c("log.bypass_queue") + c("log.bypass_collision") + c("log.bypass_full")) / kop,
    );
    add(
        "core.logstore.spilled_per_kop",
        (c("log.spilled_quota") + c("log.spilled_watermark")) / kop,
    );
    add("core.logstore.peak_entries", o.log_peak_entries as f64);
    add("core.logstore.peak_bytes", o.log_peak_bytes as f64);
    add(
        "core.server.duplicates_per_kop",
        c("server.duplicates_dropped") / kop,
    );
    add("core.server.reordered_per_kop", c("server.reordered") / kop);
    add(
        "core.server.retrans_sent_per_kop",
        c("server.retrans_sent") / kop,
    );
    add(
        "core.server.apply_fences_per_kop",
        c("server.apply_key_fences") / kop,
    );
    add(
        "core.server.apply_runs_per_op",
        c("server.apply_runs") / ops,
    );
    add(
        "core.server.apply_lag_ms",
        o.apply_lag.as_nanos() as f64 / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_complains_about_what_it_guards() {
        let mut rig = Rig::build(&Workload::KvMixed.spec(1000), 1);
        rig.run(&mut || {});
        let clean = rig.outcome();
        let complaints_about = |outcome: &Outcome| {
            let mut complaints = Vec::new();
            gates(outcome, &mut complaints);
            complaints
        };
        assert_eq!(complaints_about(&clean), Vec::<String>::new());
        let spoilt: [fn(&mut Outcome); 4] = [
            |o| o.completed -= 1,
            |o| o.audit_violations = 1,
            |o| o.ragged_acks = 1,
            |o| o.stranded = 1,
        ];
        for spoil in spoilt {
            let mut outcome = clean.clone();
            spoil(&mut outcome);
            assert_eq!(complaints_about(&outcome).len(), 1);
        }
    }
}
