//! The paper's figures as data.
//!
//! [`table`] holds every reproduced cell of the evaluation (Section VI,
//! and an outage timeline beyond it) as one [`Row`]: its runs (design
//! point × load × configuration, clients, a full and a reduced request
//! count, a seed), its metric, the paper's value where there is one, and
//! the value pinned at reduced scale. A row id is `figure/row@column`.
//! Two drivers read the table: the tier-1 `tests/figures_ledger.rs`
//! [`measure`]s every row at [`Scale::Reduced`] and holds each within 5 %
//! of its pin, and `examples/figures.rs` measures every row at
//! [`Scale::Full`] and prints the EXPERIMENTS.md tables with [`markdown`].
//! `tests/paper_shapes.rs` asserts the paper's qualitative shapes on the
//! same rows at reduced scale.
//!
//! Figure 2's rows run one client of jitter-free updates against the ideal
//! handler and carry an algebra column: the nominal critical path, summed
//! from the configuration alone. The simulator should equal it to the
//! nanosecond, so the ledger pins the gap exactly.

use bytes::Bytes;
use pmnet_core::api::{update, ScriptSource};
use pmnet_core::client::{ClientLib, RequestKind};
use pmnet_core::kvproto::KvFrame;
use pmnet_core::protocol::HEADER_LEN;
use pmnet_core::server::{IdealHandler, RequestHandler, ServerLib};
use pmnet_core::system::{DesignPoint, SystemBuilder, UpdateExperiment};
use pmnet_core::{PmnetDevice, SystemConfig};
use pmnet_net::{Addr, Switch, ETH_IP_UDP_OVERHEAD};
use pmnet_sim::stats::{LatencyHistogram, TimeSeries};
use pmnet_sim::{Dur, SimRng, Time};
use pmnet_workloads::{KvHandler, WorkloadSpec, YcsbSource};

/// Which of a run's two sizes to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// What EXPERIMENTS.md reports.
    Full,
    /// What the tier-1 ledger pins.
    Reduced,
}

/// What the clients send, and to which handler.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Load {
    /// The microbenchmark: updates of this many bytes to the ideal handler.
    Micro(usize),
    /// Updates of this many bytes back to back for the count in ms.
    Stress(usize),
    /// A workload at an update ratio against its PM-backed handler; the
    /// baseline keeps the workload's native transport.
    Workload(WorkloadSpec, f64),
    /// Every cacheable KV workload at an update ratio, latencies merged.
    Kv(f64),
    /// One client SETs the count's keys; the server is dark from 1 to 6 ms.
    Recovery,
    /// YCSB updates for the count in ms; the server is dark from 5 to 10 ms.
    Outage,
    /// A workload's request stream alone, for its bypass (lock) share.
    Locks(WorkloadSpec),
}

/// One simulation (or, for [`Load::Locks`], one request stream).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    design: DesignPoint,
    load: Load,
    config: SystemConfig,
    clients: usize,
    /// Requests per client at full and at reduced scale (ms for a stress
    /// or outage run, keys for a recovery run); a tenth warm up.
    count: [usize; 2],
    seed: u64,
}

impl Run {
    fn new(design: DesignPoint, load: Load, clients: usize, count: [usize; 2], seed: u64) -> Run {
        let config = SystemConfig::default();
        Run {
            design,
            load,
            config,
            clients,
            count,
            seed,
        }
    }

    /// The same run with its configuration changed by `change`.
    fn with(mut self, change: impl FnOnce(&mut SystemConfig)) -> Run {
        change(&mut self.config);
        self
    }
}

/// A statistic of one run; latencies in µs, rates in thousands per second.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stat {
    Mean,
    Pct(f64),
    /// Completions (before the outage, for an outage run).
    Kops,
    /// Completions while the server is dark.
    OutageKops,
    /// Request traffic.
    Gbps,
    /// Recovery resends the device sent.
    Resends,
    /// The recovery barrier's time per resend.
    ResendUs,
    /// From the server's recovery poll to the barrier's close.
    DrainUs,
    /// From the server's restore to its poll (application recovery).
    AppUs,
    /// Keys that read back their last value, percent.
    Intact,
    /// Bypass requests, percent.
    Bypass,
}

/// What a row reports.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Of(Stat, Run),
    /// The first run's statistic over the second's (a latency speedup
    /// puts the baseline first).
    Ratio(Stat, Run, Run),
    Minus(Stat, Run, Run),
    /// The geometric mean of ratios, the paper's "on average".
    Geomean(Stat, Vec<(Run, Run)>),
}

/// One reproduced cell of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `figure/row@column`.
    pub id: String,
    metric: Metric,
    paper: Option<f64>,
    /// The value at [`Scale::Reduced`], held to ±5 %.
    pin: f64,
    /// An algebra row's gap in ns (measured − nominal), held exactly.
    gap: Option<i64>,
}

impl Row {
    /// Whether `value` is within 5 % of the pin and an algebra row's gap
    /// is the pinned one.
    pub fn holds(&self, value: f64) -> bool {
        let gap = self.algebra(value).map(|(_, gap)| gap);
        (value - self.pin).abs() <= 0.05 * self.pin.abs() && gap == self.gap
    }

    /// The id with the measured, pinned and paper values (and an algebra
    /// row's nominal path and gap) side by side.
    pub fn line(&self, value: f64) -> String {
        let paper = self.paper.map_or("-".into(), |p| self.fmt(p, 2));
        let (value_text, pin) = (self.fmt(value, 2), self.fmt(self.pin, 2));
        let mut line = format!(
            "{}: measured {value_text}, pinned {pin}, paper {paper}",
            self.id
        );
        if let (Some((nominal, gap)), Some(pinned)) = (self.algebra(value), self.gap) {
            line += &format!(", algebra {nominal}, gap {gap:+} ns (pinned {pinned:+} ns)");
        }
        line
    }

    /// An algebra row's nominal critical path, and `value`'s gap from it
    /// in ns.
    fn algebra(&self, value: f64) -> Option<(Dur, i64)> {
        let (Metric::Of(Stat::Mean, run), Some(_)) = (&self.metric, self.gap) else {
            return None;
        };
        let nominal = algebra(run);
        Some((
            nominal,
            (value * 1e3).round() as i64 - nominal.as_nanos() as i64,
        ))
    }

    /// `v` in the row's unit, with `extra` more decimals than a table shows.
    fn fmt(&self, v: f64, extra: usize) -> String {
        let (unit, decimals) = match self.metric {
            Metric::Ratio(..) | Metric::Geomean(..) => ("×", 2),
            Metric::Of(s, _) | Metric::Minus(s, ..) => match s {
                Stat::Kops | Stat::OutageKops => (" kops/s", 1),
                Stat::Gbps => (" Gbps", 2),
                Stat::Resends => ("", 0),
                Stat::Intact | Stat::Bypass => (" %", 1),
                _ => (" µs", 2),
            },
        };
        format!("{v:.*}{unit}", decimals + extra)
    }
}

/// One run's latencies and the statistics it reports beside them.
type Outcome = (LatencyHistogram, Vec<(Stat, f64)>);

/// Measures every row at `scale`, making each distinct run once.
pub fn measure(rows: Vec<Row>, scale: Scale) -> Vec<(Row, f64)> {
    let mut done: Vec<(Run, Outcome)> = Vec::new();
    let mut stat = |run: &Run, stat: Stat| {
        let i = done.iter().position(|(r, _)| r == run).unwrap_or_else(|| {
            done.push((*run, execute(run, scale)));
            done.len() - 1
        });
        let (latency, values) = &mut done[i].1;
        match (stat, values.iter().find(|(s, _)| *s == stat)) {
            (_, Some(&(_, v))) => v,
            (Stat::Mean, None) => latency.mean().as_micros_f64(),
            (Stat::Pct(q), None) => latency.percentile(q).as_micros_f64(),
            _ => panic!("{run:?} does not report {stat:?}"),
        }
    };
    let mut value = |metric: &Metric| match metric {
        Metric::Of(s, run) => stat(run, *s),
        Metric::Ratio(s, a, b) => stat(a, *s) / stat(b, *s),
        Metric::Minus(s, a, b) => stat(a, *s) - stat(b, *s),
        Metric::Geomean(s, pairs) => geomean(pairs.iter().map(|(a, b)| stat(a, *s) / stat(b, *s))),
    };
    let measured = |row: Row| (value(&row.metric), row);
    rows.into_iter()
        .map(measured)
        .map(|(v, row)| (row, v))
        .collect()
}

/// The geometric mean of `ratios`, the paper's "on average".
pub(crate) fn geomean(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let (mut logs, mut n) = (0.0, 0);
    for ratio in ratios {
        (logs, n) = (logs + ratio.ln(), n + 1);
    }
    (logs / n as f64).exp()
}

/// The microbenchmark (Section VI-B1): `count` updates per client to the
/// ideal handler, which acknowledges on reception, so network and stack
/// dominate; a tenth warm up.
pub(crate) fn micro(design: DesignPoint, config: SystemConfig, count: usize) -> UpdateExperiment {
    UpdateExperiment::new(design, config)
        .requests_per_client(count)
        .warmup(count / 10)
        .deadline(Dur::secs(60))
}

/// Builds, runs and reads back one run.
fn execute(run: &Run, scale: Scale) -> Outcome {
    let (count, config, seed) = (run.count[scale as usize], run.config, run.seed);
    let latency = LatencyHistogram::new();
    let metrics = match run.load {
        Load::Micro(payload) => micro(run.design, config, count)
            .clients(run.clients)
            .payload_bytes(payload)
            .run(seed),
        Load::Stress(payload) => {
            let experiment = UpdateExperiment::new(run.design, config).clients(run.clients);
            let window = Dur::millis(count as u64);
            let (gbps, mean, _) = experiment.payload_bytes(payload).stress_point(window, seed);
            return (
                latency,
                vec![(Stat::Gbps, gbps), (Stat::Mean, mean.as_micros_f64())],
            );
        }
        Load::Workload(spec, ratio) => {
            let tcp = run.design == DesignPoint::ClientServer && spec.baseline_uses_tcp();
            let mut b = SystemBuilder::new(run.design, config)
                .tcp(tcp)
                .warmup(count / 10);
            for i in 0..run.clients as u32 {
                b = b.client(spec.make_source(count, ratio, i));
            }
            let mut sys = b
                .handler_factory(move || spec.make_handler(seed))
                .build(seed);
            sys.run_clients(Dur::secs(120));
            sys.metrics()
        }
        Load::Kv(ratio) => {
            let mut latency = latency;
            for spec in WorkloadSpec::cacheable() {
                let one = Run {
                    load: Load::Workload(spec, ratio),
                    ..*run
                };
                latency.merge(&execute(&one, scale).0);
            }
            return (latency, Vec::new());
        }
        Load::Recovery => return (latency, recovery(run, count)),
        Load::Outage => return (latency, outage(run, count)),
        Load::Locks(spec) => {
            let (mut source, mut rng) = (spec.make_source(count, 1.0, 1), SimRng::seed(seed));
            let mut bypass = 0;
            while let Some(r) = source.next_request(&mut rng) {
                bypass += usize::from(r.kind == RequestKind::Bypass);
            }
            return (
                latency,
                vec![(Stat::Bypass, 100.0 * bypass as f64 / count as f64)],
            );
        }
    };
    (
        metrics.latency,
        vec![(Stat::Kops, metrics.ops_per_sec / 1e3)],
    )
}

/// Section VI-B6: the server loses power with most of `keys` SETs still
/// in the device log, and recovers from it.
fn recovery(run: &Run, keys: usize) -> Vec<(Stat, f64)> {
    let key = |i: usize| format!("key{i}").into_bytes();
    let value = |i: usize| (i as u32).to_le_bytes().to_vec();
    let set = |i| KvFrame::Set {
        key: Bytes::from(key(i)),
        value: Bytes::from(value(i)),
    };
    let sets = ScriptSource::new((0..keys).map(|i| update(set(i).encode())));
    let mut sys = SystemBuilder::new(run.design, run.config)
        .client(Box::new(sets))
        .handler_factory(|| Box::new(KvHandler::new("btree", 1)))
        .build(run.seed);
    let (server, device) = (sys.server, sys.devices[0]);
    let crash_at = Time::ZERO + Dur::millis(1);
    sys.world
        .schedule_crash(server, crash_at, Some(Dur::millis(5)));
    sys.run_clients(Dur::secs(120));
    sys.world.run_for(Dur::millis(500));
    // The drain runs from the poll to the closed barrier, over the log's
    // first recovery resends.
    let resends = sys
        .world
        .node::<PmnetDevice>(device)
        .counters()
        .recovery_resends;
    let server = sys.world.node_mut::<ServerLib>(server);
    let rec = server.recovery().expect("server recovered");
    assert!(
        rec.barrier_done_at < Time::MAX,
        "the recovery barrier closed"
    );
    let drain = rec.barrier_done_at.saturating_since(rec.polled_at);
    let app = rec.polled_at.saturating_since(rec.restored_at);
    let kv = server
        .handler_mut()
        .as_any_mut()
        .downcast_mut::<KvHandler>();
    let kv = kv.expect("kv handler");
    let intact = (0..keys)
        .filter(|&i| kv.peek(&key(i)) == Some(value(i)))
        .count();
    vec![
        (Stat::Resends, resends as f64),
        (Stat::ResendUs, (drain / resends.max(1)).as_micros_f64()),
        (Stat::DrainUs, drain.as_micros_f64()),
        (Stat::AppUs, app.as_micros_f64()),
        (Stat::Intact, 100.0 * intact as f64 / keys as f64),
    ]
}

/// Completions per millisecond through a server outage from 5 to 10 ms,
/// observed for `ms`: the mean rate before the outage and during it.
fn outage(run: &Run, ms: usize) -> Vec<(Stat, f64)> {
    let mut b = SystemBuilder::new(run.design, run.config);
    for _ in 0..run.clients {
        b = b.client(Box::new(YcsbSource::new(100_000, 10_000, 1.0, 80)));
    }
    let b = b.handler_factory(|| Box::new(KvHandler::new("hashmap", 3)));
    let (mut sys, at) = (b.build(run.seed), |ms| Time::ZERO + Dur::millis(ms as u64));
    sys.world
        .schedule_crash(sys.server, at(5), Some(Dur::millis(5)));
    for &c in &sys.clients {
        sys.world.start_node(c);
    }
    sys.world.run_until(at(ms));
    let mut series = TimeSeries::new(Dur::millis(1));
    for &c in &sys.clients {
        for r in sys.world.node::<ClientLib>(c).records() {
            series.record(r.at, 1);
        }
    }
    let rates = series.rates_per_sec();
    let kops = |ms: std::ops::Range<usize>| rates[ms].iter().sum::<f64>() / 5e3;
    vec![(Stat::Kops, kops(0..5)), (Stat::OutageKops, kops(5..10))]
}

/// The nominal critical path of one client's jitter-free microbenchmark
/// update through PMNet-Switch or Client-Server: the stacks'
/// `StackProfile::nominal`, link serialisation plus propagation, each
/// switch's forwarding delay, the device pipeline and PM write, and the
/// ideal handler's cost.
fn algebra(run: &Run) -> Dur {
    let Load::Micro(payload) = run.load else {
        panic!("the algebra covers the microbenchmark only, not {run:?}");
    };
    let SystemConfig {
        client,
        server,
        device: d,
        link,
        ..
    } = run.config;
    // The request carries the header, the opaque tag and the payload;
    // every acknowledgement is a bare header.
    let body = (1 + payload) as u32;
    let (request, ack) = (HEADER_LEN as u32 + body, HEADER_LEN as u32);
    let hop = |len: u32| link.serialization(len + ETH_IP_UDP_OVERHEAD) + link.propagation;
    let switch = Switch::DEFAULT_PIPELINE_DELAY;
    let client = client.user_tx.nominal(request)
        + client.kernel_tx.nominal(request)
        + client.kernel_rx.nominal(ack)
        + client.user_rx.nominal(ack)
        + client.app_overhead;
    match run.design {
        DesignPoint::PmnetSwitch => {
            let pipeline = |len: u32| d.pipeline_delay + d.pipeline_per_byte * u64::from(len);
            // A log entry is the request and 16 B of table metadata,
            // written at the PM's bandwidth after its latency.
            let entry = u64::from(request) + 16;
            let write = Dur::for_bytes_at(entry, d.pm.bandwidth_bytes_per_sec * 8);
            let device = pipeline(body) + d.pm.write_latency + write + pipeline(ack);
            client + (hop(request) + hop(ack) + switch) * 2 + device
        }
        DesignPoint::ClientServer => {
            let mut rng = SimRng::seed(0);
            let handler = IdealHandler::new().handle_update(Addr(0), 0, 0, &Bytes::new(), &mut rng);
            let server = server.kernel_rx.nominal(request)
                + server.user_rx.nominal(request)
                + handler
                + server.user_tx.nominal(ack)
                + server.kernel_tx.nominal(ack);
            client + (hop(request) + hop(ack)) * 3 + switch * 4 + server
        }
        design => panic!("the algebra covers PMNet-Switch and Client-Server, not {design:?}"),
    }
}

/// Every figure as markdown: one table per figure, in table order, rows
/// down and columns across, each cell the measured value with the
/// paper's beside it; an algebra row adds its `algebra` and `gap` cells.
pub fn markdown(measured: &[(Row, f64)]) -> String {
    fn split(id: &str) -> (&str, &str) {
        id.split_once('/').expect("id is figure/row@column")
    }
    let mut md = String::new();
    for figure in measured.chunk_by(|a, b| split(&a.0.id).0 == split(&b.0.id).0) {
        let mut cells: Vec<(&str, &str, String)> = Vec::new();
        for (r, value) in figure {
            let (row, column) = split(&r.id)
                .1
                .split_once('@')
                .expect("id is figure/row@column");
            let paper = r.paper.map(|p| format!(" (paper {})", r.fmt(p, 0)));
            cells.push((row, column, r.fmt(*value, 0) + &paper.unwrap_or_default()));
            if let Some((nominal, gap)) = r.algebra(*value) {
                cells.push((row, "algebra", format!("{:.2} µs", nominal.as_micros_f64())));
                cells.push((row, "gap", format!("{gap:+} ns")));
            }
        }
        let (mut rows, mut columns) = (Vec::new(), Vec::new());
        for &(row, column, _) in &cells {
            for (seen, new) in [(&mut rows, row), (&mut columns, column)] {
                if !seen.contains(&new) {
                    seen.push(new);
                }
            }
        }
        md += &format!(
            "| {} | {} |\n",
            split(&figure[0].0.id).0,
            columns.join(" | ")
        );
        md += &format!("|---|{}\n", "---|".repeat(columns.len()));
        for row in rows {
            let cell = |&column: &&str| {
                let found = cells.iter().find(|c| (c.0, c.1) == (row, column));
                found.map_or("", |c| c.2.as_str())
            };
            let line: Vec<&str> = columns.iter().map(cell).collect();
            md += &format!("| {row} | {} |\n", line.join(" | "));
        }
        md += "\n";
    }
    md
}

fn row(id: impl Into<String>, metric: Metric, paper: impl Into<Option<f64>>, pin: f64) -> Row {
    let (id, paper, gap) = (id.into(), paper.into(), None);
    Row {
        id,
        metric,
        paper,
        pin,
        gap,
    }
}

/// No stack jitter and no hiccups: every request of one client alike.
fn quiet(c: &mut SystemConfig) {
    for h in [&mut c.client, &mut c.server] {
        for s in [
            &mut h.kernel_rx,
            &mut h.user_rx,
            &mut h.user_tx,
            &mut h.kernel_tx,
        ] {
            (s.jitter_frac, s.hiccup_prob) = (0.0, 0.0);
        }
    }
}

/// Every reproduced cell of the evaluation, figure by figure.
#[rustfmt::skip] // a table: one row per line
pub fn table() -> Vec<Row> {
    use DesignPoint::*;
    use Metric::{Geomean, Minus, Of, Ratio};
    use Stat::*;
    let micro = |design, payload| Run::new(design, Load::Micro(payload), 1, [2000, 300], 42);
    let (cs, pm) = (micro(ClientServer, 100), micro(PmnetSwitch, 100));
    let cached = |run: Run| run.with(|c| c.device = c.device.with_cache(65_536));

    let quiet = |design| Run { count: [2000, 100], ..micro(design, 100).with(quiet) };
    let (quiet_cs, quiet_pm) = (quiet(ClientServer), quiet(PmnetSwitch));
    let mut rows = vec![
        Row { gap: Some(-24), ..row("Fig. 2/Client-Server@RTT", Of(Mean, quiet_cs), None, 58.73) },
        Row { gap: Some(-24), ..row("Fig. 2/PMNet-Switch@RTT", Of(Mean, quiet_pm), None, 22.47) },
        // The paper puts ~70 % of the RTT on the server side.
        row("Fig. 2/PMNet-Switch@RTT share", Ratio(Mean, quiet_pm, quiet_cs), 0.30, 0.3827),
    ];

    for (payload, paper_switch, paper_nic, pins) in [
        (50, Some(2.83), Some(2.90), [61.32, 22.14, 24.07, 2.769, 2.548, 1.926]),
        (100, None, None, [61.83, 22.48, 24.54, 2.750, 2.519, 2.057]),
        (1000, Some(2.19), None, [64.26, 31.12, 33.58, 2.065, 1.914, 2.459]),
    ] {
        let [base, switch, nic] = [ClientServer, PmnetSwitch, PmnetNic].map(|d| micro(d, payload));
        let id = |column| format!("Fig. 15/{payload} B@{column}");
        rows.extend([
            row(id("Client-Server"), Of(Mean, base), None, pins[0]),
            row(id("PMNet-Switch"), Of(Mean, switch), None, pins[1]),
            row(id("PMNet-NIC"), Of(Mean, nic), None, pins[2]),
            row(id("switch speedup"), Ratio(Mean, base, switch), paper_switch, pins[3]),
            row(id("NIC speedup"), Ratio(Mean, base, nic), paper_nic, pins[4]),
            row(id("NIC − switch"), Minus(Mean, nic, switch), None, pins[5]),
        ]);
    }

    let stress = |design, clients| Run::new(design, Load::Stress(1000), clients, [40, 3], 5);
    for (clients, pins) in [
        (16, [1.178, 64.52, 3.466, 30.91]),
        (48, [3.423, 65.05, 7.179, 40.94]),
        (96, [4.333, 81.47, 4.450, 81.88]),
    ] {
        let (base, pmnet) = (stress(ClientServer, clients), stress(PmnetSwitch, clients));
        let id = |column| format!("Fig. 16/{clients} clients@{column}");
        rows.extend([
            row(id("Client-Server"), Of(Gbps, base), None, pins[0]),
            row(id("Client-Server mean"), Of(Mean, base), None, pins[1]),
            row(id("PMNet"), Of(Gbps, pmnet), None, pins[2]),
            row(id("PMNet mean"), Of(Mean, pmnet), None, pins[3]),
        ]);
    }

    for (id, design, paper, pin) in [
        ("client-side log@no replication", ClientSideLog { replicas: 1 }, 10.40, 9.200),
        ("client-side log@3-way", ClientSideLog { replicas: 3 }, 41.61, 40.06),
        ("PMNet@no replication", PmnetSwitch, 21.50, 22.48),
        ("PMNet@3-way", PmnetReplicated { devices: 3 }, 22.80, 28.47),
        ("server-side log@no replication", ServerSideLog { replicas: 1 }, 47.97, 47.07),
        ("server-side log@3-way", ServerSideLog { replicas: 3 }, 94.02, 104.6),
    ] {
        rows.push(row(format!("Fig. 18/{id}"), Of(Mean, micro(design, 100)), paper, pin));
    }

    let speedup = |spec, ratio| {
        let run = |design| Run::new(design, Load::Workload(spec, ratio), 4, [400, 60], 7);
        (run(PmnetSwitch), run(ClientServer))
    };
    for (spec, pins) in WorkloadSpec::all().into_iter().zip([
        [3.241, 2.033, 1.300, 1.082],
        [3.419, 1.733, 1.261, 1.137],
        [3.429, 1.741, 1.306, 1.119],
        [3.132, 1.955, 1.445, 1.151],
        [3.237, 1.689, 1.266, 1.172],
        [3.994, 1.746, 1.423, 1.226],
        [4.012, 1.809, 1.262, 1.145],
        [3.021, 2.427, 2.532, 2.177],
    ]) {
        for (ratio, pin) in [1.0, 0.75, 0.5, 0.25].into_iter().zip(pins) {
            let (pmnet, base) = speedup(spec, ratio);
            let id = format!("Fig. 19/{}@{:.0}%", spec.name(), ratio * 100.0);
            rows.push(row(id, Ratio(Kops, pmnet, base), None, pin));
        }
    }
    let average = Geomean(Kops, WorkloadSpec::all().map(|spec| speedup(spec, 1.0)).to_vec());
    rows.push(row("Fig. 19/average@100%", average, 4.31, 3.419));

    for (ratio, papers, pins) in [
        (1.0, [Some(3.23), Some(3.36)], [6.174, 3.462, 22.40, 22.66, 22.66]),
        (0.5, [None, None], [1.0, 1.659, 22.91, 65.53, 23.04]),
    ] {
        let kv = |design| Run::new(design, Load::Kv(ratio), 4, [300, 60], 9);
        let (base, pmnet, cached) = (kv(ClientServer), kv(PmnetSwitch), cached(kv(PmnetSwitch)));
        let id = |column| format!("Fig. 20/{:.0}% updates@{column}", ratio * 100.0);
        rows.extend([
            row(id("PMNet p99 gain"), Ratio(Pct(0.99), base, pmnet), papers[0], pins[0]),
            row(id("cached mean gain"), Ratio(Mean, base, cached), papers[1], pins[1]),
            row(id("PMNet p40"), Of(Pct(0.4), pmnet), None, pins[2]),
            row(id("PMNet p60"), Of(Pct(0.6), pmnet), None, pins[3]),
            row(id("cached p60"), Of(Pct(0.6), cached), None, pins[4]),
        ]);
    }

    let pm3 = micro(PmnetReplicated { devices: 3 }, 100);
    let server3 = micro(ClientServerReplicated { replicas: 3 }, 100);
    for (id, metric, paper, pin) in [
        ("Client-Server@latency", Of(Mean, cs), None, 61.83),
        ("PMNet@latency", Of(Mean, pm), None, 22.48),
        ("PMNet@normalized", Ratio(Mean, pm, cs), None, 0.3637),
        ("PMNet 3-way@latency", Of(Mean, pm3), None, 28.47),
        ("PMNet 3-way@normalized", Ratio(Mean, pm3, cs), None, 0.4604),
        ("PMNet 3-way@over PMNet", Ratio(Mean, pm3, pm), Some(1.16), 1.266),
        ("server-side 3-way@latency", Of(Mean, server3), None, 148.8),
        ("server-side 3-way@normalized", Ratio(Mean, server3, cs), None, 2.407),
        ("server-side 3-way@over PMNet 3-way", Ratio(Mean, server3, pm3), Some(5.88), 5.228),
    ] {
        rows.push(row(format!("Fig. 21/{id}"), metric, paper, pin));
    }

    let eight = |design| Run { clients: 8, count: [1000, 150], ..micro(design, 100) };
    let bypass = |run: Run| run.with(|c| *c = c.with_bypass_stacks());
    for (label, stacks, paper, pins) in [
        ("kernel", (|run| run) as fn(Run) -> Run, 3.08, [127.8, 346.4, 2.710]),
        ("libVMA", bypass, 3.56, [314.2, 927.9, 2.953]),
    ] {
        let (base, pmnet) = (stacks(eight(ClientServer)), stacks(eight(PmnetSwitch)));
        let id = |column| format!("Fig. 22/{label}@{column}");
        rows.extend([
            row(id("Client-Server"), Of(Kops, base), None, pins[0]),
            row(id("PMNet"), Of(Kops, pmnet), None, pins[1]),
            row(id("speedup"), Ratio(Kops, pmnet, base), paper, pins[2]),
        ]);
    }

    // Below 100 resends the barrier's fixed round trip outweighs the
    // resends, so the 100-key row reports no time per resend.
    for (keys, pins, per_resend) in [
        (100, [4.0, 100.2, 1172.0, 100.0], None),
        (400, [234.0, 361.8, 1172.0, 100.0], Some(1.546)),
        (1000, [234.0, 361.8, 1172.0, 100.0], Some(1.546)),
    ] {
        let run = Run::new(PmnetSwitch, Load::Recovery, 1, [keys, keys], 21);
        let id = |column| format!("§VI-B6/{keys} keys@{column}");
        rows.extend([
            row(id("resends"), Of(Resends, run), None, pins[0]),
            row(id("drain"), Of(DrainUs, run), None, pins[1]),
            row(id("app recovery"), Of(AppUs, run), None, pins[2]),
            row(id("intact"), Of(Intact, run), 100.0, pins[3]),
        ]);
        rows.extend(per_resend.map(|pin| row(id("per resend"), Of(ResendUs, run), 67.0, pin)));
    }

    for (spec, paper, pin) in [
        (WorkloadSpec::Tpcc, 13.7, 13.94),
        (WorkloadSpec::PmdkBtree, 0.0, 0.0),
        (WorkloadSpec::Twitter, 0.0, 0.0),
    ] {
        let run = Run::new(PmnetSwitch, Load::Locks(spec), 1, [100_000, 20_000], 3);
        rows.push(row(format!("§III-C/{}@bypass share", spec.name()), Of(Bypass, run), paper, pin));
    }

    for (bytes, pins) in [(1024, [1.952, 71.15]), (4096, [6.863, 31.17])] {
        let run = Run::new(PmnetSwitch, Load::Stress(1000), 32, [20, 3], 31);
        let run = run.with(|c| c.device = c.device.with_log_queue_bytes(bytes));
        let id = |column| format!("§VII/{bytes} B log queue@{column}");
        rows.extend([
            row(id("Gbps"), Of(Gbps, run), None, pins[0]),
            row(id("PMNet mean"), Of(Mean, run), None, pins[1]),
        ]);
    }
    for (ns, pins) in [(1000, [23.30, 2.654]), (5000, [27.27, 2.267]), (20_000, [43.05, 1.436])] {
        let run = pm.with(|c| c.device.pm = c.device.pm.with_write_latency(Dur::nanos(ns)));
        let id = |column| format!("§VII/{ns} ns PM write@{column}");
        rows.extend([
            row(id("PMNet mean"), Of(Mean, run), None, pins[0]),
            row(id("speedup"), Ratio(Mean, cs, run), None, pins[1]),
        ]);
    }
    for (entries, pin) in [(4, 44.14), (64, 22.82), (65_536, 22.82)] {
        let run = Run { count: [500, 100], ..eight(PmnetSwitch) };
        let run = run.with(|c| c.device = c.device.with_log_capacity(entries, 1 << 30));
        rows.push(row(format!("§VII/{entries}-entry log, 8 clients@PMNet mean"), Of(Mean, run), None, pin));
    }

    for (label, design, pins) in [("PMNet", PmnetSwitch, [351.2, 352.4]), ("Client-Server", ClientServer, [104.4, 0.8])] {
        let run = Run::new(design, Load::Outage, 8, [20, 12], 77);
        rows.extend([
            row(format!("Outage/{label}@before"), Of(Kops, run), None, pins[0]),
            row(format!("Outage/{label}@during"), Of(OutageKops, run), None, pins[1]),
        ]);
    }
    rows
}
