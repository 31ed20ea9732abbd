//! The golden corpus of the four text artifacts: one literal line for each
//! of the 36 line kinds (11 faults, 8 design points, 5 history events, 12
//! flight bodies) plus the header and state lines, as the renderers wrote
//! them before they moved onto `pmnet_sim::record` (PR 19). Rendering a
//! value must give its literal byte for byte and parsing the literal must
//! give the value back, so artifacts in old bug reports keep replaying.
//!
//! Each `*_after` function walks its enum through a wildcard-free `match`
//! ("after this variant comes that value, whose line is ..."): a new
//! variant does not compile until it is on the walk with a corpus line.

use std::collections::BTreeMap;

use bytes::Bytes;
use pmnet::chaos::{Artifact, Fault, FaultEvent, FaultPlan, LinkTarget, Scenario};
use pmnet::core::system::DesignPoint;
use pmnet::net::Addr;
use pmnet::sim::{Dur, Time};
use pmnet::telemetry::flight::{FlightBody, FlightDump, FlightEvent};
use pmnet::telemetry::history::{Event, EventKind, FragAcks};
use pmnet::telemetry::span::{AckKind, Evidence, OpEvent, OpKind};
use proptest::prelude::*;

type Corpus<T> = Vec<(T, &'static str)>;

fn walk<T>(after: impl Fn(Option<&T>) -> Option<(T, &'static str)>) -> Corpus<T> {
    let mut out = Corpus::new();
    while let Some(next) = after(out.last().map(|(v, _)| v)) {
        out.push(next);
    }
    out
}

#[rustfmt::skip] // a table: one row per kind
fn fault_after(prev: Option<&Fault>) -> Option<(Fault, &'static str)> {
    use Fault::*;
    let (d, link) = (Dur::nanos, LinkTarget::Backbone(1));
    Some(match prev {
        None => (ServerCrash { downtime: Some(d(2000)) }, "at=7 server-crash down=2000"),
        Some(ServerCrash { .. }) =>
            (DeviceCrash { device: 1, downtime: Some(d(600)) }, "at=7 device-crash dev=1 down=600"),
        Some(DeviceCrash { .. }) => (DeviceFail { device: 1 }, "at=7 device-fail dev=1"),
        Some(DeviceFail { .. }) =>
            (DeviceReplace { device: 0, downtime: d(800) }, "at=7 device-replace dev=0 down=800"),
        Some(DeviceReplace { .. }) =>
            (ClientCrash { client: 2, downtime: Some(d(9)) }, "at=7 client-crash client=2 down=9"),
        Some(ClientCrash { .. }) =>
            (LinkFlap { link, down_for: d(90) }, "at=7 link-flap link=backbone:1 down=90"),
        Some(LinkFlap { .. }) => (DropBurst { link, permille: 250, dur: d(120) },
            "at=7 drop-burst link=backbone:1 permille=250 dur=120"),
        Some(DropBurst { .. }) => (DuplicateBurst { link, permille: 500, dur: d(60) },
            "at=7 dup-burst link=backbone:1 permille=500 dur=60"),
        Some(DuplicateBurst { .. }) => (ReorderBurst { link, permille: 1000, extra: d(80), dur: d(200) },
            "at=7 reorder-burst link=backbone:1 permille=1000 extra=80 dur=200"),
        Some(ReorderBurst { .. }) => (CorruptBurst { link: LinkTarget::Access(0), permille: 90, dur: d(70) },
            "at=7 corrupt-burst link=access:0 permille=90 dur=70"),
        Some(CorruptBurst { .. }) =>
            (PmSpike { device: 0, factor: 25, dur: d(700) }, "at=7 pm-spike dev=0 factor=25 dur=700"),
        Some(PmSpike { .. }) => return None,
    })
}

#[rustfmt::skip]
fn design_after(prev: Option<&DesignPoint>) -> Option<(DesignPoint, &'static str)> {
    use DesignPoint::*;
    Some(match prev {
        None => (PmnetSwitch, "pmnet-switch"),
        Some(PmnetSwitch) => (PmnetNic, "pmnet-nic"),
        Some(PmnetNic) => (ClientServer, "client-server"),
        Some(ClientServer) => (PmnetReplicated { devices: 3 }, "pmnet-replicated:3"),
        Some(PmnetReplicated { .. }) => (ClientServerReplicated { replicas: 2 }, "client-server-replicated:2"),
        Some(ClientServerReplicated { .. }) => (ServerSideLog { replicas: 2 }, "server-side-log:2"),
        Some(ServerSideLog { .. }) => (ClientSideLog { replicas: 3 }, "client-side-log:3"),
        Some(ClientSideLog { .. }) => (PmnetSharded { shards: 4 }, "pmnet-sharded:4"),
        Some(PmnetSharded { .. }) => return None,
    })
}

fn acks(device_acks: u8, server_acked: bool) -> FragAcks {
    FragAcks {
        device_acks,
        server_acked,
    }
}

#[rustfmt::skip]
fn event_after(prev: Option<&EventKind>) -> Option<(EventKind, &'static str)> {
    use EventKind::*;
    use OpKind::{Read, Update};
    let bytes = Bytes::from_static;
    Some(match prev {
        None => (Invoke { kind: Update, payload: bytes(b"payload") },
            "e at=5 client=1 session=2 seq=3 invoke update 0x7061796c6f6164"),
        Some(Invoke { .. }) =>
            (Complete { kind: Read, reply: Some(bytes(b"")), frags: vec![acks(2, true)] },
            "e at=5 client=1 session=2 seq=3 complete bypass acks=2+s reply=0x"),
        Some(Complete { kind: Read, .. }) =>
            (Complete { kind: Update, reply: None, frags: vec![acks(1, false), acks(0, true)] },
            "e at=5 client=1 session=2 seq=3 complete update acks=1,0+s reply=-"),
        Some(Complete { kind: Update, .. }) => (Apply { redo: true, epoch: 4, payload: bytes(b"") },
            "e at=5 client=1 session=2 seq=3 apply redo=true epoch=4 0x"),
        Some(Apply { .. }) =>
            (DeviceLogged { device: Addr(2000) }, "e at=5 client=1 session=2 seq=3 devlog device=2000"),
        Some(DeviceLogged { .. }) => (CacheServe { device: Addr(2001), reply: bytes(b"\x00\xff") },
            "e at=5 client=1 session=2 seq=3 cache device=2001 0x00ff"),
        Some(CacheServe { .. }) => return None,
    })
}

#[rustfmt::skip]
fn flight_after(prev: Option<&FlightBody>) -> Option<(FlightBody, &'static str)> {
    use FlightBody::{Complete, Issue, Span};
    use OpEvent::*;
    let (at, t) = (Time::from_nanos(5), Time::from_nanos);
    Some(match prev {
        None => (Span(ClientSend { attempt: 1, tx_start: t(10), wire_at: t(60) }),
            "client-send attempt=1 tx_start=10 wire=60"),
        Some(Span(ClientSend { .. })) =>
            (Span(ClientRecv { kind: AckKind::Device(1), at }), "client-recv kind=device:1 at=5"),
        Some(Span(ClientRecv { .. })) => (Span(DeviceRecv { device: 0, at }), "device-recv device=0 at=5"),
        Some(Span(DeviceRecv { .. })) => (Span(DeviceAckSend { device: 1, at }), "device-ack device=1 at=5"),
        Some(Span(DeviceAckSend { .. })) => (Span(DeviceCacheResp { device: 2, at }), "cache-resp device=2 at=5"),
        Some(Span(DeviceCacheResp { .. })) =>
            (Span(DeviceBatchStage { device: 3, at }), "batch-stage device=3 at=5"),
        Some(Span(DeviceBatchStage { .. })) =>
            (Span(DeviceBatchFlush { device: 3, at }), "batch-flush device=3 at=5"),
        Some(Span(DeviceBatchFlush { .. })) => (Span(ServerRecv { at }), "server-recv at=5"),
        Some(Span(ServerRecv { .. })) => (Span(ServerApply { at }), "server-apply at=5"),
        Some(Span(ServerApply { .. })) => (Span(ServerSend { at }), "server-send at=5"),
        Some(Span(ServerSend { .. })) => (Issue { kind: OpKind::Read }, "issue kind=read"),
        Some(Issue { .. }) => (Complete { kind: OpKind::Update, latency: Dur::nanos(690), retries: 3,
            evidence: Evidence::DeviceAck { device: 0 } },
            "complete kind=update latency=690 retries=3 evidence=device:0"),
        Some(Complete { .. }) => return None,
    })
}

/// The walks plus what they do not reach: absent optional fields and the
/// remaining `kind:arg` words.
fn fault_corpus() -> Corpus<Fault> {
    let mut corpus = walk(fault_after);
    assert_eq!(corpus.len(), 11);
    corpus.push((Fault::ServerCrash { downtime: None }, "at=7 server-crash"));
    let (client, downtime) = (0, None);
    let crash = Fault::ClientCrash { client, downtime };
    corpus.push((crash, "at=7 client-crash client=0"));
    corpus
}

#[rustfmt::skip]
fn flight_corpus() -> Corpus<FlightBody> {
    let mut corpus = walk(flight_after);
    assert_eq!(corpus.len(), 12);
    let recv = |kind| FlightBody::Span(OpEvent::ClientRecv { kind, at: Time::ZERO });
    let done = |evidence| FlightBody::Complete { kind: OpKind::Read, latency: Dur::nanos(1), retries: 0, evidence };
    corpus.extend([
        (recv(AckKind::Peer(201)), "client-recv kind=peer:201 at=0"),
        (recv(AckKind::Server), "client-recv kind=server at=0"),
        (recv(AckKind::Reply), "client-recv kind=reply at=0"),
        (recv(AckKind::Cache), "client-recv kind=cache at=0"),
        (done(Evidence::ServerAck), "complete kind=read latency=1 retries=0 evidence=server"),
        (done(Evidence::AppReply), "complete kind=read latency=1 retries=0 evidence=reply"),
        (done(Evidence::CacheResp), "complete kind=read latency=1 retries=0 evidence=cache"),
        (done(Evidence::LocalLog), "complete kind=read latency=1 retries=0 evidence=local"),
    ]);
    corpus
}

fn plan_line(fault: Fault) -> FaultEvent {
    let at = Dur::nanos(7);
    FaultEvent { at, fault }
}

fn artifact(design: DesignPoint) -> Artifact {
    Artifact::new(&Scenario::standard(design, 77), FaultPlan::new())
}

fn history_event(kind: EventKind) -> Event {
    Event {
        at: Time::from_nanos(5),
        client: Addr(1),
        session: 2,
        seq: 3,
        kind,
    }
}

fn flight_dump(bodies: &Corpus<FlightBody>) -> (FlightDump, String) {
    let mut text = "# pmnet-telemetry flight v1\nflight dropped=3\n".to_string();
    let mut events = Vec::new();
    for (ord, (body, line)) in bodies.iter().enumerate() {
        events.push(FlightEvent {
            ord: ord as u64,
            at: Time::from_nanos(40),
            node: Addr(2000),
            key: (Addr(3), 7, 9),
            body: *body,
        });
        text += &format!("flight {ord} t=40 node=2000 op=3/7/9 {line}\n");
    }
    (FlightDump { dropped: 3, events }, text)
}

const ARTIFACT_HEADER: &str = "# pmnet-chaos replay artifact\nseed=77\n";
const DIVERGENCE_HEADER: &str = "pmnet-model divergence v2\nindex=4\nreason=some reason: a=b\n";

/// What `pmnet::model::render` takes and `parse` gives back.
type Divergence = (Vec<Event>, Option<BTreeMap<Vec<u8>, Vec<u8>>>);

fn render_divergence((history, durable): &Divergence) -> String {
    pmnet::model::render(history, durable.as_ref(), 4, "some reason:\na=b")
}

fn parse_divergence(text: &str) -> Result<Divergence, String> {
    let parsed = pmnet::model::parse(text)?;
    assert_eq!(
        (parsed.index, parsed.reason.as_str()),
        (4, "some reason: a=b")
    );
    Ok((parsed.history, parsed.durable))
}

/// One corpus row, both ways.
fn check<T: std::fmt::Debug + PartialEq>(
    value: T,
    text: &str,
    render: impl Fn(&T) -> String,
    parse: impl Fn(&str) -> Result<T, String>,
) {
    assert_eq!(render(&value), text);
    assert_eq!(parse(text), Ok(value), "{text}");
}

#[test]
fn plan_lines_render_and_parse_as_their_corpus_lines() {
    for (fault, line) in fault_corpus() {
        check(plan_line(fault), line, FaultEvent::to_string, str::parse);
    }
}

#[test]
fn design_words_render_and_parse_as_their_corpus_words() {
    let designs = walk(design_after);
    assert_eq!(designs.len(), 8);
    for (design, word) in designs {
        let text = format!("{ARTIFACT_HEADER}design={word}\ndedup_bug=false\n");
        check(artifact(design), &text, Artifact::to_string, str::parse);
    }
}

#[test]
fn divergence_lines_render_and_parse_as_their_corpus_lines() {
    let events = walk(event_after);
    assert_eq!(events.len(), 6);
    for (kind, line) in events {
        let text = format!("{DIVERGENCE_HEADER}state=absent\n{line}\n");
        let value = (vec![history_event(kind)], None);
        check(value, &text, render_divergence, parse_divergence);
    }
    let durable = BTreeMap::from([(b"k".to_vec(), vec![0u8, 255]), (Vec::new(), Vec::new())]);
    let text = format!("{DIVERGENCE_HEADER}state=present\ns 0x 0x\ns 0x6b 0x00ff\n");
    let value = (Vec::new(), Some(durable));
    check(value, &text, render_divergence, parse_divergence);
}

#[test]
fn flight_lines_render_and_parse_as_their_corpus_lines() {
    let (dump, text) = flight_dump(&flight_corpus());
    check(dump, &text, FlightDump::to_string, str::parse);
}

/// A whole replay artifact: optional header lines, a plan, a flight
/// section.
fn full_artifact() -> (Artifact, String) {
    let (dump, flight_text) = flight_dump(&walk(flight_after));
    let mut full = artifact(DesignPoint::PmnetSharded { shards: 2 });
    (full.batch_window, full.apply_threads) = (16, 4);
    let fail = Fault::DeviceFail { device: 1 };
    full.plan.push(Dur::nanos(7), fail);
    full.flight = Some(dump);
    (full, flight_text)
}

#[test]
fn a_full_artifact_renders_and_parses_as_its_corpus_text() {
    let (full, flight_text) = full_artifact();
    let text = format!(
        "{ARTIFACT_HEADER}design=pmnet-sharded:2\ndedup_bug=false\nbatch_window=16\n\
         apply_threads=4\nat=7 device-fail dev=1\n{flight_text}"
    );
    check(full, &text, Artifact::to_string, str::parse);
}

/// The formats that find fields by key take them in any order.
#[test]
fn field_order_is_free() {
    let (full, flight_text) = full_artifact();
    let permuted = format!(
        "{flight_text}dev=1 device-fail at=7\napply_threads=4\nbatch_window=16\n\
         dedup_bug=false\ndesign=pmnet-sharded:2\nseed=77\n"
    );
    assert_eq!(permuted.parse(), Ok(full.clone()));
    let line = "dur=200 extra=80 reorder-burst permille=1000 at=7 link=backbone:1";
    assert_eq!(line.parse(), Ok(plan_line(walk(fault_after)[8].0)));
    let line = "flight 11 evidence=device:0 op=3/7/9 retries=3 complete node=2000 \
                latency=690 kind=update t=40";
    let (dropped, events) = (0, vec![full.flight.unwrap().events[11]]);
    assert_eq!(line.parse(), Ok(FlightDump { dropped, events }));
}

/// Values no field accepts and tokens no line asks for, then scraps to
/// build arbitrary tokens from.
const HOSTILE: &str = "\u{e9} 0xa\u{e9}b 0x1 99999999999999999999 -1 = 1.5 \u{1f980}:3 a=b=c";
type Parses = fn(&str) -> bool;
const SOUP: [&str; 12] = [
    "\u{e9}", "=", ":", "/", "0x", "9", "-", "at", "flight", "e", "#", "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// PR 19 (`unhex` panicked on non-ASCII, flight numbers were
    /// truncated): a document with one token too many, or one value of the
    /// wrong type, is an `Err` from its parser, and no input, however
    /// mangled, panics any of the four.
    #[test]
    fn malformed_lines_are_errors_never_panics(
        (doc, line, at) in (0usize..4, 0usize..64, 0usize..16),
        bad in 0usize..9,
        op in 0u8..3,
        soup in prop::collection::vec(0usize..SOUP.len(), 0..10),
    ) {
        let plan: String = fault_corpus().iter().map(|(_, l)| format!("{l}\n")).collect();
        let events: String = walk(event_after).iter().map(|(_, l)| format!("{l}\n")).collect();
        let flight = flight_dump(&flight_corpus()).1;
        let divergence = format!("{DIVERGENCE_HEADER}state=present\ns 0x6b 0x\n{events}");
        let artifact = format!("{ARTIFACT_HEADER}design=pmnet-nic\nbatch_window=16\n{plan}{flight}");
        let docs: [(String, Parses); 4] = [
            (plan, |t| t.parse::<FaultPlan>().is_ok()),
            (divergence, |t| pmnet::model::parse(t).is_ok()),
            (flight, |t| t.parse::<FlightDump>().is_ok()),
            (artifact, |t| t.parse::<Artifact>().is_ok()),
        ];
        let soup: String = soup.iter().map(|&i| SOUP[i]).collect();
        let bad = HOSTILE.split(' ').nth(bad).expect("nine of them");
        let (text, parses) = &docs[doc];
        // Comments and the free-text reason take anything.
        let mut lines: Vec<&str> = text.lines().collect();
        let targets: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].starts_with('#') && !lines[i].starts_with("reason="))
            .collect();
        let line = targets[line % targets.len()];
        let mut toks: Vec<String> = lines[line].split(' ').map(String::from).collect();
        let at = at % toks.len();
        match (op, toks[at].split_once('=')) {
            (0, _) => toks.insert(at, bad.into()),
            (1, Some((key, _))) => toks[at] = format!("{key}={bad}"),
            (1, None) => toks[at] = bad.into(),
            _ => toks[at] = soup.clone(),
        }
        let mangled = toks.join(" ");
        lines[line] = &mangled;
        let ok = parses(&lines.join("\n"));
        prop_assert!(op == 2 || !ok, "{mangled:?} parsed");
        for (_, parses) in &docs {
            parses(&soup);
        }
    }
}
