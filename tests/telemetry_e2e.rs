//! End-to-end span-tracing tests: attach a telemetry handle to a real
//! built system, run workloads through the full stack, and check that
//! every completed op's trace attributes its *measured* latency — the
//! phases sum exactly, clean paths have nothing unattributed, and the
//! per-phase shape matches the design (PMNet acks before the server
//! stack; cache hits never touch the server; retransmitted ops carry
//! their retry wait).

mod common;

use common::{get_frame, run_and_drain, set_frame};
use pmnet::core::api::{bypass, update, ScriptSource};
use pmnet::core::client::ClientLib;
use pmnet::core::system::{DesignPoint, SystemBuilder};
use pmnet::core::SystemConfig;
use pmnet::sim::Dur;
use pmnet::telemetry::span::{Evidence, Phase};
use pmnet::telemetry::Telemetry;
use pmnet::workloads::{KvHandler, YcsbSource};

#[test]
fn update_trace_phases_sum_to_measured_latency() {
    let script: Vec<_> = (0..25u32)
        .map(|i| update(set_frame(format!("k{i}").as_bytes(), &i.to_le_bytes())))
        .collect();
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 1)))
        .build(41);
    let tel = Telemetry::full();
    sys.attach_telemetry(&tel);
    run_and_drain(&mut sys, Dur::secs(5), Dur::millis(50));
    assert_eq!(sys.metrics().completed, 25);

    let traces = tel.traces();
    assert_eq!(traces.len(), 25, "one trace per completed op");
    let client = sys.world.node::<ClientLib>(sys.clients[0]);
    for (t, r) in traces.iter().zip(client.records()) {
        assert_eq!(
            t.latency, r.latency,
            "trace carries the client-observed latency"
        );
        assert_eq!(t.retries, r.retries);
        assert_eq!(
            t.phase_sum(),
            t.latency,
            "phases sum to measured latency: {t:?}"
        );
        assert_eq!(
            t.phase(Phase::Unattributed),
            Dur::ZERO,
            "a clean update path is fully attributed: {t:?}"
        );
        assert!(matches!(t.evidence, Evidence::DeviceAck { .. }));
        assert!(t.phase(Phase::Device) > Dur::ZERO, "{t:?}");
        assert!(t.phase(Phase::WireOut) > Dur::ZERO, "{t:?}");
        assert_eq!(
            t.phase(Phase::ServerStack),
            Dur::ZERO,
            "PMNet acks from the device, before the server stack: {t:?}"
        );
    }

    // The registry folded every completion into phase histograms.
    let reg = tel.registry();
    assert_eq!(reg.histogram("op.update.latency").unwrap().len(), 25);
    assert_eq!(
        reg.histogram(&format!("phase.{}", Phase::Device.name()))
            .unwrap()
            .len(),
        25
    );
}

#[test]
fn cached_read_traces_attribute_the_device_cache() {
    let mut config = SystemConfig::default();
    config.device = config.device.with_cache(4096);
    let mut script = vec![update(set_frame(b"hot", b"v1"))];
    for _ in 0..10 {
        script.push(bypass(get_frame(b"hot")));
    }
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("hashmap", 2)))
        .build(43);
    let tel = Telemetry::full();
    sys.attach_telemetry(&tel);
    run_and_drain(&mut sys, Dur::secs(2), Dur::millis(20));
    assert_eq!(sys.metrics().completed, 11);

    let traces = tel.traces();
    assert_eq!(traces.len(), 11);
    for t in &traces {
        assert_eq!(t.phase_sum(), t.latency, "{t:?}");
    }
    let cached: Vec<_> = traces
        .iter()
        .filter(|t| t.evidence == Evidence::CacheResp)
        .collect();
    assert!(
        !cached.is_empty(),
        "hot reads complete from the device cache"
    );
    for t in &cached {
        assert_eq!(t.phase(Phase::Unattributed), Dur::ZERO, "{t:?}");
        assert!(t.phase(Phase::Device) > Dur::ZERO, "{t:?}");
        assert_eq!(t.phase(Phase::ServerStack), Dur::ZERO, "cache hit: {t:?}");
        assert_eq!(t.phase(Phase::Handler), Dur::ZERO, "cache hit: {t:?}");
    }
    // A read the server answered (the cold miss) traverses its stack.
    if let Some(miss) = traces.iter().find(|t| t.evidence == Evidence::AppReply) {
        assert!(miss.phase(Phase::ServerStack) > Dur::ZERO, "{miss:?}");
        assert!(miss.phase(Phase::Handler) > Dur::ZERO, "{miss:?}");
    }
}

#[test]
fn retransmitted_updates_attribute_retry_wait() {
    let mut config = SystemConfig::default();
    config.link = config.link.with_drop_prob(0.25);
    config.client_timeout = Dur::millis(2);
    let script: Vec<_> = (0..40u32)
        .map(|i| update(set_frame(format!("r{i}").as_bytes(), &i.to_be_bytes())))
        .collect();
    let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, config)
        .client(Box::new(ScriptSource::new(script)))
        .handler_factory(|| Box::new(KvHandler::new("btree", 3)))
        .build(13);
    let tel = Telemetry::full();
    sys.attach_telemetry(&tel);
    run_and_drain(&mut sys, Dur::secs(20), Dur::millis(100));
    assert_eq!(sys.metrics().completed, 40);

    let traces = tel.traces();
    assert_eq!(traces.len(), 40);
    // Attribution never invents or loses time, even on lossy paths where
    // event chains may be partial.
    for t in &traces {
        assert_eq!(t.phase_sum(), t.latency, "{t:?}");
    }
    let retried: Vec<_> = traces.iter().filter(|t| t.retries > 0).collect();
    assert!(
        !retried.is_empty(),
        "25% loss over 40 updates must force a retransmission"
    );
    for t in &retried {
        assert!(
            t.phase(Phase::RetryWait) > Dur::ZERO,
            "a retried op waits at least one timeout: {t:?}"
        );
    }
}

#[test]
fn telemetry_attachment_changes_no_metrics() {
    // The determinism contract: hooks are pure observation, so the same
    // seed produces bit-identical results with telemetry on or off.
    let run = |attach: bool| {
        let mut sys = SystemBuilder::new(DesignPoint::PmnetSwitch, SystemConfig::default())
            .client(Box::new(YcsbSource::new(150, 2000, 0.7, 80)))
            .handler_factory(|| Box::new(KvHandler::new("hashmap", 4)))
            .build(47);
        let tel = attach.then(Telemetry::full);
        if let Some(t) = &tel {
            sys.attach_telemetry(t);
        }
        sys.run_clients(Dur::secs(5));
        let mut m = sys.metrics();
        (
            m.completed,
            m.latency.summary(),
            m.client_retries,
            sys.counter_set().to_string(),
            sys.world.now(),
        )
    };
    assert_eq!(run(false), run(true));
}
