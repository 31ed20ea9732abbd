//! Shape assertions for the paper's headline results, with generous bands
//! (the substrate is a simulator, not the authors' testbed). Each test
//! measures its figure's rows of `pmnet::figures::table` at reduced scale;
//! `tests/figures_ledger.rs` pins the same rows to ±5 %, and EXPERIMENTS.md
//! records the full-scale values.

use std::collections::HashMap;

use pmnet::figures::{measure, table, Scale};
use pmnet::workloads::WorkloadSpec;

/// Every row whose id starts with `prefix`, measured at reduced scale, by id.
fn measured(prefix: &str) -> HashMap<String, f64> {
    let rows: Vec<_> = table()
        .into_iter()
        .filter(|row| row.id.starts_with(prefix))
        .collect();
    assert!(!rows.is_empty(), "no row starts with {prefix}");
    let values = measure(rows, Scale::Reduced).into_iter();
    values.map(|(row, value)| (row.id, value)).collect()
}

/// Figure 15: 2.83x/2.90x at 50 B shrinking toward ~2.19x at 1000 B.
#[test]
fn fig15_speedup_shrinks_with_payload() {
    let fig = measured("Fig. 15/");
    let s50 = fig["Fig. 15/50 B@switch speedup"];
    let s1000 = fig["Fig. 15/1000 B@switch speedup"];
    assert!(
        s50 > 2.0 && s50 < 4.0,
        "50 B speedup {s50:.2} (paper: 2.83x)"
    );
    assert!(
        s1000 > 1.5 && s1000 < 3.2,
        "1000 B speedup {s1000:.2} (paper: 2.19x)"
    );
    assert!(s1000 < s50, "benefit must shrink with payload size");
}

/// Figure 15's second observation: switch vs NIC differ negligibly.
#[test]
fn fig15_switch_nic_parity() {
    let fig = measured("Fig. 15/100 B@");
    let (sw, nic) = (
        fig["Fig. 15/100 B@PMNet-Switch"],
        fig["Fig. 15/100 B@PMNet-NIC"],
    );
    assert!((sw - nic).abs() < 3.0, "switch {sw:.1} vs nic {nic:.1} us");
}

/// Figure 18 ordering: client-log < PMNet < server-log without
/// replication; PMNet wins with 3-way replication.
#[test]
fn fig18_alternative_design_ordering() {
    let fig = measured("Fig. 18/");
    let mean = |id: &str| fig[&format!("Fig. 18/{id}")];
    let pmnet = mean("PMNet@no replication");
    let client_log = mean("client-side log@no replication");
    let server_log = mean("server-side log@no replication");
    assert!(client_log < pmnet, "{client_log:.1} < {pmnet:.1}");
    assert!(pmnet < server_log, "{pmnet:.1} < {server_log:.1}");

    let pmnet3 = mean("PMNet@3-way");
    let client3 = mean("client-side log@3-way");
    let server3 = mean("server-side log@3-way");
    assert!(pmnet3 < client3, "{pmnet3:.1} < {client3:.1}");
    assert!(client3 < server3, "{client3:.1} < {server3:.1}");
    // PMNet's replication overhead is small (paper: 21.5 -> 22.8 us).
    assert!(
        pmnet3 / pmnet < 1.35,
        "replication overhead {:.2}",
        pmnet3 / pmnet
    );
}

/// Figure 21: in-network 3-way replication beats server-side replication
/// by a large factor (paper: 5.88x).
#[test]
fn fig21_replication_speedup() {
    let fig = measured("Fig. 21/");
    let speedup = fig["Fig. 21/server-side 3-way@over PMNet 3-way"];
    assert!(
        speedup > 3.5 && speedup < 9.0,
        "replication speedup {speedup:.2} (paper: 5.88x)"
    );
}

/// Figure 19: every workload at 100% updates gains substantially; the
/// benefit shrinks as reads grow.
#[test]
fn fig19_throughput_benefit_shrinks_with_reads() {
    let fig = measured("Fig. 19/");
    for spec in WorkloadSpec::all() {
        let speedup_at = |ratio: &str| fig[&format!("Fig. 19/{}@{ratio}", spec.name())];
        let (full, quarter) = (speedup_at("100%"), speedup_at("25%"));
        let name = spec.name();
        assert!(full > 2.0, "{name}: 100% update speedup {full:.2}");
        assert!(
            quarter < full,
            "{name}: read-heavy benefit must shrink: {quarter:.2} vs {full:.2}"
        );
    }
}

/// Figure 20: p99 tail improvement at 100% updates (paper: 3.23x).
#[test]
fn fig20_tail_latency_improves() {
    let fig = measured("Fig. 20/100% updates@PMNet p99 gain");
    let tail = fig["Fig. 20/100% updates@PMNet p99 gain"];
    assert!(tail > 2.0, "p99 improvement {tail:.2} (paper: 3.23x)");
}

/// Figure 22: PMNet keeps a substantial advantage under kernel-bypass
/// stacks (paper: 3.08x kernel, 3.56x with libVMA).
#[test]
fn fig22_bypass_stack_benefit_persists() {
    let fig = measured("Fig. 22/");
    let kernel = fig["Fig. 22/kernel@speedup"];
    let vma = fig["Fig. 22/libVMA@speedup"];
    assert!(kernel > 2.0, "kernel-stack speedup {kernel:.2}");
    assert!(vma > 1.8, "bypass-stack speedup {vma:.2}");
}

/// Section III-C: ~13.7% of TPCC requests bypass PMNet.
#[test]
fn tpcc_lock_fraction_matches() {
    let id = format!("§III-C/{}@bypass share", WorkloadSpec::Tpcc.name());
    let percent = measured(&id)[&id];
    assert!((percent - 13.7).abs() < 2.0, "lock fraction {percent:.1} %");
}
