//! The figures ledger: every row of `pmnet::figures::table` measured at
//! reduced scale must stay within 5 % of its pinned value, and every
//! algebra row's gap from the nominal critical path must be the pinned
//! one to the nanosecond. A row that moves on purpose gets a new pin in
//! the table, and EXPERIMENTS.md is regenerated with
//! `cargo run --release --example figures`.

use pmnet::figures::{measure, table, Scale};
use pmnet::sim::hash::FixedSet;

#[test]
fn every_figure_row_holds_its_pin() {
    let rows = table();
    let mut ids = FixedSet::default();
    for row in &rows {
        assert!(ids.insert(row.id.clone()), "two rows are {}", row.id);
    }
    let mut off = Vec::new();
    for (row, value) in measure(rows, Scale::Reduced) {
        println!("{}", row.line(value));
        if !row.holds(value) {
            off.push(row.line(value));
        }
    }
    assert!(off.is_empty(), "rows off their pins:\n{}", off.join("\n"));
}
