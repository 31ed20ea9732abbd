//! Every figure of the paper's evaluation, as the EXPERIMENTS.md tables.
//!
//! Measures every row of `pmnet::figures::table` at full scale and prints
//! one markdown table per figure, ready to paste. The output is simulated
//! time only, so two runs print the same bytes.
//!
//! ```text
//! cargo run --release --example figures
//! ```

use pmnet::figures::{markdown, measure, table, Scale};

fn main() {
    print!("{}", markdown(&measure(table(), Scale::Full)));
}
