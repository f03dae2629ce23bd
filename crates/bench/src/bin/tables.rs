//! Prints the paper's tables.
//!
//! `tables` prints Tables 4-1..4-9 and the Tourney fix, in that order;
//! `tables <name>...` prints the named tables (see `bench::tables` for the
//! names, which include the ablations beyond the paper).
//!
//! Run with: `cargo run --release -p bench --bin tables [-- <name>...]`

use bench::tables;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut chosen = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(table) = tables::find(&name) else {
            let valid: Vec<&str> = tables::names().collect();
            eprintln!(
                "tables: unknown table `{name}`; valid names: {}",
                valid.join(" ")
            );
            return ExitCode::from(2);
        };
        chosen.push(table);
    }
    if chosen.is_empty() {
        chosen = tables::PAPER.iter().map(|(_, table)| *table).collect();
    }
    let mut out = std::io::stdout().lock();
    for table in chosen {
        if let Err(e) = table(&mut out) {
            eprintln!("tables: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
