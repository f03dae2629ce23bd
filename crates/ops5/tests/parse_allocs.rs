//! What `Program::from_source` asks of the allocator, per program.
//!
//! Parsing is most of turning a source into a runnable engine (`setup_s` on
//! the ledger's `weaver`), and most of parsing used to be the allocator: one
//! `String` per token grown a `char` at a time, cloned again on every
//! `bump()`. These counts are the deterministic half of that claim: they
//! depend on the source and the front end only, so they repeat exactly, in
//! debug and release alike. The allocator below counts per thread, so
//! concurrently running tests cannot disturb it.
//!
//! On a mismatch the test prints the measured table in paste-able form; a
//! row moves only with a reason (EXPERIMENTS.md, "Source → runnable engine").

mod common;

use ops5::Program;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's TLS is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// (program, tokens, allocations, bytes requested) of one `from_source`.
/// Recorded at 7543973, the `Peekable<Chars>` lexer and cloning parser:
/// 1.5–1.9 allocations and 100–190 bytes per token.
const PINNED: &[(&str, usize, u64, u64)] = &[
    ("weaver12", 40669, 72832, 6963856), // 1.79 per token
    ("weaver6", 13669, 24514, 1893520),  // 1.79 per token
    ("rubik", 5763, 9234, 944918),       // 1.60 per token
    ("tourney", 275, 496, 58524),        // 1.80 per token
    ("tourney_fixed", 293, 533, 59660),  // 1.82 per token
    ("blocks", 150, 279, 28520),         // 1.86 per token
    ("carousel", 264, 450, 53365),       // 1.70 per token
    ("fibonacci", 85, 161, 14575),       // 1.89 per token
    ("hanoi", 179, 310, 28799),          // 1.73 per token
    ("monkey", 615, 1098, 111058),       // 1.79 per token
    ("triage", 292, 438, 51958),         // 1.50 per token
    ("steady", 157, 273, 28478),         // 1.74 per token
];

/// Tokens in `src`, the closing `Eof` included.
fn tokens(src: &str) -> usize {
    ops5::lexer::lex(src).expect("corpus lexes").len()
}

fn measure(src: &str) -> (u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let prog = Program::from_source(src);
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    prog.expect("corpus parses");
    (a1 - a0, b1 - b0)
}

#[test]
fn a_parse_allocates_what_is_pinned() {
    let measured: Vec<(String, usize, u64, u64)> = common::programs()
        .into_iter()
        .map(|(name, src)| {
            let tokens = tokens(&src);
            let (allocs, bytes) = measure(&src);
            assert_eq!(measure(&src), (allocs, bytes), "{name}: not repeatable");
            (name, tokens, allocs, bytes)
        })
        .collect();
    let same = measured.len() == PINNED.len()
        && measured
            .iter()
            .zip(PINNED)
            .all(|(m, p)| (m.0.as_str(), m.1, m.2, m.3) == *p);
    if !same {
        let mut table = String::new();
        for (name, tokens, allocs, bytes) in &measured {
            table.push_str(&format!(
                "    ({name:?}, {tokens}, {allocs}, {bytes}), // {:.2} per token\n",
                *allocs as f64 / *tokens as f64
            ));
        }
        panic!("parse allocations moved; measured:\n{table}");
    }
}
