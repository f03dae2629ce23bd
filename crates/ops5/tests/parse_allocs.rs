//! What `Program::from_source` asks of the allocator, per program.
//!
//! Parsing was most of turning a source into a runnable engine (`setup_s` on
//! the ledger's `weaver`), and much of parsing was the allocator: one
//! `String` per token grown a `char` at a time, cloned again on every
//! `bump()`. The lexer is now a cursor whose tokens borrow from the source,
//! and these counts are the deterministic half of that claim: they
//! depend on the source and the front end only, so they repeat exactly, in
//! debug and release alike. The allocator below counts per thread, so
//! concurrently running tests cannot disturb it.
//!
//! On a mismatch the test prints the measured table in paste-able form; a
//! row moves only with a reason (EXPERIMENTS.md, "Source → runnable engine").

mod common;

use ops5::lexer::{Lexer, TokKind};
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
/// What is left is the AST (one allocation per vector and per box, each at
/// its final size), one `Arc<str>` per distinct symbol, and the growth of
/// the symbol and class tables and of the parser's scratch stacks, which is
/// why the small programs sit above the large ones. At 7543973 (the
/// `Peekable<Chars>` lexer and the cloning parser) the same rows read
/// 1.5–1.9 allocations and 100–190 bytes per token: `weaver12` 72 832
/// allocations and 6 963 856 bytes, `rubik` 9 234 and 944 918, `blocks` 279
/// and 28 520.
const PINNED: &[(&str, usize, u64, u64)] = &[
    ("weaver12", 40669, 15054, 967364), // 0.37 per token
    ("weaver6", 13669, 5114, 330356),   // 0.37 per token
    ("rubik", 5763, 1995, 120208),      // 0.35 per token
    ("tourney", 275, 151, 12728),       // 0.55 per token
    ("tourney_fixed", 293, 160, 13688), // 0.55 per token
    ("blocks", 150, 78, 6628),          // 0.52 per token
    ("carousel", 264, 120, 8872),       // 0.45 per token
    ("fibonacci", 85, 51, 4096),        // 0.60 per token
    ("hanoi", 179, 85, 6948),           // 0.47 per token
    ("monkey", 615, 254, 18896),        // 0.41 per token
    ("triage", 292, 84, 7056),          // 0.29 per token
    ("steady", 157, 81, 5692),          // 0.52 per token
];

/// Tokens in `src`, the closing `Eof` included.
fn tokens(src: &str) -> usize {
    let mut lexer = Lexer::new(src);
    let mut n = 1;
    while lexer.next_token().expect("corpus lexes").kind != TokKind::Eof {
        n += 1;
    }
    n
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
