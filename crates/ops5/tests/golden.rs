//! What a parse produces, byte for byte, and what a malformed source says.
//!
//! `SymbolId`s are observable: `Value::Sym(id)` feeds every memory key, so
//! hash-line populations, `tokens_examined`, the conflict-set order digests
//! and Tables 4-2/4-3 all move if one symbol is interned in a different
//! order. `tests/golden/<program>.txt`, captured at 7543973 (before the
//! cursor lexer), holds for each program of `common::programs()` the symbol
//! names in id order, the class table, the strategy, the start-up forms with
//! their raw field indices and ids, and `printer::print_program` (for the
//! three large generated sources its length and an FNV-1a digest).
//!
//! To re-pin: `OPS5_UPDATE_GOLDEN=1 cargo test -p ops5 --test golden`, in
//! the same commit as the reason.

mod common;

use ops5::printer::print_program;
use ops5::{Program, Strategy};
use std::fmt::Write as _;
use std::path::Path;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Printed programs longer than this are pinned by digest.
const FULL_TEXT_LIMIT: usize = 16 * 1024;

fn identity(prog: &Program) -> String {
    let mut s = String::from("== symbols, id order\n");
    for id in 0..prog.symbols.len() {
        let _ = writeln!(s, "{id} {}", prog.symbols.name(ops5::SymbolId(id as u32)));
    }
    s.push_str("== classes, by class id: field order\n");
    let mut classes: Vec<_> = prog.classes.classes().collect();
    classes.sort_by_key(|(c, _)| c.0);
    for (class, info) in classes {
        let _ = write!(s, "{class:?}:");
        for a in &info.attrs {
            let _ = write!(s, " {a:?}");
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "== strategy\n{}",
        match prog.strategy {
            Strategy::Lex => "lex",
            Strategy::Mea => "mea",
        }
    );
    s.push_str("== start-up forms\n");
    for m in &prog.startup {
        let _ = writeln!(s, "{:?} {:?}", m.class, m.sets);
    }
    let printed = print_program(prog);
    let _ = writeln!(
        s,
        "== print_program, {} productions",
        prog.productions.len()
    );
    if printed.len() > FULL_TEXT_LIMIT {
        let _ = writeln!(
            s,
            "{} bytes, {} lines, fnv1a {:016x}",
            printed.len(),
            printed.lines().count(),
            fnv1a(printed.as_bytes())
        );
    } else {
        s.push_str(&printed);
    }
    s
}

#[test]
fn a_parse_produces_what_the_goldens_hold() {
    let update = std::env::var_os("OPS5_UPDATE_GOLDEN").is_some();
    let mut moved = Vec::new();
    for (name, src) in common::programs() {
        let prog = Program::from_source(&src).expect("corpus parses");
        let now = identity(&prog);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
        if update {
            std::fs::write(&path, &now).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_default();
        let mut lines = golden.lines().zip(now.lines()).enumerate();
        if let Some((n, (was, is))) = lines.find(|(_, (was, is))| was != is) {
            moved.push(format!("{name}:{}: {was:?} is now {is:?}", n + 1));
        } else if golden != now {
            moved.push(format!("{name}: {} bytes, now {}", golden.len(), now.len()));
        }
    }
    assert!(moved.is_empty(), "parse identity moved for: {moved:?}");
}

/// Malformed sources and the exact `Display` of what `from_source` answers.
/// Columns count `char`s, not bytes; a message embeds the `Debug` of the
/// token it met; a source that parses shows the fields of its first start-up
/// form. Captured at 7543973.
const MALFORMED: &[(&str, &str)] = &[
    ("<oops", "lex error at 1:1: unterminated variable <oops"),
    ("(p x (a ^b <v) --> (halt))", "lex error at 1:12: unterminated variable <v"),
    ("(p x (a ^b <v w>) --> (halt))", "lex error at 1:12: unterminated variable <v"),
    ("|abc", "lex error at 1:1: unterminated |symbol|"),
    ("(p x (a ^b |never closed) --> (halt))", "lex error at 1:12: unterminated |symbol|"),
    ("(p x (a ^ 1) --> (halt))", "lex error at 1:9: expected attribute name after ^"),
    ("(p x (a ^\\\\ 1) --> (halt))", "lex error at 1:9: expected attribute name after ^"),
    ("(p x (a ^b 1) --> (halt)) ^", "lex error at 1:27: expected attribute name after ^"),
    ("(p x (a ^b #) --> (halt))", "lex error at 1:12: unexpected character '#'"),
    ("(p x (a ^b 1) --> (halt)) ]", "lex error at 1:27: unexpected character ']'"),
    ("}", "parse error at 1:1: expected top-level form, found RBrace"),
    (">>", "parse error at 1:1: expected top-level form, found RDisj"),
    (")", "parse error at 1:1: expected top-level form, found RParen"),
    ("(p x (a ^b }) --> (halt))", "parse error at 1:13: expected test atom, found RBrace"),
    ("(p x (a ^b >>) --> (halt))", "parse error at 1:14: expected test atom, found RDisj"),
    ("(p x (a ^b { 1 >> }) --> (halt))", "parse error at 1:19: expected test atom, found RDisj"),
    ("(p x (a ^b << 1 } >>) --> (halt))", "parse error at 1:19: expected constant, found RBrace"),
    ("(p x (a ^b 1) --> (halt)))", "parse error at 1:26: expected top-level form, found RParen"),
    ("(p x (a ^b 1) --> (modify 2 ^b 2))", "parse error at 1:29: modify references condition element 2, but LHS has 1 elements"),
    ("(p x (a ^b 1) --> (modify 0 ^b 2))", "parse error at 1:29: modify references condition element 0, but LHS has 1 elements"),
    ("(p x (a ^b 1) --> (modify -1 ^b 2))", "parse error at 1:30: modify references condition element -1, but LHS has 1 elements"),
    ("(p x (a ^b 1) --> (modify one ^b 2))", "parse error at 1:31: expected CE index after modify, found Sym(\"one\")"),
    ("(p x (a ^b 1) --> (modify 1.0 ^b 2))", "parse error at 1:31: expected CE index after modify, found Float(1.0)"),
    ("(p x (a ^b 1) - (c ^d 2) --> (modify 2 ^d 3))", "parse error at 1:40: modify references negated condition element 2"),
    ("(p x (a ^b 1) --> (remove))", "parse error at 1:27: remove needs at least one CE index"),
    ("(p x (a ^b 1) --> (remove 1 <v>))", "parse error at 1:29: expected CE index after remove, found Var(\"v\")"),
    ("(p x (a ^b 1) --> (remove 99999999999))", "parse error at 1:38: remove references condition element 99999999999, but LHS has 1 elements"),
    ("(", "parse error at 1:2: expected form head, found Eof"),
    ("(p", "parse error at 1:3: expected symbol, found Eof"),
    ("(p x", "parse error at 1:5: expected condition element or -->, found Eof"),
    ("(p x (", "parse error at 1:7: expected symbol, found Eof"),
    ("(p x (a", "parse error at 1:8: expected ^attr or ')' in condition element, found Eof"),
    ("(p x (a ^b", "parse error at 1:11: expected test atom, found Eof"),
    ("(p x (a ^b 1", "parse error at 1:13: expected ^attr or ')' in condition element, found Eof"),
    ("(p x (a ^b {", "parse error at 1:13: expected test atom, found Eof"),
    ("(p x (a ^b { > 1", "parse error at 1:17: expected test atom, found Eof"),
    ("(p x (a ^b <<", "parse error at 1:14: expected constant, found Eof"),
    ("(p x (a ^b << 1", "parse error at 1:16: expected constant, found Eof"),
    ("(p x (a ^b 1)", "parse error at 1:14: expected condition element or -->, found Eof"),
    ("(p x (a ^b 1) -", "parse error at 1:16: expected '(', found Eof"),
    ("(p x (a ^b 1) -->", "parse error at 1:18: expected RHS action or ')', found Eof"),
    ("(p x (a ^b 1) --> (", "parse error at 1:20: expected action head, found Eof"),
    ("(p x (a ^b 1) --> (make", "parse error at 1:24: expected symbol, found Eof"),
    ("(p x (a ^b 1) --> (make a ^b", "parse error at 1:29: expected constant, found Eof"),
    ("(p x (a ^b 1) --> (make a ^b (compute", "parse error at 1:38: expected compute operand, found Eof"),
    ("(p x (a ^b 1) --> (make a ^b (compute 1 +", "parse error at 1:42: expected compute operand, found Eof"),
    ("(p x (a ^b 1) --> (modify", "parse error at 1:26: expected CE index after modify, found Eof"),
    ("(p x (a ^b 1) --> (modify 1", "parse error at 1:28: expected ')', found Eof"),
    ("(p x (a ^b 1) --> (remove 1", "parse error at 1:28: expected CE index after remove, found Eof"),
    ("(p x (a ^b 1) --> (write", "parse error at 1:25: expected constant, found Eof"),
    ("(p x (a ^b 1) --> (write (", "parse error at 1:27: expected (crlf), found Eof"),
    ("(p x (a ^b 1) --> (write (crlf", "parse error at 1:31: expected ')', found Eof"),
    ("(p x (a ^b 1) --> (bind", "parse error at 1:24: expected <var> after bind, found Eof"),
    ("(p x (a ^b 1) --> (bind <v>", "parse error at 1:28: expected constant, found Eof"),
    ("(p x (a ^b 1) --> (halt", "parse error at 1:24: expected ')', found Eof"),
    ("(p x (a ^b 1) --> (halt)", "parse error at 1:25: expected RHS action or ')', found Eof"),
    ("(literalize", "parse error at 1:12: expected symbol, found Eof"),
    ("(literalize a b", "parse error at 1:16: expected ')', found Eof"),
    ("(strategy", "parse error at 1:10: expected lex|mea, found Eof"),
    ("(strategy lex", "parse error at 1:14: expected ')', found Eof"),
    ("(make", "parse error at 1:6: expected symbol, found Eof"),
    ("(make a ^b", "parse error at 1:11: expected constant, found Eof"),
    ("(make a ^b 1", "parse error at 1:13: expected ^attr or ')' in top-level make, found Eof"),
    ("foo", "parse error at 1:1: expected top-level form, found Sym(\"foo\")"),
    ("(foo bar)", "parse error at 1:6: unknown top-level form (foo ...)"),
    ("(1 2)", "parse error at 1:4: expected form head, found Int(1)"),
    ("(strategy random)", "parse error at 1:17: unknown strategy random"),
    ("(p x --> (halt))", "parse error at 1:10: production has no condition elements"),
    ("(p x - (a ^b 1) --> (halt))", "parse error at 1:21: first condition element may not be negated"),
    ("(p x (a ^b {}) --> (halt))", "parse error at 1:14: empty conjunction {}"),
    ("(p x (a ^b << >>) --> (halt))", "parse error at 1:17: empty disjunction << >>"),
    ("(p x (a ^b << <v> >>) --> (halt))", "parse error at 1:19: expected constant, found Var(\"v\")"),
    ("(p x (a ^b 1) --> (make c ^d <nope>))", "parse error at 1:36: variable <nope> is not bound in the LHS"),
    ("(p x (a ^b 1) - (c ^d <v>) --> (make c ^d <v>))", "parse error at 1:46: variable <v> is not bound in the LHS"),
    ("(p x (a ^b 1) --> (explode))", "parse error at 1:27: unknown RHS action explode"),
    ("(p x (a ^b 1) --> (write (tab)))", "parse error at 1:30: expected (crlf), found Sym(\"tab\")"),
    ("(p x (a ^b <v>) --> (make a ^b (compute <v> + )))", "parse error at 1:47: expected compute operand, found RParen"),
    ("(p x (a ^b <v>) --> (make a ^b (plus <v> 1)))", "parse error at 1:38: expected (compute ...), found Sym(\"plus\")"),
    ("(make a ^b <v>)", "parse error at 1:15: expected constant, found Var(\"v\")"),
    ("(make a b)", "parse error at 1:9: expected ^attr or ')' in top-level make, found Sym(\"b\")"),
    ("(p x (a b) --> (halt))", "parse error at 1:9: expected ^attr or ')' in condition element, found Sym(\"b\")"),
    ("(foo) |abc", "lex error at 1:7: unterminated |symbol|"),
    ("(p x (a ^b 1) --> (explode))\n(p y (a ^b <v) --> (halt))", "lex error at 2:12: unterminated variable <v"),
    ("(p éλ中 (a ^b 1) --> (hált))", "parse error at 1:26: unknown RHS action hált"),
    ("; commént λ\n(p x (a ^ç §) --> (halt))", "lex error at 2:12: unexpected character '§'"),
    ("(make λ ^中 |é é| §)", "lex error at 1:18: unexpected character '§'"),
    ("(p x (a ^b <über) --> (halt))", "lex error at 1:12: unterminated variable <über"),
    ("\t(p x\t(a ^b 1) -->\t(oops))", "parse error at 1:25: unknown RHS action oops"),
    ("(p x\r\n  (a ^b 1)\r\n  -->\r\n  (oops))", "parse error at 4:8: unknown RHS action oops"),
    ("(p x (a ^b |two\nlines|) -->\n  (oops))", "parse error at 3:8: unknown RHS action oops"),
    ("(p x (a ^b 1) --> (halt))\n\n\n", "ok"),
    ("(p x (a ^b 1) --> (halt))\n\n\n(", "parse error at 4:2: expected form head, found Eof"),
    ("(make a ^b 99999999999999999999)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b -99999999999999999999)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b 1.5e-3)", "ok, made [(0, Float(0.0015))]"),
    ("(make a ^b 1e5)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b 12x12)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b 1.2.3)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b +5)", "ok, made [(0, Int(5))]"),
    ("(make a ^b -5x)", "ok, made [(0, Sym(sym#3))]"),
    ("(make a ^b 3.)", "ok, made [(0, Float(3.0))]"),
    ("(make a ^b .5)", "ok, made [(0, Float(0.5))]"),
    ("(make a ^b - 5)", "parse error at 1:14: expected constant, found Minus"),
    ("(p x (a ^b 12x12) --> (halt))", "ok"),
    ("(p x (a ^b <v>) --> (make a ^b (compute <v> +5)))", "parse error at 1:47: expected ')', found Int(5)"),
    ("(p x (a ^b <v>) --> (make a ^b (compute <v> -5)))", "parse error at 1:47: expected ')', found Int(-5)"),
];

#[test]
fn a_malformed_source_says_what_it_always_said() {
    let mut moved = String::new();
    for (src, want) in MALFORMED {
        let now = match Program::from_source(src) {
            Ok(p) if p.startup.is_empty() => "ok".to_string(),
            Ok(p) => format!("ok, made {:?}", p.startup[0].sets),
            Err(e) => e.to_string(),
        };
        if now != *want {
            let _ = writeln!(moved, "    ({src:?}, {now:?}), // was {want:?}");
        }
    }
    assert!(moved.is_empty(), "rows moved; now:\n{moved}");
}
