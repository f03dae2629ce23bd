//! Pretty-printer: renders parsed programs back to OPS5 source.
//!
//! This is OPS5's `pm` (print production) facility. The output reparses to
//! an identical AST — checked by roundtrip tests here and property tests at
//! the workspace root — which makes it usable for program transformation
//! tooling (the Tourney "fix" experiment is exactly such a transformation).

use crate::ast::{Action, AttrTest, CondElem, Production, RhsExpr, TestAtom, WriteItem};
use crate::program::{ClassTable, Program};
use crate::symbol::{SymbolId, SymbolTable};
use crate::value::{ArithOp, Pred, Value};
use std::fmt::Write;

fn pred_str(p: Pred) -> &'static str {
    match p {
        Pred::Eq => "",
        Pred::Ne => "<> ",
        Pred::Lt => "< ",
        Pred::Le => "<= ",
        Pred::Gt => "> ",
        Pred::Ge => ">= ",
        Pred::SameType => "<=> ",
    }
}

fn val_str(v: Value, syms: &SymbolTable) -> String {
    match v {
        Value::Sym(s) => syms.name(s).to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            // Keep a trailing .0 so the token relexes as a float.
            let s = f.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
    }
}

fn atom_str(a: &TestAtom, syms: &SymbolTable) -> String {
    match a {
        TestAtom::Const(v) => val_str(*v, syms),
        TestAtom::Var(v) => format!("<{}>", syms.name(*v)),
    }
}

fn attr_name(classes: &ClassTable, class: SymbolId, field: u16, syms: &SymbolTable) -> String {
    classes
        .info(class)
        .and_then(|i| i.attrs.get(field as usize))
        .map(|a| syms.name(*a).to_string())
        .unwrap_or_else(|| format!("f{field}"))
}

/// Renders one condition element.
pub fn print_ce(ce: &CondElem, syms: &SymbolTable, classes: &ClassTable) -> String {
    let mut s = String::new();
    if ce.negated {
        s.push_str("- ");
    }
    let _ = write!(s, "({}", syms.name(ce.class));
    for (field, test) in &ce.tests {
        let _ = write!(s, " ^{} ", attr_name(classes, ce.class, *field, syms));
        match test {
            AttrTest::Disj(vs) => {
                s.push_str("<< ");
                for v in vs {
                    let _ = write!(s, "{} ", val_str(*v, syms));
                }
                s.push_str(">>");
            }
            AttrTest::Conj(ts) if ts.len() == 1 => {
                let _ = write!(s, "{}{}", pred_str(ts[0].pred), atom_str(&ts[0].atom, syms));
            }
            AttrTest::Conj(ts) => {
                s.push_str("{ ");
                for t in ts {
                    let _ = write!(s, "{}{} ", pred_str(t.pred), atom_str(&t.atom, syms));
                }
                s.push('}');
            }
        }
    }
    s.push(')');
    s
}

fn expr_str(e: &RhsExpr, syms: &SymbolTable) -> String {
    fn operand(e: &RhsExpr, syms: &SymbolTable) -> String {
        match e {
            RhsExpr::Const(v) => val_str(*v, syms),
            RhsExpr::Var(v) => format!("<{}>", syms.name(*v)),
            RhsExpr::Arith(..) => format!("({})", compute_body(e, syms)),
        }
    }
    fn compute_body(e: &RhsExpr, syms: &SymbolTable) -> String {
        match e {
            RhsExpr::Arith(op, a, b) => {
                let ops = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "//",
                    ArithOp::Mod => "\\",
                };
                format!("compute {} {} {}", inner(a, syms), ops, inner(b, syms))
            }
            other => operand(other, syms),
        }
    }
    fn inner(e: &RhsExpr, syms: &SymbolTable) -> String {
        match e {
            RhsExpr::Arith(..) => format!("({})", compute_body(e, syms)),
            other => operand(other, syms),
        }
    }
    match e {
        RhsExpr::Arith(..) => format!("({})", compute_body(e, syms)),
        other => operand(other, syms),
    }
}

/// The 1-based all-CE index of the `n`-th positive CE (inverts the parser's
/// positive-index resolution so `modify`/`remove` print with the source
/// numbering).
fn source_ce_index(prod: &Production, positive_1based: u16) -> usize {
    let mut pos = 0u16;
    for (i, ce) in prod.lhs.iter().enumerate() {
        if !ce.negated {
            pos += 1;
            if pos == positive_1based {
                return i + 1;
            }
        }
    }
    positive_1based as usize
}

/// Renders one action.
pub fn print_action(
    action: &Action,
    prod: &Production,
    syms: &SymbolTable,
    classes: &ClassTable,
) -> String {
    let mut s = String::new();
    match action {
        Action::Make { class, sets } => {
            let _ = write!(s, "(make {}", syms.name(*class));
            for (field, e) in sets {
                let _ = write!(
                    s,
                    " ^{} {}",
                    attr_name(classes, *class, *field, syms),
                    expr_str(e, syms)
                );
            }
            s.push(')');
        }
        Action::Modify { ce, sets } => {
            let class = prod
                .lhs
                .iter()
                .filter(|c| !c.negated)
                .nth(*ce as usize - 1)
                .map(|c| c.class)
                .unwrap_or(SymbolId::NIL);
            let _ = write!(s, "(modify {}", source_ce_index(prod, *ce));
            for (field, e) in sets {
                let _ = write!(
                    s,
                    " ^{} {}",
                    attr_name(classes, class, *field, syms),
                    expr_str(e, syms)
                );
            }
            s.push(')');
        }
        Action::Remove { ce } => {
            let _ = write!(s, "(remove {})", source_ce_index(prod, *ce));
        }
        Action::Write { items } => {
            s.push_str("(write");
            for item in items {
                match item {
                    WriteItem::Crlf => s.push_str(" (crlf)"),
                    WriteItem::Value(crate::ast::RhsValue::Const(v)) => {
                        let _ = write!(s, " {}", val_str(*v, syms));
                    }
                    WriteItem::Value(crate::ast::RhsValue::Var(v)) => {
                        let _ = write!(s, " <{}>", syms.name(*v));
                    }
                }
            }
            s.push(')');
        }
        Action::Bind { var, expr } => match expr {
            Some(e) => {
                let _ = write!(s, "(bind <{}> {})", syms.name(*var), expr_str(e, syms));
            }
            None => {
                let _ = write!(s, "(bind <{}>)", syms.name(*var));
            }
        },
        Action::Halt => s.push_str("(halt)"),
    }
    s
}

/// Renders a whole production (OPS5 `pm`).
pub fn print_production(prod: &Production, syms: &SymbolTable, classes: &ClassTable) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "(p {}", syms.name(prod.name));
    for ce in &prod.lhs {
        let _ = writeln!(s, "  {}", print_ce(ce, syms, classes));
    }
    s.push_str("  -->\n");
    for a in &prod.rhs {
        let _ = writeln!(s, "  {}", print_action(a, prod, syms, classes));
    }
    // Close the production on the last line.
    let trimmed = s.trim_end().to_string();
    format!("{trimmed})\n")
}

/// Renders a whole program: literalize declarations, strategy, productions.
pub fn print_program(prog: &Program) -> String {
    let mut s = String::new();
    // Literalize every class so the field layout survives the roundtrip.
    let mut classes: Vec<_> = prog.classes.classes().collect();
    classes.sort_by_key(|(c, _)| c.0);
    for (class, info) in classes {
        if info.attrs.is_empty() {
            continue;
        }
        let _ = write!(s, "(literalize {}", prog.symbols.name(*class));
        for a in &info.attrs {
            let _ = write!(s, " {}", prog.symbols.name(*a));
        }
        s.push_str(")\n");
    }
    if prog.strategy == crate::program::Strategy::Mea {
        s.push_str("(strategy mea)\n");
    }
    for m in &prog.startup {
        let _ = write!(s, "(make {}", prog.symbols.name(m.class));
        for (field, v) in &m.sets {
            let _ = write!(
                s,
                " ^{} {}",
                attr_name(&prog.classes, m.class, *field, &prog.symbols),
                val_str(*v, &prog.symbols)
            );
        }
        s.push_str(")\n");
    }
    for p in prog.productions.iter() {
        s.push_str(&print_production(p, &prog.symbols, &prog.classes));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let p1 = Program::from_source(src).unwrap();
        let printed = print_program(&p1);
        let p2 = Program::from_source(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(
            p1.productions.len(),
            p2.productions.len(),
            "production count changed:\n{printed}"
        );
        // Structural equality of productions modulo symbol ids: compare by
        // re-printing (print is a function of structure + names).
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printing is not a fixpoint");
    }

    #[test]
    fn roundtrip_startup_makes() {
        roundtrip(
            "(literalize goal type color)
             (make goal ^type find ^color red)
             (p q (goal ^type find) --> (halt))",
        );
        let p = Program::from_source("(make a ^x 1)").unwrap();
        let printed = print_program(&p);
        let p2 = Program::from_source(&printed).unwrap();
        assert_eq!(p.startup, p2.startup);
    }

    #[test]
    fn roundtrip_figure_2_1() {
        roundtrip(
            "(p find-colored-block
               (goal ^type find-block ^color <c>)
               (block ^id <i> ^color <c> ^selected no)
               -->
               (modify 2 ^selected yes))",
        );
    }

    #[test]
    fn roundtrip_negation_and_predicates() {
        roundtrip(
            "(p q (a ^x <v> ^y { > 2 <= 10 } ^z << red green 3 >>)
                - (b ^w <> <v>)
                (c ^u >= <v>)
               -->
               (remove 3)
               (halt))",
        );
    }

    #[test]
    fn roundtrip_rhs_forms() {
        roundtrip(
            "(p q (a ^x <v>)
               -->
               (bind <w> (compute <v> + 1 * 2))
               (bind <g>)
               (make b ^y <w> ^z (compute <v> - 1))
               (write done <v> (crlf))
               (modify 1 ^x 0))",
        );
    }

    #[test]
    fn roundtrip_mea_and_floats() {
        roundtrip(
            "(strategy mea)
             (p q (a ^x 1.5 ^y -2.25) --> (make b ^z 3.0))",
        );
    }

    #[test]
    fn roundtrip_generated_workload_sources() {
        // The printer must handle everything our generators emit.
        // (A smaller weaver so the test stays fast.)
        let p1 = Program::from_source(
            "(literalize cell id x y layer state wire)
             (p expand (phase ^name expand ^net <n>) (wave ^net <n> ^cell <c> ^dist <d>)
               --> (make wave ^net <n> ^cell <c> ^dist (compute <d> + 1)))",
        )
        .unwrap();
        let printed = print_program(&p1);
        Program::from_source(&printed).unwrap();
    }

    #[test]
    fn modify_index_counts_all_ces() {
        // Positive CE 2 sits after a negated CE: the printed index must be
        // the all-CE index (3).
        let src = "(p q (a ^x 1) - (b ^y 2) (c ^z <v>) --> (modify 3 ^z nil))";
        let p = Program::from_source(src).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("(modify 3"), "{printed}");
        roundtrip(src);
    }
}
