//! Recursive-descent parser for OPS5 source.
//!
//! Grammar (the subset exercised by the paper's programs):
//!
//! ```text
//! program    := form*
//! form       := (literalize class attr*) | (strategy lex|mea) | production
//! production := (p name ce+ --> action*)
//! ce         := [-] (class (^attr lhs-value)*)
//! lhs-value  := [pred] atom | { ([pred] atom)+ } | << const+ >>
//! action     := (make class (^attr rhs-expr)*)
//!             | (modify k (^attr rhs-expr)*)
//!             | (remove k+)
//!             | (write write-item*)
//!             | (bind <var> [rhs-expr])
//!             | (halt)
//! rhs-expr   := const | <var> | (compute operand (op operand)*)
//! ```
//!
//! Attribute names are resolved to field indices against the program's class
//! table during parsing; `modify`/`remove` indices are validated to refer to
//! positive condition elements and rewritten to 1-based positive-CE indices.
//!
//! The parser pulls tokens from the [`Lexer`] with one token of look-ahead
//! and copies none: a token borrows its text from the source. **Where it
//! interns is observable** — `Value::Sym(id)` feeds every memory key
//! downstream, so hash-line populations and conflict-set order follow the
//! ids — and fixed: a symbol is interned when the grammar consumes it as a
//! name or a constant (production and class names, `^attr`s, `<var>`s,
//! symbolic constants), in source order, and never as a keyword (`p`,
//! `literalize`, `make`, `compute`, `crlf`, `lex`, ...). `tests/golden.rs`
//! pins the resulting id order for the corpus and the generated programs.

use crate::ast::*;
use crate::error::{Ops5Error, Result};
use crate::fxhash::FxBuildHasher;
use crate::lexer::{Lexer, PredTok, TokKind, Token};
use crate::program::{Program, StartupWme, Strategy};
use crate::symbol::SymbolId;
use crate::value::{ArithOp, Pred, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Operators plus nested `(compute` forms one RHS expression may hold. An
/// expression is a tree of boxes that is parsed, dropped and evaluated by
/// recursion, so its depth has to be bounded by something smaller than a
/// thread's stack.
const MAX_EXPR_NODES: u32 = 256;

/// Scratch stacks the AST's vectors are filled on. None nests inside itself,
/// so each is empty whenever its vector starts; [`exact`] moves the elements
/// out into a vector allocated once, at its final size.
#[derive(Default)]
struct Scratch {
    lhs: Vec<CondElem>,
    tests: Vec<(u16, AttrTest)>,
    conj: Vec<ValueTest>,
    disj: Vec<Value>,
    rhs: Vec<Action>,
    sets: Vec<(u16, RhsExpr)>,
    items: Vec<WriteItem>,
    startup: Vec<(u16, Value)>,
}

fn exact<T>(scratch: &mut Vec<T>) -> Vec<T> {
    let mut v = Vec::with_capacity(scratch.len());
    v.append(scratch);
    v
}

struct Parser<'s, 'p> {
    lexer: Lexer<'s>,
    /// The one token of look-ahead.
    tok: Token<'s>,
    /// The first lexical error met; the look-ahead reads `Eof` from there on.
    lex_err: Option<Ops5Error>,
    prog: &'p mut Program,
    /// Variables visible to the RHS of the production being parsed.
    bound: HashSet<SymbolId, FxBuildHasher>,
    /// Operators and nested computes of the RHS expression being parsed.
    expr_nodes: u32,
    scratch: Scratch,
}

pub fn parse_into(prog: &mut Program, src: &str) -> Result<()> {
    let kind = TokKind::Eof;
    let mut p = Parser {
        lexer: Lexer::new(src),
        tok: Token { kind, at: 0 },
        lex_err: None,
        prog,
        bound: HashSet::default(),
        expr_nodes: 0,
        scratch: Scratch::default(),
    };
    p.tok = p.lex();
    let parsed = p.program();
    // A lexical error anywhere in the source outranks a parse error before
    // it, as when the whole source was lexed first: read on to the end.
    while p.tok.kind != TokKind::Eof {
        p.tok = p.lex();
    }
    match p.lex_err {
        Some(e) => Err(e),
        None => parsed,
    }
}

impl<'s> Parser<'s, '_> {
    fn lex(&mut self) -> Token<'s> {
        self.lexer.next_token().unwrap_or_else(|e| {
            self.lex_err = Some(e);
            Token {
                kind: TokKind::Eof,
                ..self.tok
            }
        })
    }

    fn peek(&self) -> TokKind<'s> {
        self.tok.kind
    }

    fn bump(&mut self) -> TokKind<'s> {
        let k = self.tok.kind;
        if k != TokKind::Eof {
            self.tok = self.lex();
        }
        k
    }

    /// An error at the look-ahead token (after a `bump`, the token that
    /// follows the one complained about).
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let (line, col) = self.lexer.line_col(self.tok.at);
        let msg = msg.into();
        Err(Ops5Error::Parse { line, col, msg })
    }

    fn expect_lparen(&mut self) -> Result<()> {
        match self.bump() {
            TokKind::LParen => Ok(()),
            other => self.err(format!("expected '(', found {other:?}")),
        }
    }

    fn expect_rparen(&mut self) -> Result<()> {
        match self.bump() {
            TokKind::RParen => Ok(()),
            other => self.err(format!("expected ')', found {other:?}")),
        }
    }

    fn intern(&mut self, name: &str) -> SymbolId {
        self.prog.symbols.intern(name)
    }

    fn sym(&mut self) -> Result<SymbolId> {
        match self.bump() {
            TokKind::Sym(s) => Ok(self.intern(s)),
            other => self.err(format!("expected symbol, found {other:?}")),
        }
    }

    fn program(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                TokKind::Eof => return Ok(()),
                TokKind::LParen => self.form()?,
                other => return self.err(format!("expected top-level form, found {other:?}")),
            }
        }
    }

    fn form(&mut self) -> Result<()> {
        self.expect_lparen()?;
        let head = match self.bump() {
            TokKind::Sym(s) => s,
            other => return self.err(format!("expected form head, found {other:?}")),
        };
        match head {
            "literalize" => {
                let class = self.sym()?;
                let mut attrs = Vec::new();
                while let TokKind::Sym(_) = self.peek() {
                    attrs.push(self.sym()?);
                }
                self.expect_rparen()?;
                self.prog.classes.literalize(class, &attrs);
                Ok(())
            }
            "strategy" => {
                let s = match self.bump() {
                    TokKind::Sym(s) => s,
                    other => return self.err(format!("expected lex|mea, found {other:?}")),
                };
                self.prog.strategy = match s {
                    "lex" => Strategy::Lex,
                    "mea" => Strategy::Mea,
                    _ => return self.err(format!("unknown strategy {s}")),
                };
                self.expect_rparen()
            }
            "p" => self.production(),
            "make" => self.startup_make(),
            other => self.err(format!("unknown top-level form ({other} ...)")),
        }
    }

    fn production(&mut self) -> Result<()> {
        let name = self.sym()?;
        loop {
            match self.peek() {
                TokKind::Arrow => {
                    self.bump();
                    break;
                }
                TokKind::Minus => {
                    self.bump();
                    let mut ce = self.cond_elem()?;
                    ce.negated = true;
                    self.scratch.lhs.push(ce);
                }
                TokKind::LParen => {
                    let ce = self.cond_elem()?;
                    self.scratch.lhs.push(ce);
                }
                other => {
                    return self.err(format!(
                        "expected condition element or -->, found {other:?}"
                    ))
                }
            }
        }
        let lhs = exact(&mut self.scratch.lhs);
        if lhs.is_empty() {
            return self.err("production has no condition elements");
        }
        if lhs[0].negated {
            return self.err("first condition element may not be negated");
        }

        // Variables visible to the RHS: those bound in positive CEs.
        self.bound.clear();
        for ce in lhs.iter().filter(|ce| !ce.negated) {
            for (_, t) in &ce.tests {
                if let AttrTest::Conj(ts) = t {
                    for vt in ts {
                        if let TestAtom::Var(v) = vt.atom {
                            if vt.pred.is_eq() {
                                self.bound.insert(v);
                            }
                        }
                    }
                }
            }
        }

        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::LParen => self.action(&lhs)?,
                other => return self.err(format!("expected RHS action or ')', found {other:?}")),
            }
        }
        let rhs = exact(&mut self.scratch.rhs);
        Arc::make_mut(&mut self.prog.productions).push(Production { name, lhs, rhs });
        Ok(())
    }

    /// `^attr` of `class`, the look-ahead: the attribute's field index.
    fn field(&mut self, class: SymbolId, attr: &str) -> Result<u16> {
        self.bump();
        let attr = self.intern(attr);
        self.prog.classes.resolve(class, attr)
    }

    /// Top-level `(make class ^attr const ...)`: initial working memory.
    fn startup_make(&mut self) -> Result<()> {
        let class = self.sym()?;
        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::Attr(a) => {
                    let field = self.field(class, a)?;
                    let v = self.const_value()?;
                    self.scratch.startup.push((field, v));
                }
                other => {
                    return self.err(format!(
                        "expected ^attr or ')' in top-level make, found {other:?}"
                    ))
                }
            }
        }
        let sets = exact(&mut self.scratch.startup);
        self.prog.startup.push(StartupWme { class, sets });
        Ok(())
    }

    fn cond_elem(&mut self) -> Result<CondElem> {
        self.expect_lparen()?;
        let class = self.sym()?;
        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::Attr(a) => {
                    let field = self.field(class, a)?;
                    let test = self.lhs_value()?;
                    self.scratch.tests.push((field, test));
                }
                other => {
                    return self.err(format!(
                        "expected ^attr or ')' in condition element, found {other:?}"
                    ))
                }
            }
        }
        Ok(CondElem {
            class,
            negated: false,
            tests: exact(&mut self.scratch.tests),
        })
    }

    fn lhs_value(&mut self) -> Result<AttrTest> {
        match self.peek() {
            TokKind::LBrace => {
                self.bump();
                while self.peek() != TokKind::RBrace {
                    let vt = self.value_test()?;
                    self.scratch.conj.push(vt);
                }
                self.bump();
                if self.scratch.conj.is_empty() {
                    return self.err("empty conjunction {}");
                }
                Ok(AttrTest::Conj(exact(&mut self.scratch.conj)))
            }
            TokKind::LDisj => {
                self.bump();
                while self.peek() != TokKind::RDisj {
                    let v = self.const_value()?;
                    self.scratch.disj.push(v);
                }
                self.bump();
                if self.scratch.disj.is_empty() {
                    return self.err("empty disjunction << >>");
                }
                Ok(AttrTest::Disj(exact(&mut self.scratch.disj)))
            }
            _ => Ok(AttrTest::Conj(vec![self.value_test()?])),
        }
    }

    fn value_test(&mut self) -> Result<ValueTest> {
        let pred = match self.peek() {
            TokKind::Pred(p) => {
                self.bump();
                match p {
                    PredTok::Eq => Pred::Eq,
                    PredTok::Ne => Pred::Ne,
                    PredTok::Lt => Pred::Lt,
                    PredTok::Le => Pred::Le,
                    PredTok::Gt => Pred::Gt,
                    PredTok::Ge => Pred::Ge,
                    PredTok::SameType => Pred::SameType,
                }
            }
            _ => Pred::Eq,
        };
        let atom = match self.peek() {
            TokKind::Var(v) => {
                self.bump();
                TestAtom::Var(self.intern(v))
            }
            TokKind::Sym(_) | TokKind::Int(_) | TokKind::Float(_) => {
                TestAtom::Const(self.const_value()?)
            }
            other => {
                self.bump();
                return self.err(format!("expected test atom, found {other:?}"));
            }
        };
        Ok(ValueTest { pred, atom })
    }

    fn const_value(&mut self) -> Result<Value> {
        match self.bump() {
            TokKind::Sym(s) => Ok(Value::Sym(self.intern(s))),
            TokKind::Int(i) => Ok(Value::Int(i)),
            TokKind::Float(x) => Ok(Value::Float(x)),
            other => self.err(format!("expected constant, found {other:?}")),
        }
    }

    /// Maps a 1-based index over *all* CEs to a 1-based positive-CE index,
    /// erroring on negated or out-of-range references.
    fn resolve_ce_index(&self, lhs: &[CondElem], k: i64, what: &str) -> Result<(u16, SymbolId)> {
        if k < 1 || k as usize > lhs.len() {
            return self.err(format!(
                "{what} references condition element {k}, but LHS has {} elements",
                lhs.len()
            ));
        }
        let idx = (k - 1) as usize;
        if lhs[idx].negated {
            return self.err(format!("{what} references negated condition element {k}"));
        }
        let pos = lhs[..=idx].iter().filter(|ce| !ce.negated).count() as u16;
        Ok((pos, lhs[idx].class))
    }

    fn action(&mut self, lhs: &[CondElem]) -> Result<()> {
        self.expect_lparen()?;
        let head = match self.bump() {
            TokKind::Sym(s) => s,
            other => return self.err(format!("expected action head, found {other:?}")),
        };
        let action = match head {
            "make" => {
                let class = self.sym()?;
                let sets = self.rhs_sets(class)?;
                self.expect_rparen()?;
                Action::Make { class, sets }
            }
            "modify" => {
                let k = match self.bump() {
                    TokKind::Int(i) => i,
                    other => {
                        return self.err(format!("expected CE index after modify, found {other:?}"))
                    }
                };
                let (ce, class) = self.resolve_ce_index(lhs, k, "modify")?;
                let sets = self.rhs_sets(class)?;
                self.expect_rparen()?;
                Action::Modify { ce, sets }
            }
            "remove" => {
                // OPS5 remove takes one or more CE indices; desugar into one
                // Remove action per index.
                let mut any = false;
                loop {
                    match self.peek() {
                        TokKind::Int(k) => {
                            self.bump();
                            let (ce, _) = self.resolve_ce_index(lhs, k, "remove")?;
                            self.scratch.rhs.push(Action::Remove { ce });
                            any = true;
                        }
                        TokKind::RParen => {
                            self.bump();
                            break;
                        }
                        other => {
                            return self
                                .err(format!("expected CE index after remove, found {other:?}"))
                        }
                    }
                }
                if !any {
                    return self.err("remove needs at least one CE index");
                }
                return Ok(());
            }
            "write" => {
                loop {
                    let item = match self.peek() {
                        TokKind::RParen => break,
                        TokKind::LParen => {
                            self.bump();
                            match self.bump() {
                                TokKind::Sym("crlf") => {}
                                other => {
                                    return self.err(format!("expected (crlf), found {other:?}"))
                                }
                            }
                            self.expect_rparen()?;
                            WriteItem::Crlf
                        }
                        TokKind::Var(v) => WriteItem::Value(RhsValue::Var(self.bound_var(v)?)),
                        _ => WriteItem::Value(RhsValue::Const(self.const_value()?)),
                    };
                    self.scratch.items.push(item);
                }
                self.bump();
                let items = exact(&mut self.scratch.items);
                Action::Write { items }
            }
            "bind" => {
                let var = match self.bump() {
                    TokKind::Var(v) => self.intern(v),
                    other => {
                        return self.err(format!("expected <var> after bind, found {other:?}"))
                    }
                };
                let expr = if self.peek() == TokKind::RParen {
                    None
                } else {
                    Some(self.rhs_expr()?)
                };
                self.expect_rparen()?;
                self.bound.insert(var);
                Action::Bind { var, expr }
            }
            "halt" => {
                self.expect_rparen()?;
                Action::Halt
            }
            other => return self.err(format!("unknown RHS action {other}")),
        };
        self.scratch.rhs.push(action);
        Ok(())
    }

    fn rhs_sets(&mut self, class: SymbolId) -> Result<Vec<(u16, RhsExpr)>> {
        while let TokKind::Attr(a) = self.peek() {
            let field = self.field(class, a)?;
            let expr = self.rhs_expr()?;
            self.scratch.sets.push((field, expr));
        }
        Ok(exact(&mut self.scratch.sets))
    }

    /// `<v>`, the look-ahead, as an RHS reference: it must be bound.
    fn bound_var(&mut self, v: &str) -> Result<SymbolId> {
        self.bump();
        let v = self.intern(v);
        if self.bound.contains(&v) {
            Ok(v)
        } else {
            self.err(format!(
                "variable <{}> is not bound in the LHS",
                self.prog.symbols.name(v)
            ))
        }
    }

    /// One whole RHS expression (an attribute's value, a `bind`'s).
    fn rhs_expr(&mut self) -> Result<RhsExpr> {
        self.expr_nodes = 0;
        self.rhs_operand()
    }

    /// Counts one operator or nested compute of the expression being parsed.
    fn expr_node(&mut self) -> Result<()> {
        self.expr_nodes += 1;
        if self.expr_nodes > MAX_EXPR_NODES {
            return self.err(format!(
                "expression has more than {MAX_EXPR_NODES} operators and nested computes"
            ));
        }
        Ok(())
    }

    fn rhs_operand(&mut self) -> Result<RhsExpr> {
        match self.peek() {
            TokKind::LParen => {
                self.bump();
                match self.bump() {
                    TokKind::Sym("compute") => {}
                    other => return self.err(format!("expected (compute ...), found {other:?}")),
                }
                self.expr_node()?;
                let e = self.compute_body()?;
                self.expect_rparen()?;
                Ok(e)
            }
            TokKind::Var(v) => Ok(RhsExpr::Var(self.bound_var(v)?)),
            _ => Ok(RhsExpr::Const(self.const_value()?)),
        }
    }

    /// `operand (op operand)*`, left-associative. Operators are the symbols
    /// `+`, `*`, `//`, `\\` and the `Minus` token.
    fn compute_body(&mut self) -> Result<RhsExpr> {
        let mut acc = self.compute_operand()?;
        loop {
            let op = match self.peek() {
                TokKind::Minus => ArithOp::Sub,
                TokKind::Sym("+") => ArithOp::Add,
                TokKind::Sym("*") => ArithOp::Mul,
                TokKind::Sym("//") => ArithOp::Div,
                TokKind::Sym("\\\\" | "\\") => ArithOp::Mod,
                _ => return Ok(acc),
            };
            self.bump();
            self.expr_node()?;
            let rhs = self.compute_operand()?;
            acc = RhsExpr::Arith(op, Box::new(acc), Box::new(rhs));
        }
    }

    fn compute_operand(&mut self) -> Result<RhsExpr> {
        match self.peek() {
            TokKind::Var(_) | TokKind::Int(_) | TokKind::Float(_) | TokKind::LParen => {
                self.rhs_operand()
            }
            other => self.err(format!("expected compute operand, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Action, AttrTest, TestAtom};

    fn parse(src: &str) -> Program {
        Program::from_source(src).expect("parse failed")
    }

    #[test]
    fn figure_2_1_sample_production() {
        // The paper's Figure 2-1.
        let p = parse(
            "(p find-colored-block
               (goal ^type find-block ^color <c>)
               (block ^id <i> ^color <c> ^selected no)
               -->
               (modify 2 ^selected yes))",
        );
        assert_eq!(p.productions.len(), 1);
        let prod = &p.productions[0];
        assert_eq!(p.symbols.name(prod.name), "find-colored-block");
        assert_eq!(prod.lhs.len(), 2);
        assert_eq!(prod.positive_ces(), 2);
        match &prod.rhs[0] {
            Action::Modify { ce, sets } => {
                assert_eq!(*ce, 2);
                assert_eq!(sets.len(), 1);
            }
            other => panic!("expected modify, got {other:?}"),
        }
    }

    #[test]
    fn figure_2_2_productions_parse() {
        // The paper's Figure 2-2 p1/p2.
        let p = parse(
            "(p p1 (C1 ^attr1 <x> ^attr2 12)
                   (C2 ^attr1 15 ^attr2 <x>)
                 - (C3 ^attr1 <x>)
               -->
               (remove 2))
             (p p2 (C2 ^attr1 15 ^attr2 <y>)
                   (C4 ^attr1 <y>)
               -->
               (modify 1 ^attr1 12))",
        );
        assert_eq!(p.productions.len(), 2);
        let p1 = &p.productions[0];
        assert!(p1.lhs[2].negated);
        assert_eq!(p1.positive_ces(), 2);
    }

    #[test]
    fn negated_ce_index_rejected_in_remove() {
        let r = Program::from_source("(p bad (a ^x 1) - (b ^y 2) --> (remove 2))");
        assert!(r.is_err());
    }

    #[test]
    fn ce_index_maps_past_negated_elements() {
        let p = parse("(p ok (a ^x 1) - (b ^y 2) (c ^z <v>) --> (modify 3 ^z nil))");
        match &p.productions[0].rhs[0] {
            // CE 3 in source is the 2nd positive CE.
            Action::Modify { ce, .. } => assert_eq!(*ce, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbound_rhs_variable_rejected() {
        assert!(Program::from_source("(p bad (a ^x 1) --> (make b ^y <nope>))").is_err());
    }

    #[test]
    fn variable_bound_only_in_negated_ce_rejected_in_rhs() {
        assert!(Program::from_source("(p bad (a ^x 1) - (b ^y <v>) --> (make c ^z <v>))").is_err());
    }

    #[test]
    fn bind_introduces_variable() {
        let p = parse("(p ok (a ^x <v>) --> (bind <w> (compute <v> + 1)) (make b ^y <w>))");
        assert_eq!(p.productions[0].rhs.len(), 2);
    }

    #[test]
    fn conjunction_and_disjunction() {
        let p = parse("(p ok (a ^x { > 2 < 5 } ^y << red green >>) --> (halt))");
        let ce = &p.productions[0].lhs[0];
        match &ce.tests[0].1 {
            AttrTest::Conj(ts) => assert_eq!(ts.len(), 2),
            other => panic!("{other:?}"),
        }
        match &ce.tests[1].1 {
            AttrTest::Disj(vs) => assert_eq!(vs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_with_variable() {
        let p = parse("(p ok (a ^x <v>) (b ^y < <v>) --> (halt))");
        let ce = &p.productions[0].lhs[1];
        match &ce.tests[0].1 {
            AttrTest::Conj(ts) => {
                assert_eq!(ts[0].pred, Pred::Lt);
                assert!(matches!(ts[0].atom, TestAtom::Var(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strategy_directive() {
        let p = parse("(strategy mea) (p ok (a ^x 1) --> (halt))");
        assert_eq!(p.strategy, Strategy::Mea);
    }

    #[test]
    fn literalize_fixes_layout() {
        let p = parse("(literalize goal type color) (p ok (goal ^color red) --> (halt))");
        let ce = &p.productions[0].lhs[0];
        assert_eq!(ce.tests[0].0, 1, "color is field 1 after literalize");
    }

    #[test]
    fn first_ce_negated_rejected() {
        assert!(Program::from_source("(p bad - (a ^x 1) --> (halt))").is_err());
    }

    #[test]
    fn compute_left_assoc() {
        let p = parse("(p ok (a ^x <v>) --> (make b ^y (compute <v> + 1 * 2)))");
        match &p.productions[0].rhs[0] {
            Action::Make { sets, .. } => match &sets[0].1 {
                RhsExpr::Arith(ArithOp::Mul, l, _) => {
                    assert!(matches!(**l, RhsExpr::Arith(ArithOp::Add, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_remove_desugars() {
        let p = parse("(p q (a ^x 1) (b ^y 2) --> (remove 1 2))");
        let rhs = &p.productions[0].rhs;
        assert_eq!(rhs.len(), 2);
        assert_eq!(rhs[0], Action::Remove { ce: 1 });
        assert_eq!(rhs[1], Action::Remove { ce: 2 });
    }

    #[test]
    fn empty_remove_rejected() {
        assert!(Program::from_source("(p q (a ^x 1) --> (remove))").is_err());
    }

    #[test]
    fn top_level_make_startup() {
        let p = parse(
            "(literalize goal type color)
             (make goal ^type find ^color red)
             (make goal ^color blue)
             (p q (goal ^type find) --> (halt))",
        );
        assert_eq!(p.startup.len(), 2);
        assert_eq!(p.startup[0].sets.len(), 2);
        assert_eq!(p.startup[0].sets[0].0, 0, "type is field 0");
        assert_eq!(p.startup[1].sets[0].0, 1, "color is field 1");
    }

    #[test]
    fn top_level_make_rejects_variables() {
        assert!(Program::from_source("(make goal ^x <v>)").is_err());
    }

    #[test]
    fn write_action() {
        let p = parse("(p ok (a ^x <v>) --> (write solved <v> (crlf)))");
        match &p.productions[0].rhs[0] {
            Action::Write { items } => {
                assert_eq!(items.len(), 3);
                assert!(matches!(items[2], WriteItem::Crlf));
            }
            other => panic!("{other:?}"),
        }
    }
}
