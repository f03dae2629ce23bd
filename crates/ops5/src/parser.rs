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

use crate::ast::*;
use crate::error::{Ops5Error, Result};
use crate::lexer::{lex, PredTok, TokKind, Token};
use crate::program::{Program, Strategy};
use crate::symbol::SymbolId;
use crate::value::{ArithOp, Pred, Value};
use std::collections::HashSet;
use std::sync::Arc;

struct Parser<'a> {
    toks: Vec<Token>,
    pos: usize,
    prog: &'a mut Program,
}

pub fn parse_into(prog: &mut Program, src: &str) -> Result<()> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, prog };
    p.program()
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokKind {
        &self.toks[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        (t.line, t.col)
    }

    fn bump(&mut self) -> TokKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let (line, col) = self.here();
        Err(Ops5Error::Parse {
            line,
            col,
            msg: msg.into(),
        })
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

    fn sym(&mut self) -> Result<SymbolId> {
        match self.bump() {
            TokKind::Sym(s) => Ok(self.prog.symbols.intern(&s)),
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
        match head.as_str() {
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
                self.prog.strategy = match s.as_str() {
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
        let mut lhs: Vec<CondElem> = Vec::new();
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
                    lhs.push(ce);
                }
                TokKind::LParen => {
                    lhs.push(self.cond_elem()?);
                }
                other => {
                    return self.err(format!(
                        "expected condition element or -->, found {other:?}"
                    ))
                }
            }
        }
        if lhs.is_empty() {
            return self.err("production has no condition elements");
        }
        if lhs[0].negated {
            return self.err("first condition element may not be negated");
        }

        // Variables visible to the RHS: those bound in positive CEs.
        let mut bound: HashSet<SymbolId> = HashSet::new();
        for ce in lhs.iter().filter(|ce| !ce.negated) {
            for (_, t) in &ce.tests {
                if let AttrTest::Conj(ts) = t {
                    for vt in ts {
                        if let TestAtom::Var(v) = vt.atom {
                            if vt.pred.is_eq() {
                                bound.insert(v);
                            }
                        }
                    }
                }
            }
        }

        let mut rhs = Vec::new();
        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::LParen => self.action(&lhs, &mut bound, &mut rhs)?,
                other => return self.err(format!("expected RHS action or ')', found {other:?}")),
            }
        }
        Arc::make_mut(&mut self.prog.productions).push(Production { name, lhs, rhs });
        Ok(())
    }

    /// Top-level `(make class ^attr const ...)`: initial working memory.
    fn startup_make(&mut self) -> Result<()> {
        let class = self.sym()?;
        let mut sets = Vec::new();
        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::Attr(_) => {
                    let attr = match self.bump() {
                        TokKind::Attr(a) => self.prog.symbols.intern(&a),
                        _ => unreachable!(),
                    };
                    let field = self.prog.classes.resolve(class, attr)?;
                    let v = self.const_value()?;
                    sets.push((field, v));
                }
                other => {
                    return self.err(format!(
                        "expected ^attr or ')' in top-level make, found {other:?}"
                    ))
                }
            }
        }
        self.prog
            .startup
            .push(crate::program::StartupWme { class, sets });
        Ok(())
    }

    fn cond_elem(&mut self) -> Result<CondElem> {
        self.expect_lparen()?;
        let class = self.sym()?;
        let mut tests = Vec::new();
        loop {
            match self.peek() {
                TokKind::RParen => {
                    self.bump();
                    break;
                }
                TokKind::Attr(_) => {
                    let attr = match self.bump() {
                        TokKind::Attr(a) => self.prog.symbols.intern(&a),
                        _ => unreachable!(),
                    };
                    let field = self.prog.classes.resolve(class, attr)?;
                    let test = self.lhs_value()?;
                    tests.push((field, test));
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
            tests,
        })
    }

    fn lhs_value(&mut self) -> Result<AttrTest> {
        match self.peek() {
            TokKind::LBrace => {
                self.bump();
                let mut ts = Vec::new();
                loop {
                    if matches!(self.peek(), TokKind::RBrace) {
                        self.bump();
                        break;
                    }
                    ts.push(self.value_test()?);
                }
                if ts.is_empty() {
                    return self.err("empty conjunction {}");
                }
                Ok(AttrTest::Conj(ts))
            }
            TokKind::LDisj => {
                self.bump();
                let mut vs = Vec::new();
                loop {
                    match self.peek() {
                        TokKind::RDisj => {
                            self.bump();
                            break;
                        }
                        _ => vs.push(self.const_value()?),
                    }
                }
                if vs.is_empty() {
                    return self.err("empty disjunction << >>");
                }
                Ok(AttrTest::Disj(vs))
            }
            _ => Ok(AttrTest::Conj(vec![self.value_test()?])),
        }
    }

    fn value_test(&mut self) -> Result<ValueTest> {
        let pred = match self.peek() {
            TokKind::Pred(p) => {
                let p = *p;
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
        let atom = match self.bump() {
            TokKind::Var(v) => TestAtom::Var(self.prog.symbols.intern(&v)),
            TokKind::Sym(s) => TestAtom::Const(Value::Sym(self.prog.symbols.intern(&s))),
            TokKind::Int(i) => TestAtom::Const(Value::Int(i)),
            TokKind::Float(x) => TestAtom::Const(Value::Float(x)),
            other => return self.err(format!("expected test atom, found {other:?}")),
        };
        Ok(ValueTest { pred, atom })
    }

    fn const_value(&mut self) -> Result<Value> {
        match self.bump() {
            TokKind::Sym(s) => Ok(Value::Sym(self.prog.symbols.intern(&s))),
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

    fn action(
        &mut self,
        lhs: &[CondElem],
        bound: &mut HashSet<SymbolId>,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        self.expect_lparen()?;
        let head = match self.bump() {
            TokKind::Sym(s) => s,
            other => return self.err(format!("expected action head, found {other:?}")),
        };
        match head.as_str() {
            "make" => {
                let class = self.sym()?;
                let sets = self.rhs_sets(class, bound)?;
                self.expect_rparen()?;
                out.push(Action::Make { class, sets });
                Ok(())
            }
            "modify" => {
                let k = match self.bump() {
                    TokKind::Int(i) => i,
                    other => {
                        return self.err(format!("expected CE index after modify, found {other:?}"))
                    }
                };
                let (pos, class) = self.resolve_ce_index(lhs, k, "modify")?;
                let sets = self.rhs_sets(class, bound)?;
                self.expect_rparen()?;
                out.push(Action::Modify { ce: pos, sets });
                Ok(())
            }
            "remove" => {
                // OPS5 remove takes one or more CE indices; desugar into one
                // Remove action per index.
                let mut any = false;
                loop {
                    match self.peek() {
                        TokKind::Int(_) => {
                            let k = match self.bump() {
                                TokKind::Int(i) => i,
                                _ => unreachable!(),
                            };
                            let (pos, _) = self.resolve_ce_index(lhs, k, "remove")?;
                            out.push(Action::Remove { ce: pos });
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
                Ok(())
            }
            "write" => {
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        TokKind::RParen => {
                            self.bump();
                            break;
                        }
                        TokKind::LParen => {
                            self.bump();
                            match self.bump() {
                                TokKind::Sym(s) if s == "crlf" => {}
                                other => {
                                    return self.err(format!("expected (crlf), found {other:?}"))
                                }
                            }
                            self.expect_rparen()?;
                            items.push(WriteItem::Crlf);
                        }
                        TokKind::Var(_) => {
                            let v = match self.bump() {
                                TokKind::Var(v) => self.prog.symbols.intern(&v),
                                _ => unreachable!(),
                            };
                            self.check_bound(v, bound)?;
                            items.push(WriteItem::Value(RhsValue::Var(v)));
                        }
                        _ => items.push(WriteItem::Value(RhsValue::Const(self.const_value()?))),
                    }
                }
                out.push(Action::Write { items });
                Ok(())
            }
            "bind" => {
                let var = match self.bump() {
                    TokKind::Var(v) => self.prog.symbols.intern(&v),
                    other => {
                        return self.err(format!("expected <var> after bind, found {other:?}"))
                    }
                };
                let expr = if matches!(self.peek(), TokKind::RParen) {
                    None
                } else {
                    Some(self.rhs_expr(bound)?)
                };
                self.expect_rparen()?;
                bound.insert(var);
                out.push(Action::Bind { var, expr });
                Ok(())
            }
            "halt" => {
                self.expect_rparen()?;
                out.push(Action::Halt);
                Ok(())
            }
            other => self.err(format!("unknown RHS action {other}")),
        }
    }

    fn rhs_sets(
        &mut self,
        class: SymbolId,
        bound: &HashSet<SymbolId>,
    ) -> Result<Vec<(u16, RhsExpr)>> {
        let mut sets = Vec::new();
        while let TokKind::Attr(_) = self.peek() {
            let attr = match self.bump() {
                TokKind::Attr(a) => self.prog.symbols.intern(&a),
                _ => unreachable!(),
            };
            let field = self.prog.classes.resolve(class, attr)?;
            let expr = self.rhs_expr(bound)?;
            sets.push((field, expr));
        }
        Ok(sets)
    }

    fn check_bound(&self, v: SymbolId, bound: &HashSet<SymbolId>) -> Result<()> {
        if bound.contains(&v) {
            Ok(())
        } else {
            self.err(format!(
                "variable <{}> is not bound in the LHS",
                self.prog.symbols.name(v)
            ))
        }
    }

    fn rhs_expr(&mut self, bound: &HashSet<SymbolId>) -> Result<RhsExpr> {
        match self.peek() {
            TokKind::LParen => {
                self.bump();
                match self.bump() {
                    TokKind::Sym(s) if s == "compute" => {}
                    other => return self.err(format!("expected (compute ...), found {other:?}")),
                }
                let e = self.compute_body(bound)?;
                self.expect_rparen()?;
                Ok(e)
            }
            TokKind::Var(_) => {
                let v = match self.bump() {
                    TokKind::Var(v) => self.prog.symbols.intern(&v),
                    _ => unreachable!(),
                };
                self.check_bound(v, bound)?;
                Ok(RhsExpr::Var(v))
            }
            _ => Ok(RhsExpr::Const(self.const_value()?)),
        }
    }

    /// `operand (op operand)*`, left-associative. Operators are the symbols
    /// `+`, `*`, `//`, `\\` and the `Minus` token.
    fn compute_body(&mut self, bound: &HashSet<SymbolId>) -> Result<RhsExpr> {
        let mut acc = self.compute_operand(bound)?;
        loop {
            let op = match self.peek() {
                TokKind::Minus => Some(ArithOp::Sub),
                TokKind::Sym(s) => match s.as_str() {
                    "+" => Some(ArithOp::Add),
                    "*" => Some(ArithOp::Mul),
                    "//" => Some(ArithOp::Div),
                    "\\\\" | "\\" => Some(ArithOp::Mod),
                    _ => None,
                },
                _ => None,
            };
            match op {
                Some(op) => {
                    self.bump();
                    let rhs = self.compute_operand(bound)?;
                    acc = RhsExpr::Arith(op, Box::new(acc), Box::new(rhs));
                }
                None => return Ok(acc),
            }
        }
    }

    fn compute_operand(&mut self, bound: &HashSet<SymbolId>) -> Result<RhsExpr> {
        match self.peek() {
            TokKind::Var(_) => {
                let v = match self.bump() {
                    TokKind::Var(v) => self.prog.symbols.intern(&v),
                    _ => unreachable!(),
                };
                self.check_bound(v, bound)?;
                Ok(RhsExpr::Var(v))
            }
            TokKind::Int(_) | TokKind::Float(_) => Ok(RhsExpr::Const(self.const_value()?)),
            TokKind::LParen => self.rhs_expr(bound),
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
