//! The interpreted join tests, and the matcher built on them.
//!
//! The algorithm is `rete::seq`'s and the memory layout vs1's line per memory.
//! What this module adds is what a lisp Rete spends its time on: every
//! memory entry carries a boxed copy of its data — a WME is an association
//! list `((attr . value) ...)` keyed by attribute *name*, a token a list of
//! those — and a join's tests are a list of interpreted steps, each an
//! `nth`, two `assoc`s and a tag-dispatched comparison, walked on every
//! pair a scan looks at.

use crate::value::{acons, assoc, lisp_equal, nth, num_cmp, LispVal};
use ops5::{Matcher, Pred, Program, SymbolId, Value, Wme};
use rete::memory::{HashMem, JoinTests};
use rete::{JoinNode, Network, NetworkOptions, SeqMatcher, Token};
use std::sync::Arc;

/// One interpreted join test: `(PRED (assoc right-attr wme) (assoc
/// left-attr (nth ce token)))`.
struct Step {
    pred: Pred,
    ce: usize,
    left_attr: LispVal,
    right_attr: LispVal,
}

/// Join tests interpreted over boxed association lists, on vs1's line per
/// memory: the lisp policy of a [`HashMem`].
pub struct LispTests {
    /// Per join, its tests.
    joins: Vec<Vec<Step>>,
    /// Per class symbol, the key of each field: its attribute's name.
    attrs: Vec<Vec<LispVal>>,
    /// Per symbol, its name.
    names: Vec<LispVal>,
    /// `nil`: what an absent attribute reads as.
    nil: LispVal,
}

impl LispTests {
    /// Captures `prog`'s names, and `net`'s join tests as step lists over
    /// them: the attribute of a token position is named by the class of
    /// the positive CE it matched, in the production that built the join.
    pub fn new(prog: &Program, net: &Network) -> LispTests {
        let names: Vec<LispVal> = (0..prog.symbols.len() as u32)
            .map(|i| LispVal::sym(prog.symbols.name(SymbolId(i))))
            .collect();
        let mut attrs = vec![Vec::new(); names.len()];
        for (class, info) in prog.classes.classes() {
            attrs[class.index()] = info
                .attrs
                .iter()
                .map(|a| names[a.index()].clone())
                .collect();
        }
        let mut tests = LispTests {
            joins: Vec::new(),
            attrs,
            names,
            nil: LispVal::Nil,
        };
        tests.nil = tests.value(Value::NIL);
        tests.joins = (net.joins.iter())
            .map(|j| {
                let lhs = &prog.production(j.prod).lhs;
                let positive: Vec<SymbolId> = (lhs.iter())
                    .filter(|ce| !ce.negated)
                    .map(|ce| ce.class)
                    .collect();
                let right = lhs[j.ce_index as usize].class;
                (j.tests.iter())
                    .map(|t| Step {
                        pred: t.pred,
                        ce: t.left_ce as usize,
                        left_attr: tests.attr(positive[t.left_ce as usize], t.left_field),
                        right_attr: tests.attr(right, t.right_field),
                    })
                    .collect()
            })
            .collect();
        tests
    }

    /// The key of `class`'s field `field`: its attribute's name, or the
    /// field number where the class names none.
    fn attr(&self, class: SymbolId, field: u16) -> LispVal {
        let named = self
            .attrs
            .get(class.index())
            .and_then(|a| a.get(field as usize));
        named.cloned().unwrap_or(LispVal::Int(field as i64))
    }

    fn value(&self, v: Value) -> LispVal {
        match v {
            Value::Sym(s) => (self.names.get(s.index()).cloned())
                .unwrap_or_else(|| LispVal::sym(&format!("#<symbol {}>", s.0))),
            Value::Int(i) => LispVal::Int(i),
            Value::Float(f) => LispVal::Float(f),
        }
    }

    /// `wme` boxed: `((attr . value) ...)` in field order.
    fn alist(&self, wme: &Wme) -> LispVal {
        let fields = wme.fields.iter().enumerate().rev();
        fields.fold(LispVal::Nil, |list, (i, v)| {
            acons(self.attr(wme.class, i as u16), self.value(*v), list)
        })
    }

    /// `token` boxed: the list of its WMEs' association lists.
    fn list(&self, token: &Token) -> LispVal {
        let wmes = token.iter_back();
        wmes.fold(LispVal::Nil, |list, w| LispVal::cons(self.alist(w), list))
    }

    /// Runs `j`'s steps on a boxed token and a boxed WME.
    fn passes(&self, j: &JoinNode, token: &LispVal, wme: &LispVal) -> bool {
        self.joins[j.id as usize].iter().all(|s| {
            let v = assoc(&s.right_attr, wme).unwrap_or(&self.nil);
            let r = assoc(&s.left_attr, nth(s.ce, token)).unwrap_or(&self.nil);
            match s.pred {
                Pred::Eq => lisp_equal(v, r),
                Pred::Ne => !lisp_equal(v, r),
                Pred::Lt => num_cmp(v, r).is_some_and(|o| o.is_lt()),
                Pred::Le => num_cmp(v, r).is_some_and(|o| o.is_le()),
                Pred::Gt => num_cmp(v, r).is_some_and(|o| o.is_gt()),
                Pred::Ge => num_cmp(v, r).is_some_and(|o| o.is_ge()),
                Pred::SameType => v.is_numeric() == r.is_numeric(),
            }
        })
    }
}

impl JoinTests for LispTests {
    const NAME: &'static str = "lisp";
    type Left = LispVal;
    type Right = LispVal;

    fn left(&self, token: &Token) -> LispVal {
        self.list(token)
    }

    fn right(&self, wme: &Wme) -> LispVal {
        self.alist(wme)
    }

    fn of_token<'a>(
        &'a self,
        j: &'a JoinNode,
        token: &'a Token,
    ) -> impl Fn(&Wme, &LispVal) -> bool + 'a {
        let token = self.list(token);
        move |_, wme| self.passes(j, &token, wme)
    }

    fn of_wme<'a>(
        &'a self,
        j: &'a JoinNode,
        wme: &'a Wme,
    ) -> impl Fn(&Token, &LispVal) -> bool + 'a {
        let wme = self.alist(wme);
        move |_, token| self.passes(j, token, &wme)
    }
}

/// Constructors of lispsim: [`SeqMatcher`] over a line per memory with
/// [`LispTests`].
pub struct LispEngineMatcher;

impl LispEngineMatcher {
    /// lispsim on `net`, a compiled network of `prog`.
    pub fn on(prog: &Program, net: Arc<Network>) -> SeqMatcher<LispTests> {
        let mem = HashMem::lists(LispTests::new(prog, &net), &net);
        SeqMatcher::over(net, mem)
    }

    pub fn boxed(prog: &Program) -> Box<dyn Matcher> {
        LispEngineMatcher::boxed_with(prog, NetworkOptions::default())
    }

    /// lispsim on a network of `prog` compiled with `options`.
    ///
    /// # Panics
    ///
    /// If the network does not compile (a predicate on an unbound
    /// variable).
    pub fn boxed_with(prog: &Program, options: NetworkOptions) -> Box<dyn Matcher> {
        let net = Network::compile_with(prog, options).expect("the program compiles");
        Box::new(LispEngineMatcher::on(prog, Arc::new(net)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{ChangeBatch, CsChange, ProdId, Sign, WmeChange};

    fn changes(prog: &mut Program, specs: &[(&str, Vec<Value>, u64, Sign)]) -> Vec<WmeChange> {
        specs
            .iter()
            .map(|(class, vals, tag, sign)| {
                let c = prog.symbols.intern(class);
                WmeChange {
                    sign: *sign,
                    wme: ops5::Wme::new(c, vals.clone(), *tag),
                }
            })
            .collect()
    }

    fn final_set(m: &mut dyn Matcher, cs: Vec<WmeChange>) -> Vec<(ProdId, Vec<u64>)> {
        for c in cs {
            m.submit(&ChangeBatch::single(c));
        }
        let mut set = std::collections::BTreeSet::new();
        for c in m.quiesce().cs_changes {
            match c {
                CsChange::Insert(i) => {
                    set.insert(i.key());
                }
                CsChange::Remove(i) => {
                    set.remove(&i.key());
                }
            }
        }
        set.into_iter().collect()
    }

    #[test]
    fn join_fires_like_compiled() {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1)], 1, Sign::Plus),
                ("b", vec![Value::Int(1)], 2, Sign::Plus),
                ("b", vec![Value::Int(9)], 3, Sign::Plus),
            ],
        );
        let out = final_set(LispEngineMatcher::boxed(&prog).as_mut(), cs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, vec![1, 2]);
    }

    #[test]
    fn negated_ce() {
        let mut prog = Program::from_source("(p q (a ^x <v>) - (b ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1)], 1, Sign::Plus),
                ("a", vec![Value::Int(2)], 2, Sign::Plus),
                ("b", vec![Value::Int(1)], 3, Sign::Plus),
            ],
        );
        let out = final_set(LispEngineMatcher::boxed(&prog).as_mut(), cs);
        assert_eq!(out.len(), 1, "only the unblocked value fires");
        assert_eq!(out[0].1, vec![2]);
    }

    #[test]
    fn deletes_retract() {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1)], 1, Sign::Plus),
                ("b", vec![Value::Int(1)], 2, Sign::Plus),
                ("a", vec![Value::Int(1)], 1, Sign::Minus),
            ],
        );
        let out = final_set(LispEngineMatcher::boxed(&prog).as_mut(), cs);
        assert!(out.is_empty());
    }

    /// Every predicate, against a value bound in the token's second WME, on
    /// integers, a float and an absent field: the steps read the same as
    /// the compiled tests.
    #[test]
    fn predicates_read_like_the_compiled_ones() {
        let src = "(literalize a x) (literalize b k) (literalize c y)
             (p lt (b) (a ^x <v>) (c ^y < <v>) --> (halt))
             (p ge (b) (a ^x <v>) (c ^y >= <v>) --> (halt))
             (p ne (b) (a ^x <v>) (c ^y <> <v>) --> (halt))
             (p st (b) (a ^x <v>) (c ^y <=> <v>) --> (halt))";
        let mut prog = Program::from_source(src).unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(2)], 1, Sign::Plus),
                ("b", vec![], 2, Sign::Plus),
                ("c", vec![Value::Int(1)], 3, Sign::Plus),
                ("c", vec![Value::Int(2)], 4, Sign::Plus),
                ("c", vec![Value::Float(2.5)], 5, Sign::Plus),
                ("c", vec![], 6, Sign::Plus),
            ],
        );
        let net = Arc::new(Network::compile(&prog).unwrap());
        let vs1 = final_set(&mut rete::SeqMatcher::vs1(net.clone()), cs.clone());
        let lisp = final_set(&mut LispEngineMatcher::on(&prog, net), cs);
        assert_eq!(lisp, vs1);
        let fired = |p: u32| lisp.iter().filter(|(id, _)| id.0 == p).count();
        assert_eq!([0, 1, 2, 3].map(fired), [1, 2, 3, 3]);
    }

    #[test]
    fn stats_and_name_are_the_kernels() {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1)], 1, Sign::Plus),
                ("b", vec![Value::Int(1)], 2, Sign::Plus),
            ],
        );
        let mut m = LispEngineMatcher::boxed(&prog);
        final_set(m.as_mut(), cs);
        let s = m.stats();
        assert_eq!(s.wme_changes, 2);
        assert!(s.activations > 0);
        assert_eq!(s.cs_changes, 1);
        assert_eq!(m.name(), "lisp");
    }
}
