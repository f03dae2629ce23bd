//! The interpreted matcher.
//!
//! Topologically this is the same Rete as `rete::seq` — per-production join
//! chains with alpha memories feeding right inputs — but nothing is
//! compiled: condition elements stay as interpreted test lists over
//! attribute *names*, WMEs are association lists, and variable bindings are
//! association lists extended by re-consing.

use crate::value::{acons, assoc, lisp_equal, LispVal};
use ops5::ast::{AttrTest, TestAtom};
use ops5::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, Pred, ProdId, Program,
    QuiesceReport, Sign, StatsDeltaTracker, Value, WmeRef,
};
use rete::Token;

/// One interpreted test of a condition element.
#[derive(Debug, Clone)]
enum LItem {
    /// `^attr PRED atom`
    Test {
        attr: LispVal,
        pred: Pred,
        atom: LAtom,
    },
    /// `^attr << v1 v2 ... >>`
    Disj { attr: LispVal, alts: Vec<LispVal> },
}

#[derive(Debug, Clone)]
enum LAtom {
    Const(LispVal),
    Var(LispVal),
}

/// An interpreted condition element.
#[derive(Debug, Clone)]
struct LCond {
    class: LispVal,
    negated: bool,
    items: Vec<LItem>,
}

/// A WME boxed into lisp representation (plus the original for the conflict
/// set).
#[derive(Clone)]
struct LWme {
    orig: WmeRef,
    /// `((attr . value) ...)` association list.
    alist: LispVal,
    class: LispVal,
}

/// A partial-match token: matched WMEs (parent-linked, shared with the
/// compiled matchers) plus the binding association list.
#[derive(Clone)]
struct LToken {
    wmes: Token,
    bindings: LispVal,
    neg_count: u32,
}

/// One production's interpreted match state.
struct LProd {
    conds: Vec<LCond>,
    /// Alpha memory per condition element (unshared).
    alpha: Vec<Vec<LWme>>,
    /// Left token memory per *join* (index = CE index, unused for CE 0).
    left: Vec<Vec<LToken>>,
}

enum LTask {
    /// Token arriving at the join of CE `ce` of production `prod`.
    Left {
        prod: usize,
        ce: usize,
        sign: Sign,
        token: LToken,
    },
    /// WME arriving at the right input of the join of CE `ce`.
    Right {
        prod: usize,
        ce: usize,
        sign: Sign,
        wme: LWme,
    },
    Terminal {
        prod: usize,
        sign: Sign,
        token: LToken,
    },
}

/// The interpretive matcher.
///
/// Beta-prefix sharing does not apply here: like the lisp baseline it
/// mirrors, every production owns its interpreted join chain. Left/right
/// unlinking does: an activation whose opposite memory is empty skips the
/// (null) scan when `options.unlinking` is set, and the null-activation
/// counters are maintained either way.
pub struct LispMatcher {
    prods: Vec<LProd>,
    agenda: Vec<LTask>,
    out: Vec<CsChange>,
    options: rete::NetworkOptions,
    stats: MatchStats,
}

fn value_to_lisp(v: Value, prog_syms: &ops5::SymbolTable) -> LispVal {
    match v {
        Value::Sym(s) => LispVal::sym(prog_syms.name(s)),
        Value::Int(i) => LispVal::Int(i),
        Value::Float(f) => LispVal::Float(f),
    }
}

impl LispMatcher {
    /// Builds the interpreted network from a parsed program. Attribute names
    /// and symbol names are captured as strings — exactly what the lisp
    /// implementation worked with.
    pub fn new(prog: &Program) -> LispMatcher {
        LispMatcher::new_with(prog, rete::NetworkOptions::default())
    }

    /// As [`LispMatcher::new`], with explicit network options (only the
    /// `unlinking` flag applies to the interpreted matcher).
    pub fn new_with(prog: &Program, options: rete::NetworkOptions) -> LispMatcher {
        let mut prods = Vec::with_capacity(prog.productions.len());
        for p in prog.productions.iter() {
            let mut conds = Vec::new();
            for ce in &p.lhs {
                let info = prog.classes.info(ce.class);
                let mut items = Vec::new();
                for (field, test) in &ce.tests {
                    let attr_name = info
                        .and_then(|i| i.attrs.get(*field as usize))
                        .map(|a| prog.symbols.name(*a))
                        .unwrap_or("?");
                    let attr = LispVal::sym(attr_name);
                    match test {
                        AttrTest::Disj(vs) => items.push(LItem::Disj {
                            attr,
                            alts: vs
                                .iter()
                                .map(|v| value_to_lisp(*v, &prog.symbols))
                                .collect(),
                        }),
                        AttrTest::Conj(ts) => {
                            for vt in ts {
                                let atom = match vt.atom {
                                    TestAtom::Const(v) => {
                                        LAtom::Const(value_to_lisp(v, &prog.symbols))
                                    }
                                    TestAtom::Var(v) => {
                                        LAtom::Var(LispVal::sym(prog.symbols.name(v)))
                                    }
                                };
                                items.push(LItem::Test {
                                    attr: attr.clone(),
                                    pred: vt.pred,
                                    atom,
                                });
                            }
                        }
                    }
                }
                conds.push(LCond {
                    class: LispVal::sym(prog.symbols.name(ce.class)),
                    negated: ce.negated,
                    items,
                });
            }
            let n = conds.len();
            prods.push(LProd {
                conds,
                alpha: (0..n).map(|_| Vec::new()).collect(),
                left: (0..n).map(|_| Vec::new()).collect(),
            });
        }
        LispMatcher {
            prods,
            agenda: Vec::new(),
            out: Vec::new(),
            options,
            stats: MatchStats::default(),
        }
    }
}

/// Evaluates one interpreted predicate.
fn pred_eval(pred: Pred, v: &LispVal, r: &LispVal) -> bool {
    match pred {
        Pred::Eq => lisp_equal(v, r),
        Pred::Ne => !lisp_equal(v, r),
        Pred::Lt | Pred::Le | Pred::Gt | Pred::Ge => match (v.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => match pred {
                Pred::Lt => a < b,
                Pred::Le => a <= b,
                Pred::Gt => a > b,
                Pred::Ge => a >= b,
                _ => unreachable!(),
            },
            _ => false,
        },
        Pred::SameType => v.is_numeric() == r.is_numeric(),
    }
}

/// Interpreted condition-element match: walks the test list, `assoc`-ing
/// every attribute and threading the binding alist. Returns the extended
/// bindings on success.
///
/// `lenient_unbound` is set for the alpha-membership check (empty
/// bindings): a non-equality predicate against a variable bound in another
/// condition element cannot be evaluated yet and must pass through to the
/// join — exactly what the compiled network does by routing it into a
/// join test.
fn match_ce(
    wme: &LWme,
    cond: &LCond,
    bindings: &LispVal,
    lenient_unbound: bool,
) -> Option<LispVal> {
    let mut b = bindings.clone();
    let nil = LispVal::Nil;
    for item in &cond.items {
        match item {
            LItem::Disj { attr, alts } => {
                let v = assoc(attr, &wme.alist).unwrap_or(&nil);
                if !alts.iter().any(|a| lisp_equal(v, a)) {
                    return None;
                }
            }
            LItem::Test { attr, pred, atom } => {
                let v = assoc(attr, &wme.alist).unwrap_or(&nil).clone();
                match atom {
                    LAtom::Const(c) => {
                        if !pred_eval(*pred, &v, c) {
                            return None;
                        }
                    }
                    LAtom::Var(name) => {
                        match assoc(name, &b) {
                            Some(bound) => {
                                if !pred_eval(*pred, &v, &bound.clone()) {
                                    return None;
                                }
                            }
                            None => {
                                if matches!(pred, Pred::Eq) {
                                    b = acons(name.clone(), v, b);
                                } else if !lenient_unbound {
                                    // Predicate on a variable this element
                                    // does not bind: at join time the binding
                                    // must exist (the compiled engine rejects
                                    // the program otherwise), so fail.
                                    return None;
                                }
                                // Alpha check: defer to the join.
                            }
                        }
                    }
                }
            }
        }
    }
    Some(b)
}

impl LispMatcher {
    fn run_agenda(&mut self) {
        while let Some(task) = self.agenda.pop() {
            self.stats.activations += 1;
            match task {
                LTask::Left {
                    prod,
                    ce,
                    sign,
                    token,
                } => {
                    self.stats.join_activations += 1;
                    let unlink = self.options.unlinking;
                    let negated = self.prods[prod].conds[ce].negated;
                    let opp_empty = self.prods[prod].alpha[ce].is_empty();
                    if !negated {
                        match sign {
                            Sign::Plus => self.prods[prod].left[ce].push(token.clone()),
                            Sign::Minus => {
                                let mem = &mut self.prods[prod].left[ce];
                                if let Some(i) =
                                    mem.iter().position(|t| t.wmes.same_wmes(&token.wmes))
                                {
                                    self.stats.same_tokens_left += (i + 1) as u64;
                                    self.stats.same_searches_left += 1;
                                    mem.swap_remove(i);
                                }
                            }
                        }
                        if unlink && opp_empty {
                            self.stats.null_skipped += 1;
                        } else {
                            if opp_empty {
                                self.stats.null_activations += 1;
                            }
                            // Scan the full alpha memory of this CE (linear,
                            // in place — `emit` only touches the agenda).
                            let alpha_len = self.prods[prod].alpha[ce].len();
                            self.stats.opp_tokens_left += alpha_len as u64;
                            if alpha_len > 0 {
                                self.stats.opp_nonempty_left += 1;
                            }
                            for i in 0..alpha_len {
                                let emit_tok = {
                                    let p = &self.prods[prod];
                                    let w = &p.alpha[ce][i];
                                    match_ce(w, &p.conds[ce], &token.bindings, false).map(|b2| {
                                        LToken {
                                            wmes: token.wmes.extended(w.orig.clone()),
                                            bindings: b2,
                                            neg_count: 0,
                                        }
                                    })
                                };
                                if let Some(t) = emit_tok {
                                    self.emit(prod, ce, sign, t);
                                }
                            }
                        }
                    } else {
                        match sign {
                            Sign::Plus => {
                                let n = if unlink && opp_empty {
                                    self.stats.null_skipped += 1;
                                    0
                                } else {
                                    if opp_empty {
                                        self.stats.null_activations += 1;
                                    }
                                    let p = &self.prods[prod];
                                    let alpha = &p.alpha[ce];
                                    self.stats.opp_tokens_left += alpha.len() as u64;
                                    if !alpha.is_empty() {
                                        self.stats.opp_nonempty_left += 1;
                                    }
                                    alpha
                                        .iter()
                                        .filter(|w| {
                                            match_ce(w, &p.conds[ce], &token.bindings, false)
                                                .is_some()
                                        })
                                        .count() as u32
                                };
                                let mut t = token.clone();
                                t.neg_count = n;
                                self.prods[prod].left[ce].push(t);
                                if n == 0 {
                                    self.emit(prod, ce, Sign::Plus, token);
                                }
                            }
                            Sign::Minus => {
                                let mem = &mut self.prods[prod].left[ce];
                                if let Some(i) =
                                    mem.iter().position(|t| t.wmes.same_wmes(&token.wmes))
                                {
                                    self.stats.same_tokens_left += (i + 1) as u64;
                                    self.stats.same_searches_left += 1;
                                    let old = mem.swap_remove(i);
                                    if old.neg_count == 0 {
                                        self.emit(prod, ce, Sign::Minus, token);
                                    }
                                }
                            }
                        }
                    }
                }
                LTask::Right {
                    prod,
                    ce,
                    sign,
                    wme,
                } => {
                    let negated = self.prods[prod].conds[ce].negated;
                    match sign {
                        Sign::Plus => self.prods[prod].alpha[ce].push(wme.clone()),
                        Sign::Minus => {
                            let mem = &mut self.prods[prod].alpha[ce];
                            if let Some(i) =
                                mem.iter().position(|w| w.orig.timetag == wme.orig.timetag)
                            {
                                self.stats.same_tokens_right += (i + 1) as u64;
                                self.stats.same_searches_right += 1;
                                mem.swap_remove(i);
                            }
                        }
                    }
                    if ce == 0 {
                        // CE 0's matches become 1-wme tokens for the next
                        // element (or the terminal).
                        let emit_tok =
                            match_ce(&wme, &self.prods[prod].conds[0], &LispVal::Nil, false).map(
                                |b| LToken {
                                    wmes: Token::empty().extended(wme.orig.clone()),
                                    bindings: b,
                                    neg_count: 0,
                                },
                            );
                        if let Some(t) = emit_tok {
                            self.emit(prod, 0, sign, t);
                        }
                        continue;
                    }
                    self.stats.join_activations += 1;
                    let n_tok = self.prods[prod].left[ce].len();
                    let opp_empty = n_tok == 0;
                    if self.options.unlinking && opp_empty {
                        self.stats.null_skipped += 1;
                        continue;
                    }
                    if opp_empty {
                        self.stats.null_activations += 1;
                    }
                    self.stats.opp_tokens_right += n_tok as u64;
                    if n_tok > 0 {
                        self.stats.opp_nonempty_right += 1;
                    }
                    if !negated {
                        for i in 0..n_tok {
                            let emit_tok = {
                                let p = &self.prods[prod];
                                let t = &p.left[ce][i];
                                match_ce(&wme, &p.conds[ce], &t.bindings, false).map(|b2| LToken {
                                    wmes: t.wmes.extended(wme.orig.clone()),
                                    bindings: b2,
                                    neg_count: 0,
                                })
                            };
                            if let Some(t) = emit_tok {
                                self.emit(prod, ce, sign, t);
                            }
                        }
                    } else {
                        // Adjust stored counters in place.
                        let mut crossed = Vec::new();
                        let p = &mut self.prods[prod];
                        let (conds, left) = (&p.conds, &mut p.left);
                        let cond = &conds[ce];
                        for t in left[ce].iter_mut() {
                            if match_ce(&wme, cond, &t.bindings, false).is_some() {
                                match sign {
                                    Sign::Plus => {
                                        t.neg_count += 1;
                                        if t.neg_count == 1 {
                                            crossed.push((t.clone(), Sign::Minus));
                                        }
                                    }
                                    Sign::Minus => {
                                        t.neg_count = t.neg_count.saturating_sub(1);
                                        if t.neg_count == 0 {
                                            crossed.push((t.clone(), Sign::Plus));
                                        }
                                    }
                                }
                            }
                        }
                        for (t, s) in crossed {
                            self.emit(prod, ce, s, t);
                        }
                    }
                }
                LTask::Terminal { prod, sign, token } => {
                    self.stats.cs_changes += 1;
                    let inst = Instantiation {
                        prod: ProdId(prod as u32),
                        wmes: token.wmes,
                    };
                    self.out.push(match sign {
                        Sign::Plus => CsChange::Insert(inst),
                        Sign::Minus => CsChange::Remove(inst),
                    });
                }
            }
        }
    }

    /// Sends a token past CE `ce` of `prod`: to the next join or terminal.
    fn emit(&mut self, prod: usize, ce: usize, sign: Sign, token: LToken) {
        let next = ce + 1;
        if next >= self.prods[prod].conds.len() {
            self.agenda.push(LTask::Terminal { prod, sign, token });
        } else {
            self.agenda.push(LTask::Left {
                prod,
                ce: next,
                sign,
                token,
            });
        }
    }
}

/// Conversion context: per-class attribute name lists, captured at build.
pub struct LispConverter {
    /// class symbol id → attr-name lisp strings in field order.
    names: std::collections::HashMap<u32, Vec<LispVal>>,
    /// symbol id → name (for values).
    sym_names: Vec<LispVal>,
    class_names: std::collections::HashMap<u32, LispVal>,
}

impl LispConverter {
    pub fn new(prog: &Program) -> LispConverter {
        let mut names = std::collections::HashMap::new();
        let mut class_names = std::collections::HashMap::new();
        for (class, info) in prog.classes.classes() {
            names.insert(
                class.0,
                info.attrs
                    .iter()
                    .map(|a| LispVal::sym(prog.symbols.name(*a)))
                    .collect(),
            );
            class_names.insert(class.0, LispVal::sym(prog.symbols.name(*class)));
        }
        let sym_names = (0..prog.symbols.len() as u32)
            .map(|i| LispVal::sym(prog.symbols.name(ops5::SymbolId(i))))
            .collect();
        LispConverter {
            names,
            sym_names,
            class_names,
        }
    }

    fn value(&self, v: Value) -> LispVal {
        match v {
            Value::Sym(s) => self
                .sym_names
                .get(s.index())
                .cloned()
                .unwrap_or_else(|| LispVal::sym(&format!("sym{}", s.0))),
            Value::Int(i) => LispVal::Int(i),
            Value::Float(f) => LispVal::Float(f),
        }
    }

    fn wme(&self, w: &WmeRef) -> LWme {
        let mut alist = LispVal::Nil;
        if let Some(attrs) = self.names.get(&w.class.0) {
            for (i, name) in attrs.iter().enumerate() {
                let v = w
                    .fields
                    .get(i)
                    .map(|v| self.value(*v))
                    .unwrap_or(LispVal::Nil);
                alist = acons(name.clone(), v, alist);
            }
        }
        let class = self
            .class_names
            .get(&w.class.0)
            .cloned()
            .unwrap_or(LispVal::Nil);
        LWme {
            orig: w.clone(),
            alist,
            class,
        }
    }
}

/// The complete lisp-style matcher: converter + interpreted network.
pub struct LispEngineMatcher {
    conv: LispConverter,
    inner: LispMatcher,
    delta: StatsDeltaTracker,
}

impl LispEngineMatcher {
    pub fn new(prog: &Program) -> LispEngineMatcher {
        LispEngineMatcher::new_with(prog, rete::NetworkOptions::default())
    }

    /// As [`LispEngineMatcher::new`] with explicit network options; only
    /// `unlinking` applies (the interpreted chains are per-production, so
    /// there is no prefix to share).
    pub fn new_with(prog: &Program, options: rete::NetworkOptions) -> LispEngineMatcher {
        LispEngineMatcher {
            conv: LispConverter::new(prog),
            inner: LispMatcher::new_with(prog, options),
            delta: StatsDeltaTracker::default(),
        }
    }

    pub fn boxed(prog: &Program) -> Box<dyn Matcher> {
        Box::new(LispEngineMatcher::new(prog))
    }

    pub fn boxed_with(prog: &Program, options: rete::NetworkOptions) -> Box<dyn Matcher> {
        Box::new(LispEngineMatcher::new_with(prog, options))
    }
}

impl Matcher for LispEngineMatcher {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.inner.stats.conjugate_pairs += batch.annihilated();
        for (_class, group) in batch.groups() {
            // One grouped interpreted "constant-test" walk per class: the
            // class-dispatch scan over every CE of every production runs
            // once per *group*; each change in the group then only pays
            // the interpreted element match against the surviving CEs.
            self.inner.stats.alpha_activations += 1;
            self.inner.stats.wme_changes += group.len() as u64;
            let converted: Vec<(Sign, LWme)> = group
                .iter()
                .map(|c| (c.sign, self.conv.wme(&c.wme)))
                .collect();
            let class_lv = converted[0].1.class.clone();
            let mut candidates = Vec::new();
            for p in 0..self.inner.prods.len() {
                for ce in 0..self.inner.prods[p].conds.len() {
                    if lisp_equal(&self.inner.prods[p].conds[ce].class, &class_lv) {
                        candidates.push((p, ce));
                    }
                }
            }
            for (sign, lw) in converted {
                for &(p, ce) in &candidates {
                    if match_ce(&lw, &self.inner.prods[p].conds[ce], &LispVal::Nil, true).is_none()
                    {
                        continue;
                    }
                    self.inner.agenda.push(LTask::Right {
                        prod: p,
                        ce,
                        sign,
                        wme: lw.clone(),
                    });
                }
                // Drain per change: the linear memories rely on the
                // one-change-at-a-time discipline.
                self.inner.run_agenda();
            }
        }
    }

    fn quiesce(&mut self) -> QuiesceReport {
        QuiesceReport {
            cs_changes: std::mem::take(&mut self.inner.out),
            stats_delta: self.delta.take(self.inner.stats),
            phase: None,
        }
    }

    fn stats(&self) -> MatchStats {
        self.inner.stats
    }

    fn reset_stats(&mut self) {
        self.inner.stats = MatchStats::default();
        self.delta.reset();
    }

    fn name(&self) -> &'static str {
        "lispsim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::WmeChange;

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
        let mut m = LispEngineMatcher::new(&prog);
        let out = final_set(&mut m, cs);
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
        let mut m = LispEngineMatcher::new(&prog);
        let out = final_set(&mut m, cs);
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
        let mut m = LispEngineMatcher::new(&prog);
        let out = final_set(&mut m, cs);
        assert!(out.is_empty());
    }

    #[test]
    fn intra_element_variable_consistency() {
        let mut prog = Program::from_source("(p q (a ^x <v> ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1), Value::Int(1)], 1, Sign::Plus),
                ("a", vec![Value::Int(1), Value::Int(2)], 2, Sign::Plus),
            ],
        );
        let mut m = LispEngineMatcher::new(&prog);
        let out = final_set(&mut m, cs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, vec![1]);
    }

    #[test]
    fn stats_populated() {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let cs = changes(
            &mut prog,
            &[
                ("a", vec![Value::Int(1)], 1, Sign::Plus),
                ("b", vec![Value::Int(1)], 2, Sign::Plus),
            ],
        );
        let mut m = LispEngineMatcher::new(&prog);
        final_set(&mut m, cs);
        let s = m.stats();
        assert_eq!(s.wme_changes, 2);
        assert!(s.activations > 0);
        assert_eq!(s.cs_changes, 1);
    }
}
