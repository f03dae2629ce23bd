//! RHS threaded code (§3.3).
//!
//! Production right-hand sides are compiled once, at load time, into a flat
//! vector of threaded-code instructions that a small stack machine interprets
//! at firing time. The paper compiles RHSs to threaded code rather than
//! machine code because "RHS evaluation is not a bottleneck"; we mirror the
//! design: LHS variable references are pre-resolved to (condition-element,
//! field) pairs, attribute names to field indices, `bind` variables to local
//! slots.

use ops5::ast::{Action, Production, RhsExpr, WriteItem};
use ops5::value::ArithOp;
use ops5::{Ops5Error, Result, SymbolId, SymbolTable, Value, WmeRef};
use rete::fxhash::FxHashMap;

/// One threaded-code instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push a constant.
    PushConst(Value),
    /// Push `instantiation.wmes[ce].field(field)` (LHS binding).
    PushBinding { ce: u16, field: u16 },
    /// Push a `bind` local.
    PushLocal(u16),
    /// Pop two, push the arithmetic result (`a op b` with `a` pushed first).
    Arith(ArithOp),
    /// Start building a fresh WME of `class` (all fields nil).
    BeginWme { class: SymbolId, arity: u16 },
    /// Start from a copy of the CE's matched WME (modify).
    BeginFromCe { ce: u16, arity: u16 },
    /// Pop one value into the WME buffer at `field`.
    SetField(u16),
    /// Emit the buffer as a `make`.
    EmitMake,
    /// Emit delete-of-old + add-of-buffer (modify ≡ delete, add).
    EmitModify { ce: u16 },
    /// Delete the CE's matched WME.
    RemoveCe { ce: u16 },
    /// Pop into a local slot.
    StoreLocal(u16),
    /// Generate a fresh symbol into a local slot (OPS5 genatom).
    GensymLocal(u16),
    /// Pop and append to the output line.
    Write,
    /// End the output line.
    WriteCrlf,
    /// Stop the interpreter after this firing.
    Halt,
}

/// Compiled RHS for one production.
#[derive(Debug, Clone, Default)]
pub struct RhsProgram {
    pub code: Vec<Instr>,
    pub n_locals: u16,
}

/// Side effects requested by an RHS execution, in order.
#[derive(Debug, Clone)]
pub enum RhsEffect {
    Make { class: SymbolId, fields: Vec<Value> },
    Remove { wme: WmeRef },
    Write(String),
    Crlf,
}

/// Where a variable's value comes from at firing time.
#[derive(Clone, Copy)]
enum Slot {
    Lhs { ce: u16, field: u16 },
    Local(u16),
}

/// Compiles a production's RHS against the LHS bindings and class layouts.
///
/// `arity_of` maps a class to its field count (fixed after parse).
pub fn compile_rhs(
    prod: &Production,
    syms: &SymbolTable,
    arity_of: impl Fn(SymbolId) -> u16,
) -> Result<RhsProgram> {
    // LHS bindings: first Eq occurrence of each variable in a positive CE —
    // must agree with the network compiler's binding rule.
    let mut slots: FxHashMap<SymbolId, Slot> = FxHashMap::default();
    {
        let mut pos: u16 = 0;
        for ce in &prod.lhs {
            if ce.negated {
                continue;
            }
            for (field, test) in &ce.tests {
                if let ops5::ast::AttrTest::Conj(ts) = test {
                    for vt in ts {
                        if let ops5::ast::TestAtom::Var(v) = vt.atom {
                            if vt.pred.is_eq() {
                                slots.entry(v).or_insert(Slot::Lhs {
                                    ce: pos,
                                    field: *field,
                                });
                            }
                        }
                    }
                }
            }
            pos += 1;
        }
    }

    let mut code = Vec::new();
    let mut n_locals: u16 = 0;

    fn compile_expr(
        e: &RhsExpr,
        slots: &FxHashMap<SymbolId, Slot>,
        syms: &SymbolTable,
        code: &mut Vec<Instr>,
    ) -> Result<()> {
        match e {
            RhsExpr::Const(v) => code.push(Instr::PushConst(*v)),
            RhsExpr::Var(v) => match slots.get(v) {
                Some(Slot::Lhs { ce, field }) => code.push(Instr::PushBinding {
                    ce: *ce,
                    field: *field,
                }),
                Some(Slot::Local(i)) => code.push(Instr::PushLocal(*i)),
                None => {
                    return Err(Ops5Error::Semantic(format!(
                        "RHS variable <{}> has no binding",
                        syms.name(*v)
                    )))
                }
            },
            RhsExpr::Arith(op, a, b) => {
                compile_expr(a, slots, syms, code)?;
                compile_expr(b, slots, syms, code)?;
                code.push(Instr::Arith(*op));
            }
        }
        Ok(())
    }

    for action in &prod.rhs {
        match action {
            Action::Make { class, sets } => {
                code.push(Instr::BeginWme {
                    class: *class,
                    arity: arity_of(*class),
                });
                for (field, e) in sets {
                    compile_expr(e, &slots, syms, &mut code)?;
                    code.push(Instr::SetField(*field));
                }
                code.push(Instr::EmitMake);
            }
            Action::Modify { ce, sets } => {
                // `ce` is the 1-based positive index from the parser.
                let ce0 = ce - 1;
                let class = prod
                    .lhs
                    .iter()
                    .filter(|c| !c.negated)
                    .nth(ce0 as usize)
                    .map(|c| c.class)
                    .ok_or_else(|| Ops5Error::Semantic("modify CE out of range".into()))?;
                code.push(Instr::BeginFromCe {
                    ce: ce0,
                    arity: arity_of(class),
                });
                for (field, e) in sets {
                    compile_expr(e, &slots, syms, &mut code)?;
                    code.push(Instr::SetField(*field));
                }
                code.push(Instr::EmitModify { ce: ce0 });
            }
            Action::Remove { ce } => code.push(Instr::RemoveCe { ce: ce - 1 }),
            Action::Write { items } => {
                for item in items {
                    match item {
                        WriteItem::Crlf => code.push(Instr::WriteCrlf),
                        WriteItem::Value(v) => {
                            let e = match v {
                                ops5::ast::RhsValue::Const(c) => RhsExpr::Const(*c),
                                ops5::ast::RhsValue::Var(v) => RhsExpr::Var(*v),
                            };
                            compile_expr(&e, &slots, syms, &mut code)?;
                            code.push(Instr::Write);
                        }
                    }
                }
            }
            Action::Bind { var, expr } => {
                let slot = n_locals;
                n_locals += 1;
                match expr {
                    Some(e) => {
                        compile_expr(e, &slots, syms, &mut code)?;
                        code.push(Instr::StoreLocal(slot));
                    }
                    None => code.push(Instr::GensymLocal(slot)),
                }
                slots.insert(*var, Slot::Local(slot));
            }
            Action::Halt => code.push(Instr::Halt),
        }
    }

    Ok(RhsProgram { code, n_locals })
}

/// Interprets a compiled RHS for one instantiation, given as the slice of
/// its matched WMEs in CE order (the engine walks the instantiation's token
/// once per firing; the code below indexes it once per binding).
///
/// Effects are delivered to `sink` in order, and the engine applies each
/// as it comes: working memory at once, the matcher's half into the
/// cycle's one batch. Gensyms are drawn from `syms` as the code reaches
/// them. Returns `true` if a `halt` was executed. Code that names a CE the
/// instantiation does not have is a runtime error from every opcode, never
/// a panic.
pub fn execute(
    prog: &RhsProgram,
    wmes: &[WmeRef],
    syms: &mut SymbolTable,
    mut sink: impl FnMut(RhsEffect),
) -> Result<bool> {
    let matched = |ce: u16, what: &str| {
        wmes.get(ce as usize)
            .ok_or_else(|| Ops5Error::Runtime(format!("{what} references missing CE")))
    };
    let mut stack: Vec<Value> = Vec::with_capacity(8);
    let mut locals: Vec<Value> = vec![Value::NIL; prog.n_locals as usize];
    let mut buf: Vec<Value> = Vec::new();
    let mut buf_class: SymbolId = SymbolId::NIL;
    let mut halted = false;

    for instr in &prog.code {
        match instr {
            Instr::PushConst(v) => stack.push(*v),
            Instr::PushBinding { ce, field } => {
                stack.push(matched(*ce, "binding")?.field(*field));
            }
            Instr::PushLocal(i) => stack.push(locals[*i as usize]),
            Instr::Arith(op) => {
                let b = stack.pop().ok_or_else(stack_underflow)?;
                let a = stack.pop().ok_or_else(stack_underflow)?;
                let r = op.eval(a, b).ok_or_else(|| {
                    Ops5Error::Runtime("compute on non-numeric operands or division by zero".into())
                })?;
                stack.push(r);
            }
            Instr::BeginWme { class, arity } => {
                buf_class = *class;
                buf.clear();
                buf.resize(*arity as usize, Value::NIL);
            }
            Instr::BeginFromCe { ce, arity } => {
                let w = matched(*ce, "modify")?;
                buf_class = w.class;
                buf.clear();
                buf.extend_from_slice(&w.fields);
                buf.resize(*arity as usize, Value::NIL);
            }
            Instr::SetField(f) => {
                let v = stack.pop().ok_or_else(stack_underflow)?;
                let f = *f as usize;
                if f >= buf.len() {
                    buf.resize(f + 1, Value::NIL);
                }
                buf[f] = v;
            }
            Instr::EmitMake => {
                sink(RhsEffect::Make {
                    class: buf_class,
                    fields: std::mem::take(&mut buf),
                });
            }
            Instr::EmitModify { ce } => {
                let w = matched(*ce, "modify")?.clone();
                sink(RhsEffect::Remove { wme: w });
                sink(RhsEffect::Make {
                    class: buf_class,
                    fields: std::mem::take(&mut buf),
                });
            }
            Instr::RemoveCe { ce } => {
                let w = matched(*ce, "remove")?.clone();
                sink(RhsEffect::Remove { wme: w });
            }
            Instr::StoreLocal(i) => {
                let v = stack.pop().ok_or_else(stack_underflow)?;
                locals[*i as usize] = v;
            }
            Instr::GensymLocal(i) => {
                locals[*i as usize] = Value::Sym(syms.gensym());
            }
            Instr::Write => {
                let v = stack.pop().ok_or_else(stack_underflow)?;
                sink(RhsEffect::Write(format!("{}", v.display(syms))));
            }
            Instr::WriteCrlf => sink(RhsEffect::Crlf),
            Instr::Halt => halted = true,
        }
    }
    Ok(halted)
}

fn stack_underflow() -> Ops5Error {
    Ops5Error::Runtime("RHS stack underflow".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{Program, Wme};

    fn setup(src: &str) -> (Program, RhsProgram) {
        let prog = Program::from_source(src).unwrap();
        let p = &prog.productions[0];
        let classes = prog.classes.clone();
        let rhs = compile_rhs(p, &prog.symbols, |c| classes.arity(c)).unwrap();
        (prog, rhs)
    }

    fn run(prog: &mut Program, rhs: &RhsProgram, wmes: Vec<WmeRef>) -> (Vec<RhsEffect>, bool) {
        let mut fx = Vec::new();
        let halted = execute(rhs, &wmes, &mut prog.symbols, |e| fx.push(e)).unwrap();
        (fx, halted)
    }

    #[test]
    fn make_with_binding_and_compute() {
        let (mut prog, rhs) = setup("(p q (a ^x <v>) --> (make b ^y (compute <v> + 1) ^z <v>))");
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(5)], 1);
        let (fx, halted) = run(&mut prog, &rhs, vec![w]);
        assert!(!halted);
        assert_eq!(fx.len(), 1);
        match &fx[0] {
            RhsEffect::Make { fields, .. } => {
                assert_eq!(fields[0], Value::Int(6));
                assert_eq!(fields[1], Value::Int(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn modify_is_remove_plus_make() {
        let (mut prog, rhs) = setup("(p q (a ^x <v>) --> (modify 1 ^x 9))");
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(5)], 1);
        let (fx, _) = run(&mut prog, &rhs, vec![w.clone()]);
        assert_eq!(fx.len(), 2);
        assert!(matches!(&fx[0], RhsEffect::Remove { wme } if wme.timetag == 1));
        match &fx[1] {
            RhsEffect::Make { class, fields } => {
                assert_eq!(*class, ca);
                assert_eq!(fields[0], Value::Int(9));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn modify_preserves_unset_fields() {
        let (mut prog, rhs) = setup("(p q (a ^x <v> ^y <w>) --> (modify 1 ^x 9))");
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(5), Value::Int(7)], 1);
        let (fx, _) = run(&mut prog, &rhs, vec![w]);
        match &fx[1] {
            RhsEffect::Make { fields, .. } => {
                assert_eq!(fields[0], Value::Int(9));
                assert_eq!(fields[1], Value::Int(7), "untouched field copied");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remove_action() {
        let (mut prog, rhs) = setup("(p q (a ^x 1) (b ^y 2) --> (remove 2))");
        let ca = prog.symbols.get("a").unwrap();
        let cb = prog.symbols.get("b").unwrap();
        let wa = Wme::new(ca, vec![Value::Int(1)], 1);
        let wb = Wme::new(cb, vec![Value::Int(2)], 2);
        let (fx, _) = run(&mut prog, &rhs, vec![wa, wb]);
        assert_eq!(fx.len(), 1);
        assert!(matches!(&fx[0], RhsEffect::Remove { wme } if wme.timetag == 2));
    }

    #[test]
    fn bind_and_gensym() {
        let (mut prog, rhs) = setup(
            "(p q (a ^x <v>) --> (bind <w> (compute <v> * 2)) (bind <g>) (make b ^y <w> ^z <g>))",
        );
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(3)], 1);
        let (fx, _) = run(&mut prog, &rhs, vec![w]);
        match &fx[0] {
            RhsEffect::Make { fields, .. } => {
                assert_eq!(fields[0], Value::Int(6));
                assert!(matches!(fields[1], Value::Sym(_)));
                assert!(!fields[1].is_nil());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn halt_and_write() {
        let (mut prog, rhs) = setup("(p q (a ^x <v>) --> (write done <v> (crlf)) (halt))");
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(5)], 1);
        let (fx, halted) = run(&mut prog, &rhs, vec![w]);
        assert!(halted);
        assert_eq!(fx.len(), 3);
        assert!(matches!(&fx[0], RhsEffect::Write(s) if s == "done"));
        assert!(matches!(&fx[1], RhsEffect::Write(s) if s == "5"));
        assert!(matches!(&fx[2], RhsEffect::Crlf));
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let (mut prog, rhs) = setup("(p q (a ^x <v>) --> (make b ^y (compute 1 // 0)))");
        let ca = prog.symbols.get("a").unwrap();
        let w = Wme::new(ca, vec![Value::Int(5)], 1);
        let r = execute(&rhs, &[w], &mut prog.symbols, |_| {});
        assert!(r.is_err());
    }

    #[test]
    fn every_ce_opcode_fails_closed_on_a_short_instantiation() {
        // Hand-assembled code naming CE 1 of a one-WME instantiation: what
        // a compiler bug or a token cut short would hand the interpreter.
        let a = SymbolId(1);
        let w = Wme::new(a, vec![Value::Int(5)], 1);
        let begin = Instr::BeginFromCe { ce: 0, arity: 1 };
        let cases: [(&str, Vec<Instr>); 4] = [
            ("binding", vec![Instr::PushBinding { ce: 1, field: 0 }]),
            ("modify", vec![Instr::BeginFromCe { ce: 1, arity: 1 }]),
            ("modify", vec![begin, Instr::EmitModify { ce: 1 }]),
            ("remove", vec![Instr::RemoveCe { ce: 1 }]),
        ];
        for (what, code) in cases {
            let rhs = RhsProgram { code, n_locals: 0 };
            let mut syms = SymbolTable::new();
            let mut fx = Vec::new();
            let err = execute(&rhs, std::slice::from_ref(&w), &mut syms, |e| fx.push(e))
                .expect_err("missing CE must be an error");
            assert_eq!(
                err.to_string(),
                Ops5Error::Runtime(format!("{what} references missing CE")).to_string()
            );
            assert!(fx.is_empty(), "no effect before the error: {fx:?}");
        }
    }
}
