//! Boxed lisp values: cons cells, deep equality, association lists.

use std::cmp::Ordering;
use std::sync::Arc;

/// A boxed, dynamically-tagged lisp value.
#[derive(Debug, Clone)]
pub enum LispVal {
    Nil,
    Sym(Arc<str>),
    Int(i64),
    Float(f64),
    Cons(Arc<LispVal>, Arc<LispVal>),
}

impl LispVal {
    pub fn sym(s: &str) -> LispVal {
        LispVal::Sym(Arc::from(s))
    }

    pub fn cons(car: LispVal, cdr: LispVal) -> LispVal {
        LispVal::Cons(Arc::new(car), Arc::new(cdr))
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, LispVal::Int(_) | LispVal::Float(_))
    }
}

/// Deep `equal`: the tag-dispatched recursive comparison every lisp test
/// pays for. Symbols compare by name (string walk), numbers by exact
/// variant, conses recursively.
pub fn lisp_equal(a: &LispVal, b: &LispVal) -> bool {
    match (a, b) {
        (LispVal::Nil, LispVal::Nil) => true,
        (LispVal::Sym(x), LispVal::Sym(y)) => x.as_ref() == y.as_ref(),
        (LispVal::Int(x), LispVal::Int(y)) => x == y,
        (LispVal::Float(x), LispVal::Float(y)) => x.to_bits() == y.to_bits(),
        (LispVal::Cons(a1, d1), LispVal::Cons(a2, d2)) => lisp_equal(a1, a2) && lisp_equal(d1, d2),
        _ => false,
    }
}

/// Numeric comparison, as OPS5's `<`, `<=`, `>`, `>=` read it: integers
/// exactly, anything else with a float as `f64`; `None` unless both sides
/// are numbers (or for NaN).
pub fn num_cmp(a: &LispVal, b: &LispVal) -> Option<Ordering> {
    let f = |v: &LispVal| match *v {
        LispVal::Int(i) => Some(i as f64),
        LispVal::Float(x) => Some(x),
        _ => None,
    };
    match (a, b) {
        (LispVal::Int(x), LispVal::Int(y)) => Some(x.cmp(y)),
        _ => f(a)?.partial_cmp(&f(b)?),
    }
}

/// `nth`: the `n`th element of a list (`nil` past its end).
pub fn nth(n: usize, mut list: &LispVal) -> &LispVal {
    for _ in 0..n {
        match list {
            LispVal::Cons(_, rest) => list = rest,
            _ => break,
        }
    }
    static NIL: LispVal = LispVal::Nil;
    match list {
        LispVal::Cons(car, _) => car,
        _ => &NIL,
    }
}

/// `assoc`: linear search of an association list `((key . val) ...)`,
/// comparing keys with deep equality. Returns the value.
pub fn assoc<'a>(key: &LispVal, mut list: &'a LispVal) -> Option<&'a LispVal> {
    while let LispVal::Cons(pair, rest) = list {
        if let LispVal::Cons(k, v) = pair.as_ref() {
            if lisp_equal(k, key) {
                return Some(v);
            }
        }
        list = rest;
    }
    None
}

/// Prepends a `(key . val)` pair to an association list.
pub fn acons(key: LispVal, val: LispVal, list: LispVal) -> LispVal {
    LispVal::cons(LispVal::cons(key, val), list)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_equality() {
        let list = |x| {
            LispVal::cons(
                LispVal::sym("a"),
                LispVal::cons(LispVal::Int(x), LispVal::Nil),
            )
        };
        assert!(lisp_equal(&list(1), &list(1)));
        assert!(!lisp_equal(&list(1), &list(2)));
        assert!(!lisp_equal(&LispVal::Int(1), &LispVal::Float(1.0)));
        assert!(lisp_equal(nth(1, &list(2)), &LispVal::Int(2)));
        assert!(lisp_equal(nth(2, &list(2)), &LispVal::Nil));
    }

    #[test]
    fn numbers_compare_like_ops5_values() {
        use ops5::Value;
        let pairs = [(3, 3.0), (i64::MAX, i64::MAX as f64), (-2, 0.5)];
        for (i, f) in pairs {
            let (li, lf) = (LispVal::Int(i), LispVal::Float(f));
            let (vi, vf) = (Value::Int(i), Value::Float(f));
            assert_eq!(num_cmp(&li, &lf), vi.num_cmp(vf));
            assert_eq!(num_cmp(&lf, &li), vf.num_cmp(vi));
            assert_eq!(
                num_cmp(&li, &LispVal::Int(i - 1)),
                vi.num_cmp(Value::Int(i - 1))
            );
        }
        assert_eq!(num_cmp(&LispVal::sym("a"), &LispVal::Int(1)), None);
    }

    #[test]
    fn assoc_finds_and_misses() {
        let l = acons(
            LispVal::sym("color"),
            LispVal::sym("red"),
            acons(LispVal::sym("size"), LispVal::Int(3), LispVal::Nil),
        );
        assert!(lisp_equal(
            assoc(&LispVal::sym("size"), &l).unwrap(),
            &LispVal::Int(3)
        ));
        assert!(assoc(&LispVal::sym("weight"), &l).is_none());
    }

    #[test]
    fn shadowing_prepend_wins() {
        let l = acons(LispVal::sym("x"), LispVal::Int(1), LispVal::Nil);
        let l2 = acons(LispVal::sym("x"), LispVal::Int(2), l);
        assert!(lisp_equal(
            assoc(&LispVal::sym("x"), &l2).unwrap(),
            &LispVal::Int(2)
        ));
    }
}
