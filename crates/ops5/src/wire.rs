//! Protocol-facing WME parse/print helpers.
//!
//! The serve layer speaks a line-oriented text protocol in which working-
//! memory elements travel as OPS5 `make`-style bodies: `class ^attr value
//! ...`. These helpers convert between that text form and the resolved
//! `(class, fields)` representation the engine ingests, using a program's
//! symbol and class tables so attribute names map to the same field slots
//! the compiled network tests.

use crate::error::{Ops5Error, Result};
use crate::lexer::{literal, TokKind};
use crate::program::ClassTable;
use crate::symbol::{SymbolId, SymbolTable};
use crate::value::Value;
use crate::wme::Wme;

/// Parses one value token: integer, float, or (interned) symbol, by the
/// source lexer's own rule ([`literal`]), so a constant in a rule and the
/// same text asserted by a client are the same value.
pub fn parse_value(token: &str, symbols: &mut SymbolTable) -> Value {
    match literal(token) {
        TokKind::Int(i) => Value::Int(i),
        TokKind::Float(x) => Value::Float(x),
        _ => Value::Sym(symbols.intern(token)),
    }
}

/// Parses a `class ^attr value ^attr value ...` WME body into the class
/// symbol and a field vector sized to the class arity.
///
/// Resolution is *strict*, unlike the engine's auto-extending `make_wme`
/// path: the class and every attribute must already be declared by the
/// loaded program. A protocol peer must not be able to grow a class layout
/// past what the compiled network tests.
pub fn parse_wme_text(
    text: &str,
    symbols: &mut SymbolTable,
    classes: &ClassTable,
) -> Result<(SymbolId, Vec<Value>)> {
    let mut toks = text.split_whitespace();
    let class_name = toks
        .next()
        .ok_or_else(|| Ops5Error::Runtime("empty WME text".into()))?;
    let class = symbols
        .get(class_name)
        .filter(|c| classes.info(*c).is_some())
        .ok_or_else(|| Ops5Error::Runtime(format!("unknown class `{class_name}`")))?;
    let info = classes.info(class).expect("checked above");
    let mut sets: Vec<(u16, Value)> = Vec::new();
    while let Some(t) = toks.next() {
        let attr_name = t
            .strip_prefix('^')
            .ok_or_else(|| Ops5Error::Runtime(format!("expected ^attr, got `{t}`")))?;
        if attr_name.is_empty() {
            return Err(Ops5Error::Runtime("empty attribute name after ^".into()));
        }
        let val_tok = toks
            .next()
            .ok_or_else(|| Ops5Error::Runtime(format!("^{attr_name} has no value")))?;
        let field = symbols
            .get(attr_name)
            .and_then(|a| info.field_of(a))
            .ok_or_else(|| {
                Ops5Error::Runtime(format!(
                    "attribute ^{attr_name} not declared for class `{class_name}`"
                ))
            })?;
        let value = parse_value(val_tok, symbols);
        sets.push((field, value));
    }
    let mut fields = vec![Value::NIL; info.arity() as usize];
    for (f, v) in sets {
        let f = f as usize;
        if f >= fields.len() {
            fields.resize(f + 1, Value::NIL);
        }
        fields[f] = v;
    }
    Ok((class, fields))
}

/// Renders a WME back to the protocol's `(class ^attr value ...)` form,
/// naming fields from the class table (falling back to positional indices
/// for undeclared slots). The output of [`print_wme`] parses back through
/// [`parse_wme_text`] once the surrounding parentheses are stripped.
pub fn print_wme(wme: &Wme, symbols: &SymbolTable, classes: &ClassTable) -> String {
    let attrs: &[SymbolId] = classes.info(wme.class).map(|i| &i.attrs[..]).unwrap_or(&[]);
    wme.display(symbols, attrs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn fixture() -> Program {
        Program::from_source("(literalize block name on clear)").unwrap()
    }

    #[test]
    fn parse_resolves_attrs_to_fields() {
        let mut p = fixture();
        let (class, fields) =
            parse_wme_text("block ^on table ^name a", &mut p.symbols, &p.classes).unwrap();
        assert_eq!(class, p.symbols.get("block").unwrap());
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], Value::Sym(p.symbols.get("a").unwrap()));
        assert_eq!(fields[1], Value::Sym(p.symbols.get("table").unwrap()));
        assert!(fields[2].is_nil());
    }

    #[test]
    fn parse_value_kinds() {
        let mut p = fixture();
        let (_, fields) =
            parse_wme_text("block ^name 42 ^on 2.5", &mut p.symbols, &p.classes).unwrap();
        assert_eq!(fields[0], Value::Int(42));
        assert_eq!(fields[1], Value::Float(2.5));
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut p = fixture();
        assert!(parse_wme_text("", &mut p.symbols, &p.classes).is_err());
        assert!(parse_wme_text("block name a", &mut p.symbols, &p.classes).is_err());
        assert!(parse_wme_text("block ^name", &mut p.symbols, &p.classes).is_err());
        assert!(
            parse_wme_text("block ^bogus 1", &mut p.symbols, &p.classes).is_err(),
            "undeclared attribute must not resolve"
        );
    }

    #[test]
    fn print_roundtrips_through_parse() {
        let mut p = fixture();
        let (class, fields) = parse_wme_text(
            "block ^name a ^on table ^clear yes",
            &mut p.symbols,
            &p.classes,
        )
        .unwrap();
        let w = Wme::new(class, fields.clone(), 7);
        let printed = print_wme(&w, &p.symbols, &p.classes);
        assert_eq!(printed, "(block ^name a ^on table ^clear yes)");
        let inner = printed.trim_start_matches('(').trim_end_matches(')');
        let (class2, fields2) = parse_wme_text(inner, &mut p.symbols, &p.classes).unwrap();
        assert_eq!(class2, class);
        assert_eq!(fields2, fields);
    }
}
