//! Network rendering — regenerates the paper's Figure 2-2.
//!
//! Two outputs: Graphviz `dot` source, and a compact text listing for
//! terminals. Both show the shared constant-test layer, the coalesced
//! memory/two-input nodes, and the terminal nodes.

use crate::network::{AlphaSucc, AlphaTestKind, Network, Succ};
use ops5::{Pred, SymbolTable, Value};

fn pred_str(p: Pred) -> &'static str {
    match p {
        Pred::Eq => "=",
        Pred::Ne => "<>",
        Pred::Lt => "<",
        Pred::Le => "<=",
        Pred::Gt => ">",
        Pred::Ge => ">=",
        Pred::SameType => "<=>",
    }
}

fn val_str(v: Value, syms: &SymbolTable) -> String {
    format!("{}", v.display(syms))
}

/// Graphviz rendering of the network.
pub fn to_dot(net: &Network, syms: &SymbolTable) -> String {
    let mut s = String::new();
    s.push_str("digraph rete {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
    s.push_str("  root [shape=circle label=\"root\"];\n");
    for pat in &net.patterns {
        let mut label = format!("class={}", syms.name(pat.class));
        for t in pat.tests.iter() {
            match &t.kind {
                AlphaTestKind::Pred(p, v) => label.push_str(&format!(
                    "\\nf{}{}{}",
                    t.field,
                    pred_str(*p),
                    val_str(*v, syms)
                )),
                AlphaTestKind::Disj(vs) => {
                    let alts: Vec<String> = vs.iter().map(|v| val_str(*v, syms)).collect();
                    label.push_str(&format!("\\nf{}∈{{{}}}", t.field, alts.join(",")));
                }
                AlphaTestKind::FieldCmp(p, f2) => {
                    label.push_str(&format!("\\nf{}{}f{}", t.field, pred_str(*p), f2))
                }
            }
        }
        s.push_str(&format!(
            "  a{} [shape=box label=\"{}\"];\n  root -> a{};\n",
            pat.id, label, pat.id
        ));
    }
    for j in &net.joins {
        let kind = if j.negated { "not-node" } else { "mem/two-inp" };
        let mut label = format!("{} #{}", kind, j.id);
        for t in j.tests.iter() {
            label.push_str(&format!(
                "\\nR.f{} {} L[{}].f{}",
                t.right_field,
                pred_str(t.pred),
                t.left_ce,
                t.left_field
            ));
        }
        s.push_str(&format!(
            "  j{} [shape=ellipse label=\"{}\"];\n",
            j.id, label
        ));
    }
    for (i, name) in net.prod_names.iter().enumerate() {
        s.push_str(&format!("  t{i} [shape=doubleoctagon label=\"{name}\"];\n"));
    }
    for pat in &net.patterns {
        for succ in &pat.succs {
            match succ {
                AlphaSucc::JoinLeft(j) => {
                    s.push_str(&format!("  a{} -> j{} [label=\"L\"];\n", pat.id, j))
                }
                AlphaSucc::JoinRight(j) => {
                    s.push_str(&format!("  a{} -> j{} [label=\"R\"];\n", pat.id, j))
                }
                AlphaSucc::Terminal(p) => s.push_str(&format!("  a{} -> t{};\n", pat.id, p.0)),
            }
        }
    }
    for j in &net.joins {
        // A shared join renders once; each successor gets its own edge.
        for succ in &j.succs {
            match *succ {
                Succ::Join(n) => s.push_str(&format!("  j{} -> j{} [label=\"L\"];\n", j.id, n)),
                Succ::Terminal(p) => s.push_str(&format!("  j{} -> t{};\n", j.id, p.0)),
            }
        }
    }
    s.push_str("}\n");
    s
}

/// Compact text summary: one line per node, indented by layer.
pub fn to_text(net: &Network, syms: &SymbolTable) -> String {
    let mut s = String::new();
    s.push_str("root\n");
    for pat in &net.patterns {
        s.push_str(&format!(
            "  const-test a{}: class={} ({} tests) -> {:?}\n",
            pat.id,
            syms.name(pat.class),
            pat.tests.len(),
            pat.succs
        ));
    }
    for j in &net.joins {
        s.push_str(&format!(
            "    {} j{}: prod={} left_len={} tests={} eq={} -> {:?}\n",
            if j.negated { "not " } else { "join" },
            j.id,
            net.prod_names[j.prod.index()],
            j.left_len,
            j.tests.len(),
            j.eq_specs.len(),
            j.succs
        ));
    }
    for name in &net.prod_names {
        s.push_str(&format!("      terminal: {name}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use ops5::Program;

    #[test]
    fn figure_2_2_dot_output() {
        let prog = Program::from_source(
            "(p p1 (C1 ^attr1 <x> ^attr2 12)
                   (C2 ^attr1 15 ^attr2 <x>)
                 - (C3 ^attr1 <x>)
               --> (remove 2))
             (p p2 (C2 ^attr1 15 ^attr2 <y>)
                   (C4 ^attr1 <y>)
               --> (modify 1 ^attr1 12))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        let dot = to_dot(&net, &prog.symbols);
        assert!(dot.contains("digraph rete"));
        assert!(dot.contains("class=C2"));
        assert!(dot.contains("not-node"));
        assert!(dot.contains("p1"));
        assert!(dot.contains("p2"));
        // Shared C2 pattern: exactly one node bearing its label.
        assert_eq!(dot.matches("class=C2").count(), 1);

        let txt = to_text(&net, &prog.symbols);
        assert!(txt.contains("root"));
        assert!(txt.contains("terminal: p1"));
    }

    #[test]
    fn single_ce_production_renders_direct_terminal_edge() {
        let prog = Program::from_source("(p solo (a ^x 1) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let dot = to_dot(&net, &prog.symbols);
        assert!(
            dot.contains("a0 -> t0"),
            "alpha connects straight to terminal: {dot}"
        );
        assert!(!dot.contains("j0"), "no joins for a single-CE production");
    }

    #[test]
    fn disjunction_and_fieldcmp_render() {
        let prog = Program::from_source(
            "(p q (a ^x << red green >> ^y <v> ^z <v>) (b ^w > <v>) --> (halt))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        let dot = to_dot(&net, &prog.symbols);
        assert!(dot.contains("∈{red,green}"), "{dot}");
        assert!(
            dot.contains("f2=f1") || dot.contains("f2=f"),
            "fieldcmp rendered: {dot}"
        );
        assert!(dot.contains(" > "), "join predicate rendered: {dot}");
    }

    #[test]
    fn shared_join_renders_once_with_multiple_successor_edges() {
        let prog = Program::from_source(
            "(p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
             (p p2 (a ^x <v>) (b ^y <v>) (d ^w <v>) --> (halt))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        let dot = to_dot(&net, &prog.symbols);
        // One shared (a,b) join node, drawn once...
        assert_eq!(dot.matches("j0 [shape=ellipse").count(), 1);
        // ...with one left edge to each downstream join.
        assert!(dot.contains("j0 -> j1 [label=\"L\"];"));
        assert!(dot.contains("j0 -> j2 [label=\"L\"];"));
        let txt = to_text(&net, &prog.symbols);
        assert!(txt.contains("-> [Join(1), Join(2)]"), "{txt}");
    }

    #[test]
    fn dot_output_is_deterministic() {
        let src = "(p a (x ^k 1) (y ^k 2) --> (halt)) (p b (x ^k 1) --> (halt))";
        let p1 = Program::from_source(src).unwrap();
        let p2 = Program::from_source(src).unwrap();
        let d1 = to_dot(&Network::compile(&p1).unwrap(), &p1.symbols);
        let d2 = to_dot(&Network::compile(&p2).unwrap(), &p2.symbols);
        assert_eq!(d1, d2);
    }
}
