//! Synthetic workloads for ablation benchmarks.
//!
//! These isolate single phenomena the paper discusses: cross-product joins
//! (hash-line serialization), wide independent matches (best-case
//! parallelism), long dependency chains (no parallelism), memory-size
//! scaling (vs1 vs vs2 gap), and the firing that modifies everything it
//! matched (what the order inside a batch costs).

use crate::{SetupVal, SetupWme, Workload};
use engine::Engine;

fn expect_output(marker: &'static str) -> crate::Validator {
    Box::new(move |e: &Engine| {
        if e.output().iter().any(|l| l.contains(marker)) {
            Ok(())
        } else {
            Err(format!("missing '{marker}' output"))
        }
    })
}

/// Cross-product pathology: pairs every `a` with every `b` (no shared
/// variables), consuming pairs one per cycle.
pub fn cross_product(n: usize) -> Workload {
    let source = "(p pair
  (ctl ^left <k>)
  (a ^v <x> ^used no)
  (b ^w <y>)
  - (hit ^x <x> ^y <y>)
  -->
  (make hit ^x <x> ^y <y>)
  (modify 1 ^left (compute <k> - 1)))
(p done
  (ctl ^left 0)
  -->
  (write pairs done (crlf))
  (halt))"
        .to_string();
    let mut setup = Vec::new();
    for i in 0..n {
        setup.push(SetupWme::new(
            "a",
            &[
                ("v", SetupVal::Int(i as i64)),
                ("used", SetupVal::sym("no")),
            ],
        ));
        setup.push(SetupWme::new("b", &[("w", SetupVal::Int(i as i64))]));
    }
    setup.push(SetupWme::new(
        "ctl",
        &[("left", SetupVal::Int((n * n) as i64))],
    ));
    Workload {
        name: format!("synth-cross-product({n})"),
        source,
        setup,
        max_cycles: (n * n) as u64 + 10,
        validate: expect_output("pairs done"),
    }
}

/// Wide independent work: `groups` independent keyed joins, each consumed
/// once; friendly to parallel match.
pub fn wide_independent(groups: usize) -> Workload {
    let source = "(p join
  (ctl ^left <k>)
  (a ^key <g> ^done no)
  (b ^key <g>)
  -->
  (modify 2 ^done yes)
  (modify 1 ^left (compute <k> - 1)))
(p done
  (ctl ^left 0)
  -->
  (write wide done (crlf))
  (halt))"
        .to_string();
    let mut setup = Vec::new();
    for g in 0..groups {
        setup.push(SetupWme::new(
            "a",
            &[
                ("key", SetupVal::Int(g as i64)),
                ("done", SetupVal::sym("no")),
            ],
        ));
        setup.push(SetupWme::new("b", &[("key", SetupVal::Int(g as i64))]));
    }
    setup.push(SetupWme::new(
        "ctl",
        &[("left", SetupVal::Int(groups as i64))],
    ));
    Workload {
        name: format!("synth-wide({groups})"),
        source,
        setup,
        max_cycles: groups as u64 + 10,
        validate: expect_output("wide done"),
    }
}

/// A pure dependency chain: token `i` enables token `i+1`.
pub fn long_chain(depth: usize) -> Workload {
    let source = "(p step
  (tok ^n <n> ^limit > <n>)
  -->
  (modify 1 ^n (compute <n> + 1)))
(p done
  (tok ^n <n> ^limit <n>)
  -->
  (write chain done (crlf))
  (halt))"
        .to_string();
    let setup = vec![SetupWme::new(
        "tok",
        &[
            ("n", SetupVal::Int(0)),
            ("limit", SetupVal::Int(depth as i64)),
        ],
    )];
    Workload {
        name: format!("synth-chain({depth})"),
        source,
        setup,
        max_cycles: depth as u64 + 10,
        validate: expect_output("chain done"),
    }
}

/// Memory-size scaling: one join whose right memory holds `m` tokens per
/// key; exercises the vs1/vs2 gap (Table 4-2's mechanism).
pub fn fat_memories(keys: usize, per_key: usize) -> Workload {
    let source = "(p probe
  (q ^key <g> ^served no)
  (item ^key <g> ^v <v>)
  -->
  (modify 1 ^served yes))
(p finish
  (ctl ^tag go)
  - (q ^served no)
  -->
  (write fat done (crlf))
  (halt))"
        .to_string();
    let mut setup = Vec::new();
    for k in 0..keys {
        for v in 0..per_key {
            setup.push(SetupWme::new(
                "item",
                &[
                    ("key", SetupVal::Int(k as i64)),
                    ("v", SetupVal::Int(v as i64)),
                ],
            ));
        }
        setup.push(SetupWme::new(
            "q",
            &[
                ("key", SetupVal::Int(k as i64)),
                ("served", SetupVal::sym("no")),
            ],
        ));
    }
    setup.push(SetupWme::new("ctl", &[("tag", SetupVal::sym("go"))]));
    Workload {
        name: format!("synth-fat({keys}x{per_key})"),
        source,
        setup,
        max_cycles: (keys * 2) as u64 + 20,
        validate: expect_output("fat done"),
    }
}

/// Exercises all four not-node arms (left/right x add/remove) with both
/// empty and populated opposite memories, beside a positive three-CE chain.
pub const NEGATED: &str = "
(literalize item id state)
(literalize lock id)
(literalize done id)
(p claim (item ^id <i> ^state new) - (lock ^id <i>) - (done ^id <i>)
  --> (make lock ^id <i>) (modify 1 ^state held))
(p release (item ^id <i> ^state held) (lock ^id <i>) - (done ^id <i>)
  --> (remove 2) (make done ^id <i>) (modify 1 ^state idle))
(p retire (item ^id <i> ^state idle) - (lock ^id <i>) (done ^id <i>)
  --> (remove 1) (remove 3))
(p steal (item ^id <i> ^state new) (lock ^id <i>)
  --> (remove 2))
";

/// The Rubik idiom at a chosen depth: one production matches a control
/// element and `k - 1` slots, each through a CE only that slot passes,
/// rotates what the slots hold (one `modify` per slot, CEs 2..k in order)
/// and modifies the control element last. As written every `modify` but
/// the last rebuilds the chain below its CE for an instantiation the last
/// one retracts.
pub fn carousel(k: usize, turns: usize) -> Workload {
    assert!(k >= 3, "a control element and at least two slots");
    let slots = k - 1;
    let mut source = String::from("(p rotate\n  (turn ^n <n> ^limit > <n>)\n");
    for pos in 1..=slots {
        source += &format!("  (slot ^pos {pos} ^holds <h{pos}>)\n");
    }
    source += "  -->\n";
    for pos in 1..=slots {
        let from = if pos == 1 { slots } else { pos - 1 };
        source += &format!("  (modify {} ^holds <h{from}>)\n", pos + 1);
    }
    source += "  (modify 1 ^n (compute <n> + 1)))
(p done
  (turn ^n <n> ^limit <n>)
  -->
  (write carousel done (crlf))
  (halt))";
    // The control element first and the slots last-to-first: every join
    // meets an empty opposite memory once on the way in.
    let mut setup = vec![SetupWme::new(
        "turn",
        &[
            ("n", SetupVal::Int(0)),
            ("limit", SetupVal::Int(turns as i64)),
        ],
    )];
    for pos in (1..=slots).rev() {
        setup.push(SetupWme::new(
            "slot",
            &[
                ("pos", SetupVal::Int(pos as i64)),
                ("holds", SetupVal::Int(pos as i64)),
            ],
        ));
    }
    Workload {
        name: format!("synth-carousel({k} CEs, {turns} turns)"),
        source,
        setup,
        max_cycles: turns as u64 + 10,
        validate: expect_output("carousel done"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_workload, MatcherChoice};
    use psm::PsmConfig;

    #[test]
    fn cross_product_completes() {
        let w = cross_product(4);
        let (_e, res) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
        assert_eq!(res.cycles, 17, "16 pairs + done");
    }

    #[test]
    fn wide_completes_under_parallel_matcher() {
        let w = wide_independent(12);
        let (_e, res) = run_workload(&w, &MatcherChoice::Psm(PsmConfig::default())).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }

    #[test]
    fn chain_completes() {
        let w = long_chain(25);
        let (_e, res) = run_workload(&w, &MatcherChoice::Vs1).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
        assert_eq!(res.cycles, 26);
    }

    #[test]
    fn carousel_turns_and_halts() {
        let w = carousel(6, 7);
        let (e, res) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
        assert_eq!(res.cycles, 8, "7 turns + done");
        // Each firing: k deletes and k adds, in one batch.
        assert_eq!(e.match_stats().wme_changes, 6 + 7 * 12);
    }

    #[test]
    fn fat_memories_completes() {
        let w = fat_memories(5, 20);
        let (_e, res) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }

    #[test]
    fn vs1_examines_more_than_vs2_on_fat_memories() {
        let w = fat_memories(8, 30);
        let (e1, _) = run_workload(&w, &MatcherChoice::Vs1).unwrap();
        let w = fat_memories(8, 30);
        let (e2, _) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        let s1 = e1.match_stats();
        let s2 = e2.match_stats();
        assert!(
            s1.opp_tokens_right > s2.opp_tokens_right,
            "vs1 {} vs vs2 {}",
            s1.opp_tokens_right,
            s2.opp_tokens_right
        );
    }
}
