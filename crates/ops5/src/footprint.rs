//! Static act-phase footprints.
//!
//! The parallel act phase fires groups of conflict-set instantiations whose
//! effects provably cannot interfere. Because RHS threaded code is
//! straight-line (no branches), everything a firing can do to working memory
//! is known *statically* per production:
//!
//! * which classes it asserts (`make`, plus the make half of `modify`),
//! * which positive CEs it consumes (`remove`, plus the remove half of
//!   `modify`) — at fire time these resolve to exact timetags, because
//!   removals always target matched-CE WMEs, and
//! * whether it halts.
//!
//! On the read side each production's LHS contributes the classes (and
//! tested attributes) it depends on, split into positive and negated
//! occurrences. A production is *fertile* when firing it could create or
//! dominate new instantiations mid-group: it makes a class some production
//! reads, or it retracts a class some production tests negatively (negation
//! unblocking). Group selection only ever places a fertile firing last.

use crate::ast::{Action, Production};
use crate::program::Program;
use crate::symbol::SymbolId;

/// Static RHS write footprint + LHS read footprint of one production.
#[derive(Debug, Clone, Default)]
pub struct ProdFootprint {
    /// Classes asserted by `make` or the make half of `modify` (sorted,
    /// deduplicated).
    pub make_classes: Vec<SymbolId>,
    /// 0-based positive-CE indices consumed by `remove`/`modify`. At fire
    /// time, `instantiation.wmes[i].timetag` for each index gives the exact
    /// retract set.
    pub retract_ces: Vec<usize>,
    /// Classes of the retracted CEs (sorted, deduplicated).
    pub retract_classes: Vec<SymbolId>,
    /// Classes of positive condition elements (sorted, deduplicated).
    pub pos_reads: Vec<SymbolId>,
    /// Classes of negated condition elements (sorted, deduplicated).
    pub neg_reads: Vec<SymbolId>,
    /// `(class, field)` pairs tested anywhere in the LHS (sorted,
    /// deduplicated). Conflict checks are class-granular (a `make` defines
    /// every field, including implicit `nil`s), but the attribute set is
    /// kept for diagnostics and finer-grained future policies.
    pub read_attrs: Vec<(SymbolId, u16)>,
    /// Whether the RHS contains `(halt)`.
    pub has_halt: bool,
}

impl ProdFootprint {
    fn of(prod: &Production) -> ProdFootprint {
        let mut fp = ProdFootprint::default();
        for ce in &prod.lhs {
            if ce.negated {
                fp.neg_reads.push(ce.class);
            } else {
                fp.pos_reads.push(ce.class);
            }
            for (field, _) in &ce.tests {
                fp.read_attrs.push((ce.class, *field));
            }
        }
        // Map a 1-based source CE index to (0-based positive index, class).
        let resolve = |ce: u16| {
            let idx = prod.positive_index(ce)?;
            let class = prod.lhs.iter().filter(|c| !c.negated).nth(idx)?.class;
            Some((idx, class))
        };
        for action in &prod.rhs {
            match action {
                Action::Make { class, .. } => fp.make_classes.push(*class),
                Action::Modify { ce, .. } => {
                    if let Some((idx, class)) = resolve(*ce) {
                        fp.retract_ces.push(idx);
                        fp.retract_classes.push(class);
                        fp.make_classes.push(class);
                    }
                }
                Action::Remove { ce } => {
                    if let Some((idx, class)) = resolve(*ce) {
                        fp.retract_ces.push(idx);
                        fp.retract_classes.push(class);
                    }
                }
                Action::Halt => fp.has_halt = true,
                Action::Write { .. } | Action::Bind { .. } => {}
            }
        }
        for v in [
            &mut fp.make_classes,
            &mut fp.retract_classes,
            &mut fp.pos_reads,
            &mut fp.neg_reads,
        ] {
            v.sort_unstable();
            v.dedup();
        }
        fp.read_attrs.sort_unstable();
        fp.read_attrs.dedup();
        fp.retract_ces.sort_unstable();
        fp.retract_ces.dedup();
        fp
    }
}

/// Per-program act footprints: one [`ProdFootprint`] per production plus the
/// derived fertility flags.
#[derive(Debug, Clone, Default)]
pub struct ActFootprints {
    pub prods: Vec<ProdFootprint>,
    /// `fertile[p]` — firing production `p` could create a new instantiation
    /// (its makes feed some production's positive or negated reads, or its
    /// retracts unblock some negation). A fertile firing may only be the
    /// *last* member of a parallel act group: anything it spawns carries
    /// fresher timetags (or newly unblocked negations) and could dominate
    /// the remainder of the group under LEX/MEA.
    pub fertile: Vec<bool>,
}

impl ActFootprints {
    pub fn new(prog: &Program) -> ActFootprints {
        let prods: Vec<ProdFootprint> = prog.productions.iter().map(ProdFootprint::of).collect();
        let mut all_reads: Vec<SymbolId> = Vec::new();
        let mut all_neg_reads: Vec<SymbolId> = Vec::new();
        for fp in &prods {
            all_reads.extend_from_slice(&fp.pos_reads);
            all_reads.extend_from_slice(&fp.neg_reads);
            all_neg_reads.extend_from_slice(&fp.neg_reads);
        }
        all_reads.sort_unstable();
        all_reads.dedup();
        all_neg_reads.sort_unstable();
        all_neg_reads.dedup();
        let fertile = prods
            .iter()
            .map(|fp| {
                let makes_read = fp
                    .make_classes
                    .iter()
                    .any(|c| all_reads.binary_search(c).is_ok());
                let unblocks_neg = fp
                    .retract_classes
                    .iter()
                    .any(|c| all_neg_reads.binary_search(c).is_ok());
                makes_read || unblocks_neg
            })
            .collect();
        ActFootprints { prods, fertile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn footprints(src: &str) -> (Program, ActFootprints) {
        let prog = Program::from_source(src).unwrap();
        let fps = ActFootprints::new(&prog);
        (prog, fps)
    }

    #[test]
    fn remove_only_rules_are_infertile() {
        let (prog, fps) = footprints(
            "(literalize t a)\n\
             (p r (t ^a <x>) --> (write <x>) (remove 1))",
        );
        let t = prog.symbols.get("t").unwrap();
        let fp = &fps.prods[0];
        assert!(fp.make_classes.is_empty());
        assert_eq!(fp.retract_ces, vec![0]);
        assert_eq!(fp.retract_classes, vec![t]);
        assert_eq!(fp.pos_reads, vec![t]);
        assert!(!fp.has_halt);
        assert!(!fps.fertile[0], "no production reads what r writes");
    }

    #[test]
    fn modify_is_retract_plus_make_and_fertile_when_class_is_read() {
        let (prog, fps) = footprints(
            "(literalize t a)\n\
             (p bump (t ^a <x>) --> (modify 1 ^a 2))",
        );
        let t = prog.symbols.get("t").unwrap();
        let fp = &fps.prods[0];
        assert_eq!(fp.make_classes, vec![t]);
        assert_eq!(fp.retract_ces, vec![0]);
        assert!(
            fps.fertile[0],
            "modify re-asserts a class bump itself reads"
        );
    }

    #[test]
    fn retract_feeding_negation_is_fertile() {
        let (prog, fps) = footprints(
            "(literalize a x)(literalize b x)\n\
             (p consume (a ^x <v>) --> (remove 1))\n\
             (p blocked (b ^x <v>) - (a ^x <v>) --> (write go))",
        );
        let a = prog.symbols.get("a").unwrap();
        assert!(
            fps.fertile[0],
            "removing `a` can unblock `blocked`'s negated CE"
        );
        assert_eq!(fps.prods[1].neg_reads, vec![a]);
        assert!(!fps.fertile[1]);
    }

    #[test]
    fn halt_flag() {
        let (_, fps) = footprints(
            "(literalize t a)\n\
             (p g (t ^a <x>) --> (bind <g1>) (bind <g2>) (bind <e> (compute <x> + 1)) (halt))",
        );
        assert!(fps.prods[0].has_halt);
    }

    #[test]
    fn negated_ce_does_not_shift_positive_indices() {
        let (prog, fps) = footprints(
            "(literalize a x)(literalize b x)(literalize c x)\n\
             (p p0 (a ^x <v>) - (b ^x <v>) (c ^x <v>) --> (remove 3))",
        );
        let c = prog.symbols.get("c").unwrap();
        let fp = &fps.prods[0];
        // Source `remove 3` counts all CEs; the parser stores the 1-based
        // positive index (2), so the footprint lands on instantiation slot 1.
        assert_eq!(fp.retract_ces, vec![1]);
        assert_eq!(fp.retract_classes, vec![c]);
    }
}
