//! Network types and the LHS → network compiler.
//!
//! The compiled network has two layers, matching §2.2:
//!
//! * the **alpha network**: per-class lists of *alpha patterns*, each a flat
//!   array of constant/intra-element tests with pre-resolved field indices.
//!   Identical patterns are shared across condition elements and productions
//!   (the constant-test-node sharing visible in Figure 2-2). Beside the
//!   list the compiler builds a discrimination index per class
//!   ([`ClassPatterns`]: the patterns hashed on the constant they compare
//!   one field with), so vs1, vs2 and `col` look a change's candidate
//!   patterns up instead of walking the class; psm and `psm::trace` walk
//!   the list, the chain the trace cost model charges for;
//! * the **beta network**: one chain of coalesced memory/two-input
//!   [`JoinNode`]s per production (memory nodes are folded into the join
//!   below them, §3.1, and are not shared across productions — paper
//!   footnote 6). Negated condition elements compile to not-nodes, which are
//!   join nodes with a per-left-token match counter.
//!
//! Beside the paper's per-join memories the compiler also records which
//! joins *could* read one right memory: [`RightMemSpec`] groups the right
//! inputs of an alpha pattern by the fields their equality tests hash
//! ([`JoinNode::right_mem`]). psm and `psm::trace` ignore it (footnote 6
//! stands for them, and for the tables and traces built on them); vs1, vs2,
//! lispsim and `col` store each WME once per group and never look
//! at a reader whose left memory is empty (each keeps the live ones on a
//! linked list per memory; the network itself is immutable and shared by
//! every session of a compiled program).
//!
//! With [`NetworkOptions::sharing`] enabled (off by default — the paper's
//! configuration keeps the chains linear), identical join-chain *prefixes*
//! are deduped across productions exactly like alpha patterns, turning the
//! beta layer into a DAG of multi-successor joins;
//! [`NetworkOptions::unlinking`] additionally lets psm and `psm::trace` skip
//! null activations (two-input activations whose opposite memory is empty).
//!
//! All variable occurrences are resolved at compile time into either
//! intra-element field comparisons (alpha) or inter-element [`JoinTest`]s
//! (beta); the equality subset of the join tests is extracted into
//! [`EqSpec`]s that drive the token hash tables of §3.2.

use crate::fxhash::{self, FxHashMap};
use crate::token::Token;
use ops5::ast::{AttrTest, TestAtom};
use ops5::{Ops5Error, Pred, ProdId, Program, SymbolId, Value, Wme};

pub type JoinId = u32;
pub type AlphaPatternId = u32;
pub type RightMemId = u32;

/// One constant-test-node test, pre-compiled to a field index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AlphaTest {
    pub field: u16,
    pub kind: AlphaTestKind,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AlphaTestKind {
    /// `field PRED constant`
    Pred(Pred, Value),
    /// `field ∈ { v1, v2, ... }` (OPS5 `<< ... >>`)
    Disj(Box<[Value]>),
    /// Intra-element variable consistency: `field PRED field2` on the same
    /// WME (e.g. `(c ^a <x> ^b <x>)`).
    FieldCmp(Pred, u16),
}

impl AlphaTest {
    #[inline]
    pub fn passes(&self, wme: &Wme) -> bool {
        let v = wme.field(self.field);
        match &self.kind {
            AlphaTestKind::Pred(p, r) => p.eval(v, *r),
            AlphaTestKind::Disj(vs) => vs.contains(&v),
            AlphaTestKind::FieldCmp(p, f2) => p.eval(v, wme.field(*f2)),
        }
    }
}

/// Where a passing WME goes from an alpha pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlphaSucc {
    /// Becomes a 1-WME token entering the left memory of this join (the
    /// production's first condition element).
    JoinLeft(JoinId),
    /// Enters the right memory of this join (condition elements 2..n).
    JoinRight(JoinId),
    /// Single-CE production: straight to the conflict set.
    Terminal(ProdId),
}

impl AlphaSucc {
    /// The successor a passing WME reaches as a 1-WME token; `None` for a
    /// right input, which the pattern's right memories serve.
    #[inline]
    pub(crate) fn left_input(self) -> Option<Succ> {
        match self {
            AlphaSucc::JoinLeft(j) => Some(Succ::Join(j)),
            AlphaSucc::Terminal(p) => Some(Succ::Terminal(p)),
            AlphaSucc::JoinRight(_) => None,
        }
    }
}

/// A shared constant-test chain endpoint.
#[derive(Debug, Clone)]
pub struct AlphaPattern {
    pub id: AlphaPatternId,
    pub class: SymbolId,
    pub tests: Box<[AlphaTest]>,
    pub succs: Vec<AlphaSucc>,
    /// The shared right memories this pattern's passing WMEs are stored in
    /// (one per distinct equality signature among its `JoinRight` successors).
    pub right_mems: Vec<RightMemId>,
}

impl AlphaPattern {
    /// Runs the constant-test chain on `wme`, stopping at the first failing
    /// test, and adds the tests it evaluated to `evaluated`
    /// ([`ops5::MatchStats::alpha_tests`]).
    #[inline]
    pub fn passes(&self, wme: &Wme, evaluated: &mut u64) -> bool {
        self.tests.iter().all(|t| {
            *evaluated += 1;
            t.passes(wme)
        })
    }
}

/// A right memory shared by every join whose right input is the same alpha
/// pattern hashed on the same fields. Entries are keyed by
/// [`RightMemSpec::key`], which — unlike [`JoinNode::right_key`] — leaves
/// the join id out, so one stored WME serves all `readers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RightMemSpec {
    pub pattern: AlphaPatternId,
    /// The signature: `eq_specs[..].right_field` of every reader, in order.
    pub fields: Box<[u16]>,
    /// The joins and not-nodes reading this memory, ascending.
    pub readers: Vec<JoinId>,
}

impl RightMemSpec {
    /// Hash key of a WME stored in this memory. Equal to
    /// [`JoinNode::shared_key`] of any token it can pair with at a reader.
    #[inline]
    pub fn key(&self, wme: &Wme) -> u64 {
        self.fields
            .iter()
            .fold(0, |h, &f| hash_value(h, wme.field(f)))
    }
}

/// The alpha patterns of one class, and the discrimination index over them.
///
/// The patterns of a class mostly tell themselves apart by the constant one
/// field is compared with (Rubik: 50 patterns per change evaluated to find
/// the one that passes), so the compiler picks the field most of them test
/// with `= constant` and hashes those patterns on the constant. A change
/// then looks its own value of that field up and runs the full test lists
/// of the patterns under it plus the `residual` ones — the patterns with no
/// such test, which any value can pass. [`Value`]'s `Eq`/`Hash` are
/// variant-exact exactly as [`Pred::Eq`] is (`1` never finds `1.0`), and an
/// absent field reads as `nil` on both sides, so the candidates are a
/// superset of the passing patterns. psm and `psm::trace` walk `all`, the
/// paper's linear constant-test chain.
#[derive(Debug, Clone, Default)]
pub struct ClassPatterns {
    /// Every pattern of the class, ascending.
    all: Vec<AlphaPatternId>,
    /// The indexed field (unused while `by_const` is empty).
    field: u16,
    /// Patterns testing `field = constant`, by constant; each list ascending.
    by_const: FxHashMap<Value, Vec<AlphaPatternId>>,
    /// Patterns without such a test, ascending.
    residual: Vec<AlphaPatternId>,
}

impl ClassPatterns {
    /// The patterns `wme` can pass, ascending: agenda order — and with it
    /// conflict-set change order — is that of the linear chain.
    #[inline]
    pub fn candidates(&self, wme: &Wme) -> Candidates<'_> {
        let hit = self.by_const.get(&wme.field(self.field));
        Candidates {
            indexed: hit.map_or(&[], Vec::as_slice),
            residual: &self.residual,
        }
    }

    /// Picks the field most patterns test with `= constant` (the lowest
    /// such field on a tie) and files every pattern under its constant or
    /// as residual. A pattern testing the field against two constants can
    /// pass neither; it is filed under the first and fails its chain there.
    fn build_index(&mut self, patterns: &[AlphaPattern]) {
        let const_on = |pid: AlphaPatternId, field: u16| {
            let tests = patterns[pid as usize].tests.iter();
            tests
                .filter(|t| t.field == field)
                .find_map(|t| match t.kind {
                    AlphaTestKind::Pred(Pred::Eq, c) => Some(c),
                    _ => None,
                })
        };
        let mut fields: Vec<u16> = (self.all.iter())
            .flat_map(|&pid| patterns[pid as usize].tests.iter().map(|t| t.field))
            .collect();
        fields.sort_unstable();
        fields.dedup();
        let users = |&f: &u16| {
            self.all
                .iter()
                .filter(|&&p| const_on(p, f).is_some())
                .count()
        };
        // `max_by_key` keeps the last maximum: reversed, the lowest field.
        let best = fields.iter().rev().max_by_key(|f| users(f));
        self.field = best.copied().unwrap_or(0);
        for &pid in &self.all {
            match const_on(pid, self.field) {
                Some(c) => self.by_const.entry(c).or_default().push(pid),
                None => self.residual.push(pid),
            }
        }
    }
}

/// [`ClassPatterns::candidates`]: two ascending lists merged.
pub struct Candidates<'a> {
    indexed: &'a [AlphaPatternId],
    residual: &'a [AlphaPatternId],
}

impl Iterator for Candidates<'_> {
    type Item = AlphaPatternId;

    #[inline]
    fn next(&mut self) -> Option<AlphaPatternId> {
        let from = match (self.indexed.first(), self.residual.first()) {
            (Some(a), Some(b)) if a < b => &mut self.indexed,
            (_, Some(_)) => &mut self.residual,
            (Some(_), None) => &mut self.indexed,
            (None, None) => return None,
        };
        let (&first, rest) = from.split_first()?;
        *from = rest;
        Some(first)
    }
}

/// An inter-element test: `wme.field(right_field) PRED token[left_ce].field(left_field)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinTest {
    pub pred: Pred,
    /// Index into the left token's WME list (positive CEs only).
    pub left_ce: u16,
    pub left_field: u16,
    pub right_field: u16,
}

/// The equality subset of a join's tests, used to compute hash-table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqSpec {
    pub left_ce: u16,
    pub left_field: u16,
    pub right_field: u16,
}

/// Successor of a join node. In the paper-faithful configuration every join
/// has exactly one successor (chains are linear — no beta sharing); with
/// [`NetworkOptions::sharing`] a join may feed several downstream joins
/// and/or terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Succ {
    Join(JoinId),
    Terminal(ProdId),
}

/// A coalesced memory/two-input node (or not-node when `negated`).
#[derive(Debug, Clone)]
pub struct JoinNode {
    pub id: JoinId,
    /// The production that first created this join. With sharing enabled a
    /// join can serve several productions — diagnostics only.
    pub prod: ProdId,
    /// Source CE index (0-based over all CEs) — diagnostics only.
    pub ce_index: u16,
    pub negated: bool,
    /// Length of tokens arriving on the left input.
    pub left_len: u16,
    pub tests: Box<[JoinTest]>,
    pub eq_specs: Box<[EqSpec]>,
    /// The shared right memory whose signature is this join's `eq_specs`
    /// right fields (read by vs1, vs2, lispsim and `col`; psm and
    /// `psm::trace` keep a private one per join).
    pub right_mem: RightMemId,
    pub succs: Vec<Succ>,
}

/// The equality signature a right memory is keyed on.
fn right_sig(eq_specs: &[EqSpec]) -> impl Iterator<Item = u16> + Clone + '_ {
    eq_specs.iter().map(|s| s.right_field)
}

#[inline]
fn hash_value(seed: u64, v: Value) -> u64 {
    match v {
        Value::Sym(s) => fxhash::mix(fxhash::mix(seed, 0), s.0 as u64),
        Value::Int(i) => fxhash::mix(fxhash::mix(seed, 1), i as u64),
        Value::Float(f) => fxhash::mix(fxhash::mix(seed, 2), f.to_bits()),
    }
}

/// Join-test left operands capacity for the stack-resolved fast path.
pub const MAX_RESOLVED_TESTS: usize = 8;

/// The left token's join-test operands, resolved once per left activation.
///
/// A left activation compares one token against every candidate WME in the
/// opposite line; resolving `token[left_ce].field(left_field)` once turns
/// the per-candidate work into flat field-vs-value compares instead of
/// repeated token-chain walks. Held entirely on the stack.
pub enum LeftOperands {
    Inline {
        vals: [Value; MAX_RESOLVED_TESTS],
        len: u8,
    },
    /// More tests than the inline capacity (vanishingly rare): fall back to
    /// per-candidate [`JoinNode::passes`].
    Overflow,
}

impl JoinNode {
    /// Do all inter-element tests pass for this (token, wme) pair?
    #[inline]
    pub fn passes(&self, token: &Token, wme: &Wme) -> bool {
        self.tests.iter().all(|t| {
            t.pred.eval(
                wme.field(t.right_field),
                token.value(t.left_ce, t.left_field),
            )
        })
    }

    /// Resolve the left operands of all join tests against `token`.
    #[inline]
    pub fn resolve_left(&self, token: &Token) -> LeftOperands {
        if self.tests.len() > MAX_RESOLVED_TESTS {
            return LeftOperands::Overflow;
        }
        let mut vals = [Value::Int(0); MAX_RESOLVED_TESTS];
        for (v, t) in vals.iter_mut().zip(self.tests.iter()) {
            *v = token.value(t.left_ce, t.left_field);
        }
        LeftOperands::Inline {
            vals,
            len: self.tests.len() as u8,
        }
    }

    /// [`JoinNode::passes`] against pre-resolved left operands.
    #[inline]
    pub fn passes_resolved(&self, ops: &LeftOperands, token: &Token, wme: &Wme) -> bool {
        match ops {
            LeftOperands::Inline { vals, .. } => self
                .tests
                .iter()
                .zip(vals.iter())
                .all(|(t, lv)| t.pred.eval(wme.field(t.right_field), *lv)),
            LeftOperands::Overflow => self.passes(token, wme),
        }
    }

    /// Hash key for a token entering this join's **left** memory.
    ///
    /// Covers the join id and the left-side values of every equality test,
    /// so that candidate (token, wme) pairs land in the same hash line —
    /// §3.2: the hash function takes into account "the values in the token
    /// which will have equality tests applied at the two-input node" and
    /// "the unique identifier of the two-input node".
    #[inline]
    pub fn left_key(&self, token: &Token) -> u64 {
        let mut h = fxhash::mix(0, self.id as u64);
        for s in self.eq_specs.iter() {
            h = hash_value(h, token.value(s.left_ce, s.left_field));
        }
        h
    }

    /// Hash key for a WME entering this join's **right** memory. Equal to
    /// `left_key` of any token it can pair with.
    #[inline]
    pub fn right_key(&self, wme: &Wme) -> u64 {
        let mut h = fxhash::mix(0, self.id as u64);
        for s in self.eq_specs.iter() {
            h = hash_value(h, wme.field(s.right_field));
        }
        h
    }

    /// Join-id-free key of a left token: the key space of `right_mem`.
    #[inline]
    pub fn shared_key(&self, token: &Token) -> u64 {
        self.eq_specs.iter().fold(0, |h, s| {
            hash_value(h, token.value(s.left_ce, s.left_field))
        })
    }

    /// The successor of a positive join that feeds one join and nothing
    /// else. Such a join's left entries keep the tokens they produced (the
    /// sequential kernel's tree-based removal); a not-node passes its own
    /// token on, and a terminal's outputs live in the conflict set.
    #[inline]
    pub fn child_succ(&self) -> Option<JoinId> {
        match self.succs[..] {
            [Succ::Join(s)] if !self.negated => Some(s),
            _ => None,
        }
    }

    /// Length of tokens this join emits.
    #[inline]
    pub fn out_len(&self) -> u16 {
        self.left_len + if self.negated { 0 } else { 1 }
    }
}

/// Compile/runtime options for the match network.
///
/// Both default to **off**: the paper keeps one linear, unshared join chain
/// per production (§3.1, footnote 6) and performs every activation, so the
/// table-reproduction paths must run with this configuration. The
/// extensions are opt-in:
///
/// * `sharing` — dedup identical join-chain *prefixes* across productions
///   (same left input, same right alpha pattern, same tests, same sign),
///   the way alpha patterns are already deduped. Joins become
///   multi-successor nodes and the beta layer turns into a DAG.
/// * `unlinking` — psm and `psm::trace` skip the opposite-memory scan of a
///   two-input activation when that memory is globally empty (a *null
///   activation*) and book it as `null_skipped`: Doorenbos-style unlinking
///   expressed as an emptiness gate, which is all the parallel matcher can
///   do safely under per-line locks. vs1, vs2, lispsim and `col` do not
///   read the option. Their right-unlinking is physical and unconditional:
///   each matcher keeps, per shared right memory, the list of readers whose
///   left memory is non-empty, a join links and unlinks itself as that
///   memory fills and empties, and a right store never visits the rest —
///   per matcher, with the compiled network untouched. A left activation
///   whose right memory is empty makes no scan either way, and is booked
///   as a null activation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkOptions {
    pub sharing: bool,
    pub unlinking: bool,
}

/// Node and sharing counts for a compiled network (CLI `summary` output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSummary {
    pub classes: usize,
    pub alpha_patterns: usize,
    pub joins: usize,
    /// Join constructions that reused an existing join (0 with sharing off).
    pub shared_prefixes: usize,
    /// The paper's coalesced token memories: one left + one right memory
    /// per join (footnote 6: not shared across productions) — what psm and
    /// `psm::trace` keep.
    pub memory_nodes: usize,
    /// Right memories vs1, vs2, lispsim and `col` keep instead of one per
    /// join: one per (alpha pattern, equality signature).
    pub right_memories: usize,
    pub terminals: usize,
}

impl std::fmt::Display for NetworkSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network: {} classes, {} alpha patterns, {} joins ({} shared prefixes), {} memory nodes ({} shared right memories), {} terminals",
            self.classes,
            self.alpha_patterns,
            self.joins,
            self.shared_prefixes,
            self.memory_nodes,
            self.right_memories,
            self.terminals
        )
    }
}

/// The compiled match network.
#[derive(Debug, Clone)]
pub struct Network {
    pub patterns: Vec<AlphaPattern>,
    by_class: FxHashMap<SymbolId, ClassPatterns>,
    pub joins: Vec<JoinNode>,
    /// Shared right memories, indexed by [`JoinNode::right_mem`].
    pub right_mems: Vec<RightMemSpec>,
    /// Positive-CE count per production (instantiation length).
    pub prod_sizes: Vec<u16>,
    /// Production names (for traces and dot output).
    pub prod_names: Vec<String>,
    /// The options this network was compiled with; psm and `psm::trace`
    /// read the `unlinking` toggle from here at run time.
    pub options: NetworkOptions,
    /// How many join constructions were satisfied by an existing join.
    pub shared_prefixes: usize,
}

impl Network {
    /// Alpha patterns whose class matches the WME's class: the linear
    /// constant-test chain psm and `psm::trace` walk.
    #[inline]
    pub fn patterns_for_class(&self, class: SymbolId) -> &[AlphaPatternId] {
        self.by_class.get(&class).map_or(&[], |c| c.all.as_slice())
    }

    /// The indexed patterns of a class (`None`: no production mentions it).
    /// vs1, vs2 and `col` dispatch through [`ClassPatterns::candidates`].
    #[inline]
    pub fn class_patterns(&self, class: SymbolId) -> Option<&ClassPatterns> {
        self.by_class.get(&class)
    }

    /// Is every pattern `wme` passes among its candidates? What makes the
    /// index equivalent to the linear chain; vs1, vs2 and `col` assert it
    /// on every change in debug builds.
    pub fn index_covers(&self, wme: &Wme) -> bool {
        let Some(class) = self.class_patterns(wme.class) else {
            return true;
        };
        let mut candidates = class.candidates(wme);
        let mut passing =
            (class.all.iter().copied()).filter(|&pid| self.pattern(pid).passes(wme, &mut 0));
        // Both ascend, so one pass over the candidates finds them all.
        passing.all(|pid| candidates.any(|c| c == pid))
    }

    #[inline]
    pub fn pattern(&self, id: AlphaPatternId) -> &AlphaPattern {
        &self.patterns[id as usize]
    }

    #[inline]
    pub fn join(&self, id: JoinId) -> &JoinNode {
        &self.joins[id as usize]
    }

    pub fn n_joins(&self) -> usize {
        self.joins.len()
    }

    pub fn n_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Node counts for diagnostics and the CLI's load-path report.
    pub fn summary(&self) -> NetworkSummary {
        NetworkSummary {
            classes: self.by_class.len(),
            alpha_patterns: self.patterns.len(),
            joins: self.joins.len(),
            shared_prefixes: self.shared_prefixes,
            memory_nodes: 2 * self.joins.len(),
            right_memories: self.right_mems.len(),
            terminals: self.prod_sizes.len(),
        }
    }

    /// Checks the network's structural invariants, returning a description
    /// of every violation (empty = valid). Used by debug assertions in
    /// `compile` and by tests over the workload generators.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let mut terminal_seen = vec![0u32; self.prod_sizes.len()];
        for pat in &self.patterns {
            for succ in &pat.succs {
                match *succ {
                    AlphaSucc::JoinLeft(j) => match self.joins.get(j as usize) {
                        None => errs.push(format!("alpha {} -> missing join {j}", pat.id)),
                        Some(join) if join.left_len != 1 => errs.push(format!(
                            "alpha {} feeds left of join {j} with left_len {}",
                            pat.id, join.left_len
                        )),
                        _ => {}
                    },
                    AlphaSucc::JoinRight(j) => match self.joins.get(j as usize) {
                        None => errs.push(format!("alpha {} -> missing join {j}", pat.id)),
                        Some(join) => {
                            let mem = self.right_mems.get(join.right_mem as usize);
                            if mem.map(|m| m.pattern) != Some(pat.id) {
                                errs.push(format!(
                                    "alpha {} feeds right of join {j}, whose right memory is not the pattern's",
                                    pat.id
                                ));
                            }
                        }
                    },
                    AlphaSucc::Terminal(p) => match self.prod_sizes.get(p.index()) {
                        None => errs.push(format!("alpha {} -> missing prod {p:?}", pat.id)),
                        Some(&sz) => {
                            terminal_seen[p.index()] += 1;
                            if sz != 1 {
                                errs.push(format!(
                                    "alpha-terminal prod {p:?} should have 1 positive CE, has {sz}"
                                ));
                            }
                        }
                    },
                }
            }
        }
        // Every join reads exactly one right memory, of its own signature.
        for (mid, m) in self.right_mems.iter().enumerate() {
            if !self.patterns[m.pattern as usize]
                .right_mems
                .contains(&(mid as RightMemId))
                || !m.readers.windows(2).all(|w| w[0] < w[1])
            {
                errs.push(format!("right memory {mid}: unlisted or readers unsorted"));
            }
            for &r in &m.readers {
                let ok = self.joins.get(r as usize).is_some_and(|j| {
                    j.right_mem as usize == mid
                        && m.fields.iter().copied().eq(right_sig(&j.eq_specs))
                });
                if !ok {
                    errs.push(format!(
                        "right memory {mid}: reader {r} missing, elsewhere or of another signature"
                    ));
                }
            }
        }
        if self
            .right_mems
            .iter()
            .map(|m| m.readers.len())
            .sum::<usize>()
            != self.joins.len()
        {
            errs.push("right memories do not list every join once".to_string());
        }
        for j in &self.joins {
            for t in j.tests.iter() {
                if t.left_ce >= j.left_len {
                    errs.push(format!(
                        "join {}: test references token position {} but left_len is {}",
                        j.id, t.left_ce, j.left_len
                    ));
                }
            }
            if j.succs.is_empty() {
                errs.push(format!("join {} has no successors", j.id));
            }
            if !self.options.sharing && j.succs.len() > 1 {
                errs.push(format!(
                    "join {} has {} successors but sharing is off",
                    j.id,
                    j.succs.len()
                ));
            }
            for succ in &j.succs {
                match *succ {
                    Succ::Join(n) => match self.joins.get(n as usize) {
                        None => errs.push(format!("join {} -> missing join {n}", j.id)),
                        Some(next) => {
                            if n <= j.id {
                                errs.push(format!("join {} -> non-forward successor {n}", j.id));
                            }
                            if next.left_len != j.out_len() {
                                errs.push(format!(
                                    "join {} emits len {} but join {n} expects left_len {}",
                                    j.id,
                                    j.out_len(),
                                    next.left_len
                                ));
                            }
                            if !self.options.sharing && next.prod != j.prod {
                                errs.push(format!(
                                    "join {} (prod {:?}) chains into join {n} (prod {:?})",
                                    j.id, j.prod, next.prod
                                ));
                            }
                        }
                    },
                    Succ::Terminal(p) => {
                        if !self.options.sharing && p != j.prod {
                            errs.push(format!("join {} terminates foreign prod {p:?}", j.id));
                        }
                        match self.prod_sizes.get(p.index()) {
                            None => errs.push(format!("join {} -> missing prod {p:?}", j.id)),
                            Some(&sz) => {
                                terminal_seen[p.index()] += 1;
                                if sz != j.out_len() {
                                    errs.push(format!(
                                        "prod {p:?} instantiation length {} but terminal join {} emits {}",
                                        sz,
                                        j.id,
                                        j.out_len()
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        for (i, &n) in terminal_seen.iter().enumerate() {
            if n != 1 {
                errs.push(format!("prod {i} has {n} terminal feeds (expected 1)"));
            }
        }
        errs
    }

    /// Compiles a program's productions into a network with the
    /// paper-faithful default options (no sharing, no unlinking).
    pub fn compile(prog: &Program) -> Result<Network, Ops5Error> {
        Network::compile_with(prog, NetworkOptions::default())
    }

    /// Compiles a program's productions into a network.
    pub fn compile_with(prog: &Program, options: NetworkOptions) -> Result<Network, Ops5Error> {
        let mut net = Network {
            patterns: Vec::new(),
            by_class: FxHashMap::default(),
            joins: Vec::new(),
            right_mems: Vec::new(),
            prod_sizes: Vec::with_capacity(prog.productions.len()),
            prod_names: Vec::with_capacity(prog.productions.len()),
            options,
            shared_prefixes: 0,
        };
        // Dedup map for alpha patterns: (class, tests) → id.
        let mut alpha_dedup: FxHashMap<(SymbolId, Vec<AlphaTest>), AlphaPatternId> =
            FxHashMap::default();
        // Dedup map for join-chain prefixes (only consulted with sharing on).
        let mut join_dedup: FxHashMap<JoinKey, JoinId> = FxHashMap::default();

        for (pidx, prod) in prog.productions.iter().enumerate() {
            let prod_id = ProdId(pidx as u32);
            net.prod_names
                .push(prog.symbols.name(prod.name).to_string());
            net.prod_sizes.push(prod.positive_ces() as u16);
            net.compile_production(prog, prod_id, &mut alpha_dedup, &mut join_dedup)?;
        }
        for class in net.by_class.values_mut() {
            class.build_index(&net.patterns);
        }
        debug_assert!(
            net.validate().is_empty(),
            "invalid network: {:?}",
            net.validate()
        );
        Ok(net)
    }

    fn intern_pattern(
        &mut self,
        dedup: &mut FxHashMap<(SymbolId, Vec<AlphaTest>), AlphaPatternId>,
        class: SymbolId,
        tests: Vec<AlphaTest>,
    ) -> AlphaPatternId {
        if let Some(&id) = dedup.get(&(class, tests.clone())) {
            return id;
        }
        let id = self.patterns.len() as AlphaPatternId;
        self.patterns.push(AlphaPattern {
            id,
            class,
            tests: tests.clone().into_boxed_slice(),
            succs: Vec::new(),
            right_mems: Vec::new(),
        });
        self.by_class.entry(class).or_default().all.push(id);
        dedup.insert((class, tests), id);
        id
    }

    /// The shared right memory of `pat` with `eq_specs`' signature, created
    /// on first use; registers `reader`. A pattern has a handful of
    /// signatures at most, so the search is a short linear one.
    fn intern_right_mem(
        &mut self,
        pat: AlphaPatternId,
        reader: JoinId,
        eq_specs: &[EqSpec],
    ) -> RightMemId {
        let fields = right_sig(eq_specs);
        let mems = &self.patterns[pat as usize].right_mems;
        let found = mems.iter().copied().find(|&m| {
            self.right_mems[m as usize]
                .fields
                .iter()
                .copied()
                .eq(fields.clone())
        });
        let id = found.unwrap_or_else(|| {
            let id = self.right_mems.len() as RightMemId;
            self.right_mems.push(RightMemSpec {
                pattern: pat,
                fields: fields.collect(),
                readers: Vec::new(),
            });
            self.patterns[pat as usize].right_mems.push(id);
            id
        });
        self.right_mems[id as usize].readers.push(reader);
        id
    }

    fn compile_production(
        &mut self,
        prog: &Program,
        prod_id: ProdId,
        alpha_dedup: &mut FxHashMap<(SymbolId, Vec<AlphaTest>), AlphaPatternId>,
        join_dedup: &mut FxHashMap<JoinKey, JoinId>,
    ) -> Result<(), Ops5Error> {
        let prod = prog.production(prod_id);
        // Global variable bindings: var → (positive CE position, field).
        let mut global: FxHashMap<SymbolId, (u16, u16)> = FxHashMap::default();
        let mut pos_count: u16 = 0;

        // The pending link from the previous element to the next node.
        enum Prev {
            /// First CE's alpha pattern — its successor not yet decided.
            Alpha(AlphaPatternId),
            Join(JoinId),
        }
        let mut prev: Option<Prev> = None;

        for (ce_idx, ce) in prod.lhs.iter().enumerate() {
            let mut alpha_tests: Vec<AlphaTest> = Vec::new();
            let mut join_tests: Vec<JoinTest> = Vec::new();

            // Pass 1: local Eq first-occurrences (var → field).
            let mut local: FxHashMap<SymbolId, u16> = FxHashMap::default();
            for (field, test) in &ce.tests {
                if let AttrTest::Conj(ts) = test {
                    for vt in ts {
                        if let TestAtom::Var(v) = vt.atom {
                            if vt.pred.is_eq() {
                                local.entry(v).or_insert(*field);
                            }
                        }
                    }
                }
            }

            // Pass 2: emit tests.
            for (field, test) in &ce.tests {
                match test {
                    AttrTest::Disj(vs) => alpha_tests.push(AlphaTest {
                        field: *field,
                        kind: AlphaTestKind::Disj(vs.clone().into_boxed_slice()),
                    }),
                    AttrTest::Conj(ts) => {
                        for vt in ts {
                            match vt.atom {
                                TestAtom::Const(val) => alpha_tests.push(AlphaTest {
                                    field: *field,
                                    kind: AlphaTestKind::Pred(vt.pred, val),
                                }),
                                TestAtom::Var(v) => {
                                    if vt.pred.is_eq() {
                                        let first = local[&v];
                                        if *field != first {
                                            // Later occurrence in the same CE.
                                            alpha_tests.push(AlphaTest {
                                                field: *field,
                                                kind: AlphaTestKind::FieldCmp(Pred::Eq, first),
                                            });
                                        } else if let Some(&(pce, pf)) = global.get(&v) {
                                            // Bound in an earlier CE: join.
                                            join_tests.push(JoinTest {
                                                pred: Pred::Eq,
                                                left_ce: pce,
                                                left_field: pf,
                                                right_field: *field,
                                            });
                                        } else if !ce.negated {
                                            global.insert(v, (pos_count, *field));
                                        }
                                        // First occurrence in a negated CE
                                        // with no earlier binding: a local
                                        // wildcard — no test at all.
                                    } else {
                                        // Non-Eq predicate against a variable.
                                        let local_first = local.get(&v).copied();
                                        if let Some(first) = local_first {
                                            alpha_tests.push(AlphaTest {
                                                field: *field,
                                                kind: AlphaTestKind::FieldCmp(vt.pred, first),
                                            });
                                        } else if let Some(&(pce, pf)) = global.get(&v) {
                                            join_tests.push(JoinTest {
                                                pred: vt.pred,
                                                left_ce: pce,
                                                left_field: pf,
                                                right_field: *field,
                                            });
                                        } else {
                                            return Err(Ops5Error::Semantic(format!(
                                                "production {}: predicate on unbound variable <{}>",
                                                prog.symbols.name(prod.name),
                                                prog.symbols.name(v)
                                            )));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }

            let pat = self.intern_pattern(alpha_dedup, ce.class, alpha_tests);

            match prev.take() {
                None => {
                    // First CE: its matches become 1-WME tokens. Where they
                    // go is decided when we see the next element (or the end
                    // of the LHS).
                    debug_assert!(!ce.negated, "parser rejects negated first CE");
                    pos_count += 1;
                    prev = Some(Prev::Alpha(pat));
                }
                Some(p) => {
                    let left = match p {
                        Prev::Alpha(a) => LeftSrc::Alpha(a),
                        Prev::Join(j) => LeftSrc::Join(j),
                    };
                    let key = JoinKey {
                        left,
                        right: pat,
                        negated: ce.negated,
                        tests: join_tests.clone(),
                    };
                    let reused = if self.options.sharing {
                        join_dedup.get(&key).copied()
                    } else {
                        None
                    };
                    let join_id = match reused {
                        Some(j) => {
                            // Identical prefix already compiled: the shared
                            // join's left input, right alpha link, tests and
                            // (therefore) left_len all match by key equality.
                            // Nothing to link — just continue the chain here.
                            self.shared_prefixes += 1;
                            j
                        }
                        None => {
                            let join_id = self.joins.len() as JoinId;
                            let eq_specs: Vec<EqSpec> = join_tests
                                .iter()
                                .filter(|t| t.pred.is_eq())
                                .map(|t| EqSpec {
                                    left_ce: t.left_ce,
                                    left_field: t.left_field,
                                    right_field: t.right_field,
                                })
                                .collect();
                            let right_mem = self.intern_right_mem(pat, join_id, &eq_specs);
                            let node = JoinNode {
                                id: join_id,
                                prod: prod_id,
                                ce_index: ce_idx as u16,
                                negated: ce.negated,
                                left_len: pos_count,
                                tests: join_tests.into_boxed_slice(),
                                eq_specs: eq_specs.into_boxed_slice(),
                                right_mem,
                                // Filled once the next element is seen.
                                succs: Vec::new(),
                            };
                            self.joins.push(node);
                            // Link predecessor's output to this join's left input.
                            match p {
                                Prev::Alpha(a) => self.patterns[a as usize]
                                    .succs
                                    .push(AlphaSucc::JoinLeft(join_id)),
                                Prev::Join(j) => {
                                    self.joins[j as usize].succs.push(Succ::Join(join_id))
                                }
                            }
                            // This CE's alpha feeds the join's right input.
                            self.patterns[pat as usize]
                                .succs
                                .push(AlphaSucc::JoinRight(join_id));
                            if self.options.sharing {
                                join_dedup.insert(key, join_id);
                            }
                            join_id
                        }
                    };
                    if !ce.negated {
                        pos_count += 1;
                    }
                    prev = Some(Prev::Join(join_id));
                }
            }
        }

        match prev {
            Some(Prev::Alpha(a)) => {
                // Single-CE production.
                self.patterns[a as usize]
                    .succs
                    .push(AlphaSucc::Terminal(prod_id));
            }
            Some(Prev::Join(j)) => {
                self.joins[j as usize].succs.push(Succ::Terminal(prod_id));
            }
            None => unreachable!("parser rejects empty LHS"),
        }
        Ok(())
    }
}

/// What feeds a join's left input — the discriminator of the beta-prefix
/// dedup key. Equal sources see byte-identical left token streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LeftSrc {
    Alpha(AlphaPatternId),
    Join(JoinId),
}

/// Beta-prefix dedup key: two join constructions may share one node iff
/// they have the same left input, the same right alpha pattern (alpha ids
/// are already deduped, so id equality is pattern equality), the same sign,
/// and the same test list. `left_len` is implied by `left`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JoinKey {
    left: LeftSrc,
    right: AlphaPatternId,
    negated: bool,
    tests: Vec<JoinTest>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::Program;

    fn fig22() -> (Program, Network) {
        let prog = Program::from_source(
            "(p p1 (C1 ^attr1 <x> ^attr2 12)
                   (C2 ^attr1 15 ^attr2 <x>)
                 - (C3 ^attr1 <x>)
               -->
               (remove 2))
             (p p2 (C2 ^attr1 15 ^attr2 <y>)
                   (C4 ^attr1 <y>)
               -->
               (modify 1 ^attr1 12))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        (prog, net)
    }

    #[test]
    fn figure_2_2_shares_constant_tests() {
        let (_prog, net) = fig22();
        // Patterns: C1(attr2=12), C2(attr1=15), C3(no tests), C4(no tests).
        // The C2 pattern is shared between p1 (right input of join 1) and p2
        // (first CE).
        assert_eq!(net.n_patterns(), 4, "C2 pattern must be shared");
        // Joins: p1 has 2 (C2 join + negated C3 join), p2 has 1.
        assert_eq!(net.n_joins(), 3);
    }

    #[test]
    fn figure_2_2_join_structure() {
        let (_prog, net) = fig22();
        let j0 = net.join(0); // p1's C2 join
        assert!(!j0.negated);
        assert_eq!(j0.left_len, 1);
        assert_eq!(j0.tests.len(), 1);
        assert_eq!(j0.eq_specs.len(), 1);
        assert_eq!(j0.succs, vec![Succ::Join(1)]);
        let j1 = net.join(1); // p1's negated C3 node
        assert!(j1.negated);
        assert_eq!(j1.left_len, 2);
        assert_eq!(j1.out_len(), 2);
        assert_eq!(j1.succs, vec![Succ::Terminal(ProdId(0))]);
        let j2 = net.join(2); // p2's C4 join
        assert_eq!(j2.succs, vec![Succ::Terminal(ProdId(1))]);
    }

    #[test]
    fn alpha_tests_compile_constants() {
        let prog = Program::from_source("(p q (a ^x 5 ^y <v> ^z <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let pat = net.pattern(0);
        // One constant test (x=5) and one FieldCmp (z == y-binding field).
        assert_eq!(pat.tests.len(), 2);
        assert!(matches!(
            pat.tests[0].kind,
            AlphaTestKind::Pred(Pred::Eq, Value::Int(5))
        ));
        assert!(matches!(
            pat.tests[1].kind,
            AlphaTestKind::FieldCmp(Pred::Eq, _)
        ));
    }

    #[test]
    fn intra_element_fieldcmp_passes() {
        let mut prog = Program::from_source("(p q (a ^x <v> ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let c = prog.symbols.intern("a");
        let w_eq = ops5::Wme::new(c, vec![Value::Int(3), Value::Int(3)], 1);
        let w_ne = ops5::Wme::new(c, vec![Value::Int(3), Value::Int(4)], 2);
        let pat = net.pattern(0);
        assert!(pat.tests.iter().all(|t| t.passes(&w_eq)));
        assert!(!pat.tests.iter().all(|t| t.passes(&w_ne)));
    }

    #[test]
    fn join_keys_agree_for_matching_pairs() {
        let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let wa = ops5::Wme::new(ca, vec![Value::Int(7)], 1);
        let wb = ops5::Wme::new(cb, vec![Value::Int(7)], 2);
        let wb2 = ops5::Wme::new(cb, vec![Value::Int(8)], 3);
        let j = net.join(0);
        let tok = Token::single(wa);
        assert_eq!(j.left_key(&tok), j.right_key(&wb));
        assert_ne!(j.left_key(&tok), j.right_key(&wb2));
        // The shared-memory key space: same agreement, no join id in it.
        let mem = &net.right_mems[j.right_mem as usize];
        assert_eq!((mem.readers.as_slice(), &*mem.fields), (&[0][..], &[0][..]));
        assert_eq!(j.shared_key(&tok), mem.key(&wb));
        assert_ne!(j.shared_key(&tok), mem.key(&wb2));
        assert!(j.passes(&tok, &wb));
        assert!(!j.passes(&tok, &wb2));
    }

    #[test]
    fn cross_product_join_has_no_eq_specs() {
        // The Tourney pathology: CEs with no common variables.
        let prog = Program::from_source("(p q (a ^x <v>) (b ^y <w>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0);
        assert!(j.eq_specs.is_empty());
        assert!(j.tests.is_empty());
    }

    #[test]
    fn single_ce_production_goes_to_terminal() {
        let prog = Program::from_source("(p q (a ^x 1) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        assert_eq!(net.n_joins(), 0);
        assert_eq!(net.pattern(0).succs, vec![AlphaSucc::Terminal(ProdId(0))]);
    }

    #[test]
    fn non_eq_cross_ce_predicate_becomes_join_test() {
        let prog = Program::from_source("(p q (a ^x <v>) (b ^y > <v>) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let j = net.join(0);
        assert_eq!(j.tests.len(), 1);
        assert_eq!(j.tests[0].pred, Pred::Gt);
        assert!(j.eq_specs.is_empty(), "non-eq tests cannot be hashed");
    }

    #[test]
    fn predicate_on_never_bound_variable_errors() {
        let prog = Program::from_source("(p q (a ^x > <nope>) --> (halt))").unwrap();
        assert!(Network::compile(&prog).is_err());
    }

    #[test]
    fn negated_ce_variables_do_not_bind_globally() {
        // <w> first occurs in the negated CE; using it in a later CE must
        // fail at compile time (no binding).
        let prog =
            Program::from_source("(p q (a ^x <v>) - (b ^y <w>) (c ^z > <w>) --> (halt))").unwrap();
        assert!(Network::compile(&prog).is_err());
    }

    #[test]
    fn validate_accepts_compiled_networks() {
        let prog = Program::from_source(
            "(p p1 (C1 ^attr1 <x> ^attr2 12)
                   (C2 ^attr1 15 ^attr2 <x>)
                 - (C3 ^attr1 <x>)
               --> (remove 2))
             (p p2 (C2 ^attr1 15 ^attr2 <y>) (C4 ^attr1 <y>) --> (modify 1 ^attr1 12))
             (p p3 (C1 ^attr1 1) --> (halt))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        assert!(net.validate().is_empty());
    }

    #[test]
    fn validate_detects_corruption() {
        let prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
        let mut net = Network::compile(&prog).unwrap();
        // Corrupt the chain: point the join at a foreign production.
        net.joins[0].succs = vec![Succ::Terminal(ProdId(7))];
        assert!(!net.validate().is_empty());
    }

    /// Two productions with a common two-CE prefix: with sharing the first
    /// join is compiled once and grows two successors.
    const SHARED_PREFIX_SRC: &str = "(p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
         (p p2 (a ^x <v>) (b ^y <v>) (d ^w <v>) --> (halt))";

    #[test]
    fn sharing_dedups_common_join_prefix() {
        let prog = Program::from_source(SHARED_PREFIX_SRC).unwrap();
        let off = Network::compile(&prog).unwrap();
        assert_eq!(off.n_joins(), 4);
        assert_eq!(off.shared_prefixes, 0);
        let on = Network::compile_with(
            &prog,
            NetworkOptions {
                sharing: true,
                unlinking: false,
            },
        )
        .unwrap();
        assert_eq!(on.n_joins(), 3, "the (a,b) join must be shared");
        assert_eq!(on.shared_prefixes, 1);
        assert!(on.validate().is_empty());
        // The shared join fans out to both productions' second joins.
        let j0 = on.join(0);
        assert_eq!(j0.succs.len(), 2);
        assert!(j0.succs.iter().all(|s| matches!(s, Succ::Join(_))));
        assert_eq!(on.summary().shared_prefixes, 1);
    }

    #[test]
    fn sharing_respects_test_differences() {
        // Same alpha patterns, different join predicate: no sharing.
        let prog = Program::from_source(
            "(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
             (p p2 (a ^x <v>) (b ^y > <v>) --> (halt))",
        )
        .unwrap();
        let on = Network::compile_with(
            &prog,
            NetworkOptions {
                sharing: true,
                unlinking: false,
            },
        )
        .unwrap();
        assert_eq!(on.n_joins(), 2);
        assert_eq!(on.shared_prefixes, 0);
    }

    #[test]
    fn sharing_respects_negation_sign() {
        let prog = Program::from_source(
            "(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
             (p p2 (a ^x <v>) - (b ^y <v>) --> (halt))",
        )
        .unwrap();
        let on = Network::compile_with(
            &prog,
            NetworkOptions {
                sharing: true,
                unlinking: false,
            },
        )
        .unwrap();
        assert_eq!(
            on.n_joins(),
            2,
            "a negated join cannot share with a positive one"
        );
        assert_eq!(on.shared_prefixes, 0);
    }

    #[test]
    fn identical_lhs_productions_share_whole_chain() {
        let prog = Program::from_source(
            "(p p1 (a ^x <v>) (b ^y <v>) --> (halt))
             (p p2 (a ^x <v>) (b ^y <v>) --> (remove 1))",
        )
        .unwrap();
        let on = Network::compile_with(
            &prog,
            NetworkOptions {
                sharing: true,
                unlinking: false,
            },
        )
        .unwrap();
        assert_eq!(on.n_joins(), 1);
        let j = on.join(0);
        assert_eq!(
            j.succs,
            vec![Succ::Terminal(ProdId(0)), Succ::Terminal(ProdId(1))]
        );
        assert!(on.validate().is_empty());
    }

    #[test]
    fn class_dispatch() {
        let mut prog = Program::from_source("(p q (a ^x 1) --> (halt))").unwrap();
        let net = Network::compile(&prog).unwrap();
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("zz");
        assert_eq!(net.patterns_for_class(ca).len(), 1);
        assert_eq!(net.patterns_for_class(cb).len(), 0);
    }
    // ---- The class's constant index against the linear chain ----

    /// What `wme` passes, by walking every pattern of its class (psm's way)
    /// and by running the index's candidates only.
    fn passing_both_ways(net: &Network, wme: &Wme) -> [Vec<AlphaPatternId>; 2] {
        let passes = |pid: &AlphaPatternId| net.pattern(*pid).passes(wme, &mut 0);
        let linear = net.patterns_for_class(wme.class).iter().copied();
        let indexed = net.class_patterns(wme.class).map(|c| c.candidates(wme));
        [
            linear.filter(passes).collect(),
            indexed.into_iter().flatten().filter(passes).collect(),
        ]
    }

    #[test]
    fn the_index_is_variant_exact_and_reads_absent_fields_as_nil() {
        let mut prog = Program::from_source(
            "(p int (c ^x 1) --> (halt))
             (p float (c ^x 1.0) --> (halt))
             (p unset (c ^x nil) --> (halt))
             (p other (c ^y 1) --> (halt))
             (p any (c) --> (halt))",
        )
        .unwrap();
        let net = Network::compile(&prog).unwrap();
        let c = prog.symbols.intern("c");
        let candidates = |fields: Vec<Value>| -> Vec<AlphaPatternId> {
            let w = Wme::new(c, fields, 1);
            assert!(net.index_covers(&w));
            net.class_patterns(c).unwrap().candidates(&w).collect()
        };
        // `x` is the indexed field (three users against `y`'s one); `other`
        // and `any` are residual and candidates of every change.
        assert_eq!(candidates(vec![Value::Int(1)]), [0, 3, 4]);
        assert_eq!(candidates(vec![Value::Float(1.0)]), [1, 3, 4]);
        assert_eq!(candidates(vec![Value::NIL]), [2, 3, 4]);
        assert_eq!(candidates(vec![]), [2, 3, 4], "absent reads as nil");
        assert_eq!(candidates(vec![Value::Int(2), Value::Int(1)]), [3, 4]);
        assert!(net.class_patterns(prog.symbols.intern("zz")).is_none());
    }

    use proptest::prelude::*;

    /// One generated constant test on field `f{0}`.
    #[derive(Debug, Clone)]
    enum GenTest {
        /// `^f PRED const`, all seven predicates.
        Pred(u8, u8, GenConst),
        /// `^f << c1 c2 .. >>`
        Disj(u8, Vec<GenConst>),
        /// `^f <v> ^g PRED <v>`: an intra-element comparison.
        FieldCmp(u8, u8, u8),
    }

    /// A constant: the same magnitude as an `Int` and as a `Float`, a
    /// symbol, or `nil`.
    #[derive(Debug, Clone, Copy)]
    enum GenConst {
        Int(u8),
        Float(u8),
        Sym(u8),
        Nil,
    }

    const PREDS: [&str; 7] = ["=", "<>", "<", "<=", ">", ">=", "<=>"];

    fn gen_const() -> impl Strategy<Value = GenConst> {
        prop_oneof![
            (0u8..3).prop_map(GenConst::Int),
            (0u8..3).prop_map(GenConst::Float),
            (0u8..2).prop_map(GenConst::Sym),
            (0u8..1).prop_map(|_| GenConst::Nil),
        ]
    }

    fn gen_alpha_test() -> impl Strategy<Value = GenTest> {
        prop_oneof![
            // `=` gets an arm of its own: it is what the index is built from.
            (0u8..4, gen_const()).prop_map(|(f, c)| GenTest::Pred(f, 0, c)),
            (0u8..4, 0u8..7, gen_const()).prop_map(|(f, p, c)| GenTest::Pred(f, p, c)),
            (0u8..4, proptest::collection::vec(gen_const(), 1..4))
                .prop_map(|(f, cs)| GenTest::Disj(f, cs)),
            (0u8..4, 0u8..4, 0u8..7).prop_map(|(f, g, p)| GenTest::FieldCmp(f, g, p)),
        ]
    }

    fn render_const(c: GenConst) -> String {
        match c {
            GenConst::Int(i) => format!("{i}"),
            GenConst::Float(i) => format!("{i}.0"),
            GenConst::Sym(i) => format!("s{i}"),
            GenConst::Nil => "nil".to_string(),
        }
    }

    /// Single-CE productions: every CE is an alpha pattern with a terminal.
    /// Attributes are not literalized, so a class's layout grows as later
    /// productions mention new ones and short WMEs read the rest as `nil`.
    fn render_patterns(patterns: &[(u8, Vec<GenTest>)]) -> String {
        let mut src = String::new();
        for (i, (class, tests)) in patterns.iter().enumerate() {
            src += &format!("(p p{i} (c{class}");
            for (k, t) in tests.iter().enumerate() {
                src += &match t {
                    GenTest::Pred(f, p, c) => {
                        format!(" ^f{f} {} {}", PREDS[*p as usize], render_const(*c))
                    }
                    GenTest::Disj(f, cs) => {
                        let cs: Vec<String> = cs.iter().map(|c| render_const(*c)).collect();
                        format!(" ^f{f} << {} >>", cs.join(" "))
                    }
                    GenTest::FieldCmp(f, g, p) => {
                        format!(" ^f{f} <v{k}> ^f{g} {} <v{k}>", PREDS[*p as usize])
                    }
                };
            }
            src += ") --> (halt))\n";
        }
        src
    }

    proptest! {
        /// Random classes and patterns over every kind of constant test,
        /// random WMEs over `Int`/`Float` of equal magnitude, symbols, `nil`
        /// and absent fields: the index's candidates contain every passing
        /// pattern, running them yields the linear chain's passing set in
        /// its order, and a pattern filed under a constant is offered only
        /// to a change carrying exactly that constant.
        #[test]
        fn alpha_index_agrees_with_the_linear_chain(
            patterns in proptest::collection::vec(
                (0u8..2, proptest::collection::vec(gen_alpha_test(), 0..4)),
                1..14,
            ),
            wmes in proptest::collection::vec(
                (0u8..2, proptest::collection::vec(gen_const(), 0..5)),
                1..24,
            ),
        ) {
            let mut prog = Program::from_source(&render_patterns(&patterns)).expect("parses");
            let net = Network::compile(&prog).expect("compiles");
            for (tag, (class, fields)) in wmes.iter().enumerate() {
                let class = prog.symbols.intern(&format!("c{class}"));
                let fields = fields.iter().map(|c| match *c {
                    GenConst::Int(i) => Value::Int(i as i64),
                    GenConst::Float(i) => Value::Float(i as f64),
                    GenConst::Sym(i) => Value::Sym(prog.symbols.intern(&format!("s{i}"))),
                    GenConst::Nil => Value::NIL,
                });
                let w = Wme::new(class, fields.collect(), tag as u64 + 1);
                let [linear, indexed] = passing_both_ways(&net, &w);
                prop_assert_eq!(&linear, &indexed, "{:?}", w);
                prop_assert!(net.index_covers(&w));
                let Some(cp) = net.class_patterns(class) else {
                    prop_assert!(linear.is_empty());
                    continue;
                };
                let candidates: Vec<AlphaPatternId> = cp.candidates(&w).collect();
                prop_assert!(candidates.windows(2).all(|p| p[0] < p[1]), "{:?}", candidates);
                // Exactly the residual ones plus those whose `= constant`
                // on the indexed field this WME satisfies: `1` is not `1.0`.
                let v = w.field(cp.field);
                let filed_under_v = cp.all.iter().filter(|&&pid| {
                    let on_field = net.pattern(pid).tests.iter().filter(|t| t.field == cp.field);
                    let mut consts = on_field.filter_map(|t| match t.kind {
                        AlphaTestKind::Pred(Pred::Eq, c) => Some(c),
                        _ => None,
                    });
                    consts.next().is_some_and(|c| Pred::Eq.eval(v, c))
                });
                prop_assert_eq!(candidates.len(), cp.residual.len() + filed_under_v.count());
            }
        }
    }
}
