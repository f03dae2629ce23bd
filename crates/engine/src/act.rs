//! Parallel act: several firings per match pass.
//!
//! The paper parallelizes match only; conflict resolution and firing stay
//! sequential. This module finds the parallelism that is left among the
//! firings themselves *without changing observable semantics*: each cycle
//! it walks the conflict set in LEX/MEA dominance order and greedily
//! selects a prefix of pairwise non-interfering instantiations. The engine
//! then fires them one after another, in that order, on its own thread,
//! and ships their effects to the matcher as one
//! [`ChangeBatch`](ops5::ChangeBatch) — k firings, one match pass.
//!
//! ## Serial-equivalence rules
//!
//! A candidate `q` joins a group whose selected members are `x₁..xₙ` (all
//! dominating `q`) only if firing `x₁..xₙ` first could not have changed
//! what `q` does or whether `q` still exists:
//!
//! * **Prefix discipline** — selection walks the CS in dominance order and
//!   *stops* at the first conflicting candidate (counted in
//!   [`ActStats::interference_rejects`]). Skipping past a conflict would
//!   reorder firings relative to a serial run.
//! * **Doomed skip** — the one sound exception: if some selected `xᵢ`
//!   retracts a WME that `q` matched, serial execution would destroy `q`'s
//!   instantiation before its turn (timetags are unique, so it cannot be
//!   re-derived). `q` is skipped (counted in [`ActStats::doomed_skips`])
//!   and the walk continues.
//! * **Write/write and write/read disjointness** — `q` is a conflict if it
//!   retracts a WME any selected member matched, or if any selected
//!   member's made classes intersect `q`'s made classes or `q`'s
//!   production's LHS classes.
//! * **Fertility closure** — a *fertile* production (see
//!   [`ops5::ActFootprints`]) could spawn a new instantiation that
//!   dominates the rest of the group mid-sequence, so a fertile member
//!   always closes its group. Likewise a production containing `halt`:
//!   serial execution fires nothing after a halt.
//!
//! Members of a closed group are therefore exactly the firings a serial
//! engine would perform next, in the same order. The
//! [`Engine`](crate::Engine) fires them in that order through the same
//! code as a serial firing, so timetags, gensyms, the firing log, working
//! memory, and the durability journal are byte-identical to `Serial`, and
//! an error or a halt stops the group where a serial run would stop.

use crate::cr;
use ops5::{ActFootprints, Instantiation, Strategy, SymbolId};

/// How the act phase fires the conflict set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActStrategy {
    /// Paper-faithful: one firing per cycle (the default).
    #[default]
    Serial,
    /// Fire up to `max_group` pairwise non-interfering instantiations per
    /// cycle, merging their effects into one batch.
    Parallel { max_group: usize },
}

impl ActStrategy {
    /// Default group cap for [`ActStrategy::parallel`] and `--act parallel`.
    pub const DEFAULT_MAX_GROUP: usize = 8;

    /// `Parallel` with the default group cap.
    pub fn parallel() -> ActStrategy {
        ActStrategy::Parallel {
            max_group: Self::DEFAULT_MAX_GROUP,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            ActStrategy::Serial => "serial",
            ActStrategy::Parallel { .. } => "parallel",
        }
    }

    /// Parses `serial`, `parallel`, or `parallel:<max_group>`.
    pub fn from_name(s: &str) -> Option<ActStrategy> {
        match s {
            "serial" => Some(ActStrategy::Serial),
            "parallel" => Some(ActStrategy::parallel()),
            _ => {
                let k = s.strip_prefix("parallel:")?.parse::<usize>().ok()?;
                (k >= 1).then_some(ActStrategy::Parallel { max_group: k })
            }
        }
    }
}

/// Always-on act-phase counters (plain integers — no obs layer required),
/// the deterministic perf surface of `tests/act.rs`: on a fixed
/// program, `match_passes` and `act_submits` shrink in proportion to the
/// mean group size while `fired` stays constant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActStats {
    /// Act phases that fired at least one instantiation (a serial firing
    /// counts as a group of one).
    pub groups: u64,
    /// Total instantiations fired.
    pub fired: u64,
    /// Group extensions refused because of a footprint conflict (each
    /// closes its group).
    pub interference_rejects: u64,
    /// Candidates skipped because a selected member retracts a WME they
    /// matched (serial execution would destroy them before their turn).
    pub doomed_skips: u64,
    /// RHS-effect batches submitted to the matcher.
    pub act_submits: u64,
    /// Matcher quiesce passes taken by the recognize-act cycle (excludes
    /// `settle`, which fires nothing).
    pub match_passes: u64,
}

impl ActStats {
    /// Mean firings per firing act phase.
    pub fn mean_group_size(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.fired as f64 / self.groups as f64
        }
    }
}

fn retract_tags(inst: &Instantiation, fps: &ActFootprints) -> Vec<u64> {
    fps.prods[inst.prod.index()]
        .retract_ces
        .iter()
        .filter_map(|&ce| inst.wmes.get(ce).map(|w| w.timetag))
        .collect()
}

/// Selects the next act group: a dominance-ordered prefix of the unfired
/// conflict set, pairwise non-interfering, at most `cap` members, with any
/// fertile or halting member last. With `cap == 1` this is exactly
/// [`cr::select`].
pub(crate) fn select_group<'a>(
    strategy: Strategy,
    candidates: impl Iterator<Item = &'a Instantiation>,
    specificity: &[u32],
    fps: &ActFootprints,
    cap: usize,
    stats: &mut ActStats,
) -> Vec<Instantiation> {
    let mut ordered: Vec<&Instantiation> = candidates.collect();
    if ordered.is_empty() || cap == 0 {
        return Vec::new();
    }
    // Dominant instantiation first: `order_dominates(b, a) == Less` iff `a`
    // fires before `b`.
    ordered.sort_unstable_by(|a, b| cr::order_dominates(strategy, b, a, specificity));

    let mut group: Vec<Instantiation> = Vec::new();
    let mut sel_tags: Vec<u64> = Vec::new(); // WMEs matched by selected members
    let mut sel_retracts: Vec<u64> = Vec::new(); // WMEs retracted by selected members
    let mut sel_makes: Vec<SymbolId> = Vec::new(); // classes made by selected members

    for cand in ordered {
        if group.len() >= cap {
            break;
        }
        let fp = &fps.prods[cand.prod.index()];
        if !group.is_empty() {
            // Doomed: a selected member retracts a WME this candidate
            // matched, so serial execution destroys it before its turn.
            if cand
                .wmes
                .iter_back()
                .any(|w| sel_retracts.contains(&w.timetag))
            {
                stats.doomed_skips += 1;
                continue;
            }
            let q_retracts = retract_tags(cand, fps);
            let conflicts =
                // The candidate would retract a WME a selected member
                // matched (the selected member must fire off it first).
                q_retracts.iter().any(|t| sel_tags.contains(t))
                // Write∩write: both assert into the same class.
                || fp.make_classes.iter().any(|c| sel_makes.contains(c))
                // Writeᵢ∩readⱼ: a selected member asserts into a class this
                // candidate's LHS depends on.
                || fp.pos_reads.iter().chain(&fp.neg_reads).any(|c| sel_makes.contains(c));
            if conflicts {
                stats.interference_rejects += 1;
                break;
            }
        }
        sel_tags.extend(cand.wmes.iter_back().map(|w| w.timetag));
        sel_retracts.extend(retract_tags(cand, fps));
        sel_makes.extend_from_slice(&fp.make_classes);
        let closes = fps.fertile[cand.prod.index()] || fp.has_halt;
        group.push(cand.clone());
        if closes {
            break;
        }
    }
    group
}
