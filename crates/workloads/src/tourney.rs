//! Tourney — the tournament-scheduling workload.
//!
//! Bill Barabash's 17-rule Tourney resisted every speed-up attempt in the
//! paper because "a few culprit productions ... have condition elements with
//! no common variables": the pairing join is a cross-product, every token of
//! that join hashes to a single line (the key can only cover the node id),
//! and all its activations serialize on that line's lock.
//!
//! Two variants:
//!
//! * [`Variant::Pathological`] — the faithful rebuild: `pick-pair` matches
//!   two *unrelated* free teams (no shared variables), guarded by negated
//!   `played` elements.
//! * [`Variant::Fixed`] — the paper's "modifying two such productions using
//!   domain specific knowledge" (2.7× → 5.1×): circle-method pairings are
//!   precomputed into working memory and the pairing production joins
//!   through equality tests on `^round` and `^name`, distributing its tokens
//!   across hash lines.
//!
//! Both produce a complete, valid round-robin schedule, checked by the
//! validator.

use crate::{SetupVal, SetupWme, Workload};
use engine::Engine;
use ops5::Value;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Which pairing strategy the program uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Pathological,
    Fixed,
}

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct TourneyConfig {
    /// Team count (even, ≥ 4).
    pub teams: usize,
    pub variant: Variant,
}

impl Default for TourneyConfig {
    fn default() -> Self {
        TourneyConfig {
            teams: 10,
            variant: Variant::Pathological,
        }
    }
}

/// Circle-method round robin: returns `rounds[r] = [(home, away); n/2]`.
pub fn circle_schedule(n: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(n >= 2 && n.is_multiple_of(2), "need an even team count");
    let mut rounds = Vec::with_capacity(n - 1);
    // Positions: fixed team 0 plus a rotating ring of the rest.
    let ring: Vec<usize> = (1..n).collect();
    for r in 0..n - 1 {
        let mut pairs = Vec::with_capacity(n / 2);
        let pos = |i: usize| -> usize {
            if i == 0 {
                0
            } else {
                ring[(i - 1 + r) % (n - 1)]
            }
        };
        for i in 0..n / 2 {
            pairs.push((pos(i), pos(n - 1 - i)));
        }
        rounds.push(pairs);
    }
    rounds
}

/// The common (non-pairing) rules.
fn common_rules(s: &mut String) {
    s.push_str(
        "(literalize ctrl phase round)
(literalize count left)
(literalize team name busy)
(literalize game round home away)
(literalize played t1 t2)
(literalize assign round team slot)
(literalize court id slot taken)
(p try-end-round
  (ctrl ^phase pair ^round <r>)
  -->
  (modify 1 ^phase endround))
(p reset-busy
  (ctrl ^phase endround)
  (team ^busy yes)
  -->
  (modify 2 ^busy no))
(p reset-court
  (ctrl ^phase endround)
  (court ^taken yes)
  -->
  (modify 2 ^taken no))
(p next-round
  (ctrl ^phase endround ^round <r>)
  - (team ^busy yes)
  - (court ^taken yes)
  -->
  (modify 1 ^phase pair ^round (compute <r> + 1)))
(p done
  (ctrl ^phase pair)
  (count ^left 0)
  -->
  (write schedule complete (crlf))
  (halt))\n",
    );
}

/// Generates the OPS5 source for a variant.
pub fn generate_source(variant: Variant) -> String {
    let mut s = String::new();
    common_rules(&mut s);
    match variant {
        Variant::Pathological => {
            // The culprit production: CE 3 and CE 4 share no variables (the
            // inequality test is not an equality join), so the join is a
            // cross-product and all its tokens land in one hash line.
            // A second culprit: the court element shares no variables with
            // either team, so the unplayed-pair × court join accumulates a
            // long token list in a single hash line — the "long lists of
            // tokens in hash-table buckets" of §4.2.
            s.push_str(
                "(p pick-pair
  (ctrl ^phase pair ^round <r>)
  (count ^left <k>)
  (team ^name <t1> ^busy no)
  (team ^name { <t2> <> <t1> } ^busy no)
  - (played ^t1 <t1> ^t2 <t2>)
  - (played ^t1 <t2> ^t2 <t1>)
  (court ^id <c> ^taken no)
  -->
  (modify 3 ^busy yes)
  (modify 4 ^busy yes)
  (modify 7 ^taken yes)
  (make game ^round <r> ^home <t1> ^away <t2> ^court <c>)
  (make played ^t1 <t1> ^t2 <t2>)
  (modify 2 ^left (compute <k> - 1)))\n",
            );
        }
        Variant::Fixed => {
            // The paper's fix: "modifying two such productions using domain
            // specific knowledge". The program keeps the same shape — the
            // pairing production still joins two team-bearing elements —
            // but circle-method slot assignments in working memory give the
            // join equality tests on (round, slot), so its tokens hash
            // across lines instead of piling into one.
            s.push_str(
                "(p pick-pair
  (ctrl ^phase pair ^round <r>)
  (count ^left <k>)
  (assign ^round <r> ^team <t1> ^slot <s>)
  (assign ^round <r> ^team { <t2> <> <t1> } ^slot <s>)
  (team ^name <t1> ^busy no)
  (team ^name <t2> ^busy no)
  - (played ^t1 <t1> ^t2 <t2>)
  - (played ^t1 <t2> ^t2 <t1>)
  (court ^slot <s> ^taken no)
  -->
  (modify 5 ^busy yes)
  (modify 6 ^busy yes)
  (modify 9 ^taken yes)
  (make game ^round <r> ^home <t1> ^away <t2> ^court <s>)
  (make played ^t1 <t1> ^t2 <t2>)
  (modify 2 ^left (compute <k> - 1)))\n",
            );
        }
    }
    s
}

/// Builds the Tourney workload.
pub fn workload(cfg: TourneyConfig) -> Workload {
    let n = cfg.teams;
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "team count must be even and >= 4"
    );
    let mut setup = Vec::new();
    for t in 0..n {
        setup.push(SetupWme::new(
            "team",
            &[
                ("name", SetupVal::sym(format!("t{t}"))),
                ("busy", SetupVal::sym("no")),
            ],
        ));
    }
    let total_pairs = (n * (n - 1) / 2) as i64;
    setup.push(SetupWme::new(
        "count",
        &[("left", SetupVal::Int(total_pairs))],
    ));
    if cfg.variant == Variant::Fixed {
        // Domain knowledge: circle-method slot assignments. Two teams with
        // the same (round, slot) play each other that round.
        for (r, pairs) in circle_schedule(n).iter().enumerate() {
            for (slot, &(a, b)) in pairs.iter().enumerate() {
                for t in [a, b] {
                    setup.push(SetupWme::new(
                        "assign",
                        &[
                            ("round", SetupVal::Int(r as i64)),
                            ("team", SetupVal::sym(format!("t{t}"))),
                            ("slot", SetupVal::Int(slot as i64)),
                        ],
                    ));
                }
            }
        }
    }
    for c in 0..n / 2 {
        setup.push(SetupWme::new(
            "court",
            &[
                ("id", SetupVal::Int(c as i64)),
                ("slot", SetupVal::Int(c as i64)),
                ("taken", SetupVal::sym("no")),
            ],
        ));
    }
    setup.push(SetupWme::new(
        "ctrl",
        &[
            ("phase", SetupVal::sym("pair")),
            ("round", SetupVal::Int(0)),
        ],
    ));

    let teams = n;
    let mut name = String::new();
    let _ = write!(
        name,
        "tourney({} teams, {})",
        n,
        match cfg.variant {
            Variant::Pathological => "pathological",
            Variant::Fixed => "fixed",
        }
    );
    Workload {
        name,
        source: generate_source(cfg.variant),
        setup,
        // Per pair: one firing; per round: endround + resets + advance.
        max_cycles: (total_pairs as u64) * 2 + (n as u64) * 4 * (n as u64) + 200,
        validate: Box::new(move |e: &Engine| validate_schedule(e, teams)),
    }
}

fn validate_schedule(e: &Engine, n: usize) -> std::result::Result<(), String> {
    if !e.output().iter().any(|l| l.contains("schedule complete")) {
        return Err("missing 'schedule complete' output".into());
    }
    let game = e.prog.symbols.get("game").ok_or("no game class")?;
    let games = e.wm().of_class(game);
    let expected = n * (n - 1) / 2;
    if games.len() != expected {
        return Err(format!("expected {expected} games, found {}", games.len()));
    }
    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut per_round: std::collections::HashMap<i64, HashSet<String>> = Default::default();
    for g in games {
        let round = match g.field(0) {
            Value::Int(r) => r,
            other => return Err(format!("bad round {other:?}")),
        };
        let home = match g.field(1) {
            Value::Sym(s) => e.prog.symbols.name(s).to_string(),
            other => return Err(format!("bad home {other:?}")),
        };
        let away = match g.field(2) {
            Value::Sym(s) => e.prog.symbols.name(s).to_string(),
            other => return Err(format!("bad away {other:?}")),
        };
        if home == away {
            return Err(format!("team {home} plays itself"));
        }
        let key = if home < away {
            (home.clone(), away.clone())
        } else {
            (away.clone(), home.clone())
        };
        if !seen.insert(key.clone()) {
            return Err(format!("pair {key:?} scheduled twice"));
        }
        let slot = per_round.entry(round).or_default();
        if !slot.insert(home.clone()) {
            return Err(format!("{home} plays twice in round {round}"));
        }
        if !slot.insert(away.clone()) {
            return Err(format!("{away} plays twice in round {round}"));
        }
    }
    if seen.len() != expected {
        return Err(format!(
            "expected {expected} distinct pairs, found {}",
            seen.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use engine::MatcherKind;

    #[test]
    fn circle_schedule_covers_all_pairs_once() {
        for n in [4usize, 6, 8, 12] {
            let rounds = circle_schedule(n);
            assert_eq!(rounds.len(), n - 1);
            let mut seen = HashSet::new();
            for (r, pairs) in rounds.iter().enumerate() {
                assert_eq!(pairs.len(), n / 2, "round {r}");
                let mut teams_in_round = HashSet::new();
                for &(a, b) in pairs {
                    assert_ne!(a, b);
                    assert!(teams_in_round.insert(a));
                    assert!(teams_in_round.insert(b));
                    let key = (a.min(b), a.max(b));
                    assert!(seen.insert(key), "duplicate pair {key:?}");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn pathological_variant_schedules_everything() {
        let w = workload(TourneyConfig {
            teams: 6,
            variant: Variant::Pathological,
        });
        let (_eng, res) = run_workload(&w, &MatcherKind::Vs2(rete::HashMemConfig::PAPER)).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }

    #[test]
    fn fixed_variant_schedules_everything() {
        let w = workload(TourneyConfig {
            teams: 6,
            variant: Variant::Fixed,
        });
        let (_eng, res) = run_workload(&w, &MatcherKind::Vs2(rete::HashMemConfig::PAPER)).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }

    #[test]
    fn pathological_join_is_cross_product() {
        // Structural check: the pick-pair team-team join has no equality
        // specs — the Tourney pathology the paper describes.
        let prog = ops5::Program::from_source(&generate_source(Variant::Pathological)).unwrap();
        let net = rete::network::Network::compile(&prog).unwrap();
        let cross_joins = net
            .joins
            .iter()
            .filter(|j| j.eq_specs.is_empty() && !j.tests.is_empty())
            .count();
        assert!(cross_joins >= 1, "expected a cross-product join");
    }

    #[test]
    fn fixed_variant_joins_all_have_eq_tests() {
        let prog = ops5::Program::from_source(&generate_source(Variant::Fixed)).unwrap();
        let net = rete::network::Network::compile(&prog).unwrap();
        // The pairing production's assign/team joins (CE 3 onward) all
        // carry equality specs; only the trivial ctrl⋈count join (two
        // singleton memories) has none.
        let exec_joins: Vec<_> = net
            .joins
            .iter()
            .filter(|j| net.prod_names[j.prod.index()] == "pick-pair" && j.ce_index >= 2)
            .collect();
        assert!(exec_joins.len() >= 4);
        assert!(exec_joins.iter().all(|j| !j.eq_specs.is_empty()));
    }
}
