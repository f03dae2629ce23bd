//! Rubik — the cube-solver workload.
//!
//! James Allen's 70-rule Rubik program gave the paper its best speed-up
//! (12.4× at 1+13). The original source is lost; this rebuild keeps the
//! match profile: a facelet cube lives in working memory, every move firing
//! rewrites ~20 facelet WMEs (a burst of 40+ WME changes per cycle), the
//! move productions have deep LHS chains (21 condition elements) with
//! single-WME alpha memories — lots of cheap, independent node activations
//! and no cross-products. That is what psm and `psm::trace` see, taking
//! the burst in RHS order as the paper did: each facelet's delete/add pair
//! tears down and rebuilds the chain below its CE (~380 left activations
//! and 40 conflict-set changes per firing) for an instantiation the closing
//! `modify 1` of the step counter retracts. vs1, vs2 and lispsim take the
//! burst's retractions first (`rete::seq`), so the chain comes down once
//! and only the next move's instantiation goes up.
//!
//! The 18 move productions are *generated* from facelet permutations that
//! are themselves derived from 3D sticker rotation (correct by
//! construction, verified by `move⁴ = identity` tests). Solving plans come
//! from an IDDFS solver for short scrambles or scramble inversion for long
//! benchmark runs; either way the plan is *executed and verified entirely
//! by rule firings*.

use crate::rng::SplitMix64;
use crate::{SetupVal, SetupWme, Workload};
use engine::Engine;
use ops5::Value;
use std::fmt::Write as _;

/// Total sticker count.
pub const N_FACELETS: usize = 54;

/// Face order: U, D, F, B, L, R.
pub const FACE_NAMES: [char; 6] = ['u', 'd', 'f', 'b', 'l', 'r'];

type V3 = [i32; 3];

/// (normal, right, down) basis per face, fixing the facelet numbering:
/// `face*9 + (down+1)*3 + (right+1)`.
const FACES: [(V3, V3, V3); 6] = [
    ([0, 1, 0], [1, 0, 0], [0, 0, 1]),    // U
    ([0, -1, 0], [1, 0, 0], [0, 0, -1]),  // D
    ([0, 0, 1], [1, 0, 0], [0, -1, 0]),   // F
    ([0, 0, -1], [-1, 0, 0], [0, -1, 0]), // B
    ([-1, 0, 0], [0, 0, 1], [0, -1, 0]),  // L
    ([1, 0, 0], [0, 0, -1], [0, -1, 0]),  // R
];

fn dot(a: V3, b: V3) -> i32 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn add(a: V3, b: V3) -> V3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: V3, k: i32) -> V3 {
    [a[0] * k, a[1] * k, a[2] * k]
}

fn facelet_index(cell: V3, normal: V3) -> usize {
    let face = FACES
        .iter()
        .position(|(n, _, _)| *n == normal)
        .expect("normal is a face normal");
    let (_, r, d) = FACES[face];
    let rc = dot(cell, r);
    let dc = dot(cell, d);
    face * 9 + ((dc + 1) * 3 + (rc + 1)) as usize
}

/// Clockwise quarter-turn rotation (viewed from outside the face).
fn rotate(face: usize, v: V3) -> V3 {
    let [x, y, z] = v;
    match face {
        0 => [-z, y, x], // U (from +y)
        1 => [z, y, -x], // D (from -y)
        2 => [y, -x, z], // F (from +z)
        3 => [-y, x, z], // B (from -z)
        4 => [x, -z, y], // L (from -x)
        5 => [x, z, -y], // R (from +x)
        _ => unreachable!(),
    }
}

/// A move: face 0..6, quarter turns 1..=3 (3 = counter-clockwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Move {
    pub face: u8,
    pub turns: u8,
}

impl Move {
    pub fn name(&self) -> String {
        format!("{}{}", FACE_NAMES[self.face as usize], self.turns)
    }

    pub fn inverse(&self) -> Move {
        Move {
            face: self.face,
            turns: 4 - self.turns,
        }
    }

    /// All 18 distinct moves.
    pub fn all() -> Vec<Move> {
        let mut v = Vec::with_capacity(18);
        for face in 0..6u8 {
            for turns in 1..=3u8 {
                v.push(Move { face, turns });
            }
        }
        v
    }
}

/// Facelet permutation of a quarter turn of `face`: `perm[i]` is where the
/// sticker at `i` moves.
pub fn quarter_perm(face: usize) -> [usize; N_FACELETS] {
    let mut perm = [0usize; N_FACELETS];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let (n, _r, _d) = FACES[face];
    // Every sticker on every face; rotate those in the moving layer.
    for (fi, (fnorm, fr, fd)) in FACES.iter().enumerate() {
        for b in -1..=1i32 {
            for a in -1..=1i32 {
                let cell = add(*fnorm, add(scale(*fr, a), scale(*fd, b)));
                // In the moving layer iff the cell's coordinate along the
                // move axis equals the face normal's.
                let along = dot(cell, n);
                let nn = dot(n, n); // 1
                debug_assert_eq!(nn, 1);
                if along != 1 {
                    continue;
                }
                let from = facelet_index(cell, *fnorm);
                let to = facelet_index(rotate(face, cell), rotate(face, *fnorm));
                perm[from] = to;
                let _ = fi;
            }
        }
    }
    perm
}

/// Permutation of a full move (1..3 quarter turns).
pub fn move_perm(m: Move) -> [usize; N_FACELETS] {
    let q = quarter_perm(m.face as usize);
    let mut perm = [0usize; N_FACELETS];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for _ in 0..m.turns {
        let mut next = [0usize; N_FACELETS];
        for i in 0..N_FACELETS {
            next[i] = q[perm[i]];
        }
        perm = next;
    }
    perm
}

/// The cube: 54 sticker colors (color = face index of origin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cube {
    pub stickers: [u8; N_FACELETS],
}

impl Default for Cube {
    fn default() -> Self {
        Self::solved()
    }
}

impl Cube {
    pub fn solved() -> Cube {
        let mut stickers = [0u8; N_FACELETS];
        for (i, s) in stickers.iter_mut().enumerate() {
            *s = (i / 9) as u8;
        }
        Cube { stickers }
    }

    pub fn apply(&mut self, m: Move) {
        let perm = move_perm(m);
        let old = self.stickers;
        for (i, &to) in perm.iter().enumerate() {
            self.stickers[to] = old[i];
        }
    }

    pub fn apply_seq(&mut self, seq: &[Move]) {
        for &m in seq {
            self.apply(m);
        }
    }

    pub fn is_solved(&self) -> bool {
        self.stickers
            .iter()
            .enumerate()
            .all(|(i, &c)| c == (i / 9) as u8)
    }
}

/// A random scramble with no two consecutive turns of the same face.
pub fn scramble(seed: u64, len: usize) -> Vec<Move> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len);
    let mut last_face = 6u8;
    for _ in 0..len {
        let mut face = rng.below(6) as u8;
        while face == last_face {
            face = rng.below(6) as u8;
        }
        last_face = face;
        out.push(Move {
            face,
            turns: rng.below(3) as u8 + 1,
        });
    }
    out
}

/// Inverse of a move sequence (solves what the sequence scrambled).
pub fn invert(seq: &[Move]) -> Vec<Move> {
    seq.iter().rev().map(|m| m.inverse()).collect()
}

/// Iterative-deepening DFS solver in the half-turn metric, pruning
/// consecutive same-face turns. Practical to depth ~6.
pub fn solve_iddfs(cube: &Cube, max_depth: usize) -> Option<Vec<Move>> {
    if cube.is_solved() {
        return Some(Vec::new());
    }
    let moves = Move::all();
    for depth in 1..=max_depth {
        let mut path = Vec::with_capacity(depth);
        let mut c = cube.clone();
        if dfs(&mut c, depth, 6, &moves, &mut path) {
            return Some(path);
        }
    }
    None
}

fn dfs(cube: &mut Cube, depth: usize, last_face: u8, moves: &[Move], path: &mut Vec<Move>) -> bool {
    if depth == 0 {
        return cube.is_solved();
    }
    for &m in moves {
        if m.face == last_face {
            continue;
        }
        let before = cube.clone();
        cube.apply(m);
        path.push(m);
        if dfs(cube, depth - 1, m.face, moves, path) {
            return true;
        }
        path.pop();
        *cube = before;
    }
    false
}

/// How the solving plan is produced.
#[derive(Debug, Clone, Copy)]
pub enum PlanMode {
    /// Genuine search (short scrambles; depth-bounded).
    Iddfs { max_depth: usize },
    /// Scramble inversion (long benchmark runs; the plan is still executed
    /// and verified entirely by rule firings).
    Inverse,
}

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct RubikConfig {
    pub seed: u64,
    pub scramble_len: usize,
    pub plan: PlanMode,
}

impl Default for RubikConfig {
    fn default() -> Self {
        RubikConfig {
            seed: 7,
            scramble_len: 20,
            plan: PlanMode::Inverse,
        }
    }
}

/// Generates the OPS5 source for the Rubik program.
pub fn generate_source() -> String {
    let mut s = String::new();
    s.push_str("(literalize f pos color)\n");
    s.push_str("(literalize plan step move)\n");
    s.push_str("(literalize counter value)\n");
    s.push_str("(literalize phase name)\n");
    s.push_str("(literalize face-ok face)\n");

    // 18 move-application productions.
    for m in Move::all() {
        let perm = move_perm(m);
        let affected: Vec<usize> = (0..N_FACELETS).filter(|&i| perm[i] != i).collect();
        // inv[j] = source position whose sticker lands on j.
        let mut inv = [usize::MAX; N_FACELETS];
        for &i in &affected {
            inv[perm[i]] = i;
        }
        // One production per move: the plan step and counter drive it
        // directly, so a whole move is a single recognize-act cycle whose
        // RHS pipelines ~41 WME changes into the matcher — the burst that
        // gives Rubik its parallelism.
        let _ = writeln!(s, "(p apply-{}", m.name());
        s.push_str("  (counter ^value <s>)\n");
        let _ = writeln!(s, "  (plan ^step <s> ^move {})", m.name());
        for &p in &affected {
            let _ = writeln!(s, "  (f ^pos {p} ^color <c{p}>)");
        }
        s.push_str("  -->\n");
        for (k, &j) in affected.iter().enumerate() {
            let src = inv[j];
            debug_assert_ne!(src, usize::MAX);
            let _ = writeln!(s, "  (modify {} ^color <c{src}>)", k + 3);
        }
        s.push_str("  (modify 1 ^value (compute <s> + 1)))\n");
    }

    // Plan driver: when no plan step remains, switch to the check phase.
    s.push_str(
        "(p plan-exhausted
  (counter ^value <s>)
  - (plan ^step <s>)
  -->
  (remove 1)
  (make phase ^name check))\n",
    );

    // Solved-face detection, one production per face.
    for (face, face_name) in FACE_NAMES.iter().enumerate() {
        let base = face * 9;
        let _ = writeln!(s, "(p solved-{face_name}");
        s.push_str("  (phase ^name check)\n");
        let _ = writeln!(s, "  (f ^pos {} ^color <c>)", base + 4);
        for k in 0..9 {
            if k == 4 {
                continue;
            }
            let _ = writeln!(s, "  (f ^pos {} ^color <c>)", base + k);
        }
        s.push_str("  -->\n");
        let _ = writeln!(s, "  (make face-ok ^face {face}))");
    }
    s.push_str(
        "(p all-solved
  (phase ^name check)
  (face-ok ^face 0) (face-ok ^face 1) (face-ok ^face 2)
  (face-ok ^face 3) (face-ok ^face 4) (face-ok ^face 5)
  -->
  (write cube solved (crlf))
  (halt))\n",
    );
    s
}

/// Builds the complete Rubik workload.
pub fn workload(cfg: RubikConfig) -> Workload {
    let scr = scramble(cfg.seed, cfg.scramble_len);
    let mut cube = Cube::solved();
    cube.apply_seq(&scr);
    let plan = match cfg.plan {
        PlanMode::Iddfs { max_depth } => {
            solve_iddfs(&cube, max_depth).expect("IDDFS failed: scramble longer than max_depth?")
        }
        PlanMode::Inverse => invert(&scr),
    };
    let mut check = cube.clone();
    check.apply_seq(&plan);
    assert!(check.is_solved(), "plan must solve the cube");

    let mut setup = Vec::new();
    for (i, &c) in cube.stickers.iter().enumerate() {
        setup.push(SetupWme::new(
            "f",
            &[
                ("pos", SetupVal::Int(i as i64)),
                ("color", SetupVal::Int(c as i64)),
            ],
        ));
    }
    for (k, m) in plan.iter().enumerate() {
        setup.push(SetupWme::new(
            "plan",
            &[
                ("step", SetupVal::Int(k as i64)),
                ("move", SetupVal::sym(m.name())),
            ],
        ));
    }
    setup.push(SetupWme::new("counter", &[("value", SetupVal::Int(0))]));

    let plan_len = plan.len() as u64;
    Workload {
        name: format!("rubik(scramble={}, plan={})", cfg.scramble_len, plan_len),
        source: generate_source(),
        setup,
        // One cycle per move, plus the check phase.
        max_cycles: plan_len + 20,
        validate: Box::new(validate_solved),
    }
}

fn validate_solved(e: &Engine) -> std::result::Result<(), String> {
    if !e.output().iter().any(|l| l.contains("cube solved")) {
        return Err("missing 'cube solved' output".into());
    }
    // Read the facelets back out of working memory.
    let fclass = e.prog.symbols.get("f").ok_or("no f class")?;
    let wmes = e.wm().of_class(fclass);
    if wmes.len() != N_FACELETS {
        return Err(format!("expected 54 facelets, found {}", wmes.len()));
    }
    for w in wmes {
        let pos = match w.field(0) {
            Value::Int(i) => i as usize,
            other => return Err(format!("bad pos {other:?}")),
        };
        let color = match w.field(1) {
            Value::Int(i) => i as u8,
            other => return Err(format!("bad color {other:?}")),
        };
        if color != (pos / 9) as u8 {
            return Err(format!("facelet {pos} has color {color}, cube not solved"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_workload, MatcherChoice};

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn four_quarter_turns_are_identity() {
        for face in 0..6 {
            let mut c = Cube::solved();
            // Scramble first so the check is not vacuous.
            c.apply_seq(&scramble(1, 10));
            let before = c.clone();
            for _ in 0..4 {
                c.apply(Move {
                    face: face as u8,
                    turns: 1,
                });
            }
            assert_eq!(c, before, "face {face}");
        }
    }

    #[test]
    fn move_and_inverse_cancel() {
        for m in Move::all() {
            let mut c = Cube::solved();
            c.apply_seq(&scramble(2, 8));
            let before = c.clone();
            c.apply(m);
            c.apply(m.inverse());
            assert_eq!(c, before, "{m:?}");
        }
    }

    #[test]
    fn moves_preserve_color_counts_and_centers() {
        for m in Move::all() {
            let mut c = Cube::solved();
            c.apply(m);
            let mut counts = [0u8; 6];
            for &s in &c.stickers {
                counts[s as usize] += 1;
            }
            assert!(counts.iter().all(|&n| n == 9), "{m:?}");
            for face in 0..6 {
                assert_eq!(c.stickers[face * 9 + 4], face as u8, "center moved: {m:?}");
            }
        }
    }

    #[test]
    fn quarter_turn_moves_exactly_20_stickers() {
        for face in 0..6 {
            let p = quarter_perm(face);
            let moved = (0..N_FACELETS).filter(|&i| p[i] != i).count();
            assert_eq!(moved, 20, "face {face}");
        }
    }

    #[test]
    fn scramble_inversion_solves() {
        let s = scramble(3, 25);
        let mut c = Cube::solved();
        c.apply_seq(&s);
        assert!(!c.is_solved());
        c.apply_seq(&invert(&s));
        assert!(c.is_solved());
    }

    #[test]
    fn iddfs_finds_short_solutions() {
        let s = scramble(4, 3);
        let mut c = Cube::solved();
        c.apply_seq(&s);
        let sol = solve_iddfs(&c, 3).expect("solvable in 3");
        assert!(sol.len() <= 3);
        c.apply_seq(&sol);
        assert!(c.is_solved());
    }

    #[test]
    fn rubik_program_solves_cube_via_rules() {
        let cfg = RubikConfig {
            seed: 11,
            scramble_len: 4,
            plan: PlanMode::Inverse,
        };
        let w = workload(cfg);
        let (eng, res) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
        assert!(eng.output().iter().any(|l| l.contains("cube solved")));
    }

    #[test]
    fn rubik_with_iddfs_plan() {
        let cfg = RubikConfig {
            seed: 5,
            scramble_len: 3,
            plan: PlanMode::Iddfs { max_depth: 3 },
        };
        let w = workload(cfg);
        let (_eng, res) = run_workload(&w, &MatcherChoice::Vs2).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }
}
