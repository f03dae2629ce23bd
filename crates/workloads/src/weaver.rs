//! Weaver — the VLSI-routing workload.
//!
//! Joobbani's Weaver was a 637-rule knowledge-based channel router; the
//! paper used it as the "fairly large program ... demonstrating that our
//! parallel OPS5 can handle real systems". The original source is not
//! available, so this module *generates* a working grid router of the same
//! scale: Lee-style wavefront expansion over a two-layer grid (layer 0
//! routes east-west, layer 1 north-south, vias connect the layers),
//! backtrace along decreasing wave distances, and cleanup — with rule
//! variants specialized by direction × layer × net class so the production
//! count reaches Weaver's ~600.
//!
//! The match profile mirrors the paper's description of Weaver: a large
//! network, moderate memories, equality-test joins everywhere (good hash
//! distribution, no cross-products), thousands of WME changes per run.

use crate::rng::SplitMix64;
use crate::{SetupVal, SetupWme, Workload};
use engine::Engine;
use ops5::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct WeaverConfig {
    pub width: usize,
    pub height: usize,
    /// Net-class specializations; rule count ≈ 17 × kinds + 4.
    pub kinds: usize,
    pub nets: usize,
    /// Percent of cells blocked (0-40).
    pub blocked_pct: u64,
    pub seed: u64,
}

impl Default for WeaverConfig {
    fn default() -> Self {
        WeaverConfig {
            width: 10,
            height: 10,
            kinds: 36,
            nets: 6,
            blocked_pct: 8,
            seed: 42,
        }
    }
}

fn cell_id(cfg: &WeaverConfig, x: usize, y: usize, layer: usize) -> i64 {
    (layer * cfg.width * cfg.height + y * cfg.width + x) as i64
}

/// Generates the OPS5 source: fixed control rules plus per-kind variants.
pub fn generate_source(kinds: usize) -> String {
    let mut s = String::new();
    s.push_str(
        "(literalize cell id x y layer state wire)
(literalize adj from to dir)
(literalize net id kind status src dst)
(literalize wave net cell dist)
(literalize btrack net cell want)
(literalize phase name net)\n",
    );

    // Directions and the layer their in-plane edges live on.
    let dirs: [(&str, usize); 4] = [("east", 0), ("west", 0), ("north", 1), ("south", 1)];

    for k in 0..kinds {
        let kind = format!("k{k}");
        // Expansion: in-plane per direction, plus vias both ways.
        for (dir, layer) in dirs {
            let _ = writeln!(
                s,
                "(p expand-{dir}-{kind}
  (phase ^name expand ^net <n>)
  (net ^id <n> ^kind {kind} ^status routing)
  (wave ^net <n> ^cell <c> ^dist <d>)
  (adj ^from <c> ^to <c2> ^dir {dir})
  (cell ^id <c2> ^layer {layer} ^state free)
  - (wave ^net <n> ^cell <c2>)
  -->
  (make wave ^net <n> ^cell <c2> ^dist (compute <d> + 1)))"
            );
        }
        for (dir, layer) in [("up", 1), ("down", 0)] {
            let _ = writeln!(
                s,
                "(p expand-{dir}-{kind}
  (phase ^name expand ^net <n>)
  (net ^id <n> ^kind {kind} ^status routing)
  (wave ^net <n> ^cell <c> ^dist <d>)
  (adj ^from <c> ^to <c2> ^dir {dir})
  (cell ^id <c2> ^layer {layer} ^state free)
  - (wave ^net <n> ^cell <c2>)
  -->
  (make wave ^net <n> ^cell <c2> ^dist (compute <d> + 1)))"
            );
        }
        // Entering the destination terminal: terminals are state `term`
        // (wires of other nets may never cross them), so the plain expand
        // rules skip them; this rule lets the wavefront finish.
        let _ = writeln!(
            s,
            "(p reach-dst-{kind}
  (phase ^name expand ^net <n>)
  (net ^id <n> ^kind {kind} ^status routing ^dst <t>)
  (wave ^net <n> ^cell <c> ^dist <d>)
  (adj ^from <c> ^to <t>)
  - (wave ^net <n> ^cell <t>)
  -->
  (make wave ^net <n> ^cell <t> ^dist (compute <d> + 1)))"
        );
        // Target reached: switch to backtrace.
        let _ = writeln!(
            s,
            "(p reached-{kind}
  (phase ^name expand ^net <n>)
  (net ^id <n> ^kind {kind} ^status routing ^dst <t>)
  (wave ^net <n> ^cell <t> ^dist <d>)
  -->
  (modify 1 ^name trace)
  (make btrack ^net <n> ^cell <t> ^want (compute <d> - 1)))"
        );
        // Backtrace steps, per direction.
        for dir in ["east", "west", "north", "south", "up", "down"] {
            let _ = writeln!(
                s,
                "(p trace-{dir}-{kind}
  (phase ^name trace ^net <n>)
  (net ^id <n> ^kind {kind})
  (btrack ^net <n> ^cell <c> ^want <w>)
  (adj ^from <c> ^to <c2> ^dir {dir})
  (wave ^net <n> ^cell <c2> ^dist <w>)
  (cell ^id <c2>)
  -->
  (remove 3)
  (make btrack ^net <n> ^cell <c2> ^want (compute <w> - 1))
  (modify 6 ^state used ^wire <n>))"
            );
        }
        // Dead net: expansion exhausted without reaching the target.
        let _ = writeln!(
            s,
            "(p stuck-{kind}
  (phase ^name expand ^net <n>)
  (net ^id <n> ^kind {kind} ^status routing ^dst <t>)
  - (wave ^net <n> ^cell <t>)
  -->
  (modify 2 ^status failed)
  (modify 1 ^name cleanup))"
        );
        // Start the next pending net of this kind.
        let _ = writeln!(
            s,
            "(p start-net-{kind}
  (phase ^name idle)
  (net ^id <n> ^kind {kind} ^status pending ^src <sc>)
  -->
  (modify 2 ^status routing)
  (modify 1 ^name expand ^net <n>)
  (make wave ^net <n> ^cell <sc> ^dist 0))"
        );
        // Cleanup of this net's wavefront.
        let _ = writeln!(
            s,
            "(p clean-wave-{kind}
  (phase ^name cleanup ^net <n>)
  (net ^id <n> ^kind {kind})
  (wave ^net <n>)
  -->
  (remove 3))"
        );
    }

    // Fixed control rules.
    s.push_str(
        "(p trace-done
  (phase ^name trace ^net <n>)
  (net ^id <n> ^src <sc>)
  (btrack ^net <n> ^cell <sc>)
  -->
  (remove 3)
  (modify 2 ^status routed)
  (modify 1 ^name cleanup))
(p clean-btrack
  (phase ^name cleanup ^net <n>)
  (btrack ^net <n>)
  -->
  (remove 2))
(p clean-done
  (phase ^name cleanup ^net <n>)
  - (wave ^net <n>)
  - (btrack ^net <n>)
  -->
  (modify 1 ^name idle ^net nil))
(p all-done
  (phase ^name idle)
  - (net ^status pending)
  -->
  (write routing complete (crlf))
  (halt))\n",
    );
    s
}

/// Generated board state, kept for validation.
pub struct Board {
    pub cfg: WeaverConfig,
    pub blocked: HashSet<i64>,
    /// Net id → (src cell, dst cell), both on layer 0.
    pub nets: Vec<(i64, i64)>,
}

/// Builds the board and the initial working memory.
fn generate_board(cfg: &WeaverConfig) -> (Board, Vec<SetupWme>) {
    let mut rng = SplitMix64::new(cfg.seed);
    let (w, h) = (cfg.width, cfg.height);
    let mut blocked: HashSet<i64> = HashSet::new();
    for layer in 0..2 {
        for y in 0..h {
            for x in 0..w {
                if rng.chance(cfg.blocked_pct, 100) {
                    blocked.insert(cell_id(cfg, x, y, layer));
                }
            }
        }
    }
    // Net terminals on layer 0, distinct, never blocked.
    let mut used: HashSet<i64> = HashSet::new();
    let mut nets = Vec::with_capacity(cfg.nets);
    for _ in 0..cfg.nets {
        let pick = |rng: &mut SplitMix64, used: &mut HashSet<i64>, blocked: &mut HashSet<i64>| loop {
            let x = rng.index(w);
            let y = rng.index(h);
            let id = cell_id(cfg, x, y, 0);
            if used.contains(&id) {
                continue;
            }
            blocked.remove(&id);
            used.insert(id);
            return id;
        };
        let src = pick(&mut rng, &mut used, &mut blocked);
        let dst = pick(&mut rng, &mut used, &mut blocked);
        nets.push((src, dst));
    }

    let terminals: HashSet<i64> = nets.iter().flat_map(|&(s, d)| [s, d]).collect();
    let mut setup = Vec::new();
    for layer in 0..2 {
        for y in 0..h {
            for x in 0..w {
                let id = cell_id(cfg, x, y, layer);
                let state = if terminals.contains(&id) {
                    // Terminal cells are reserved: other nets' wavefronts
                    // and wires may never cross them.
                    "term"
                } else if blocked.contains(&id) {
                    "blocked"
                } else {
                    "free"
                };
                setup.push(SetupWme::new(
                    "cell",
                    &[
                        ("id", SetupVal::Int(id)),
                        ("x", SetupVal::Int(x as i64)),
                        ("y", SetupVal::Int(y as i64)),
                        ("layer", SetupVal::Int(layer as i64)),
                        ("state", SetupVal::sym(state)),
                        ("wire", SetupVal::sym("nil")),
                    ],
                ));
            }
        }
    }
    let adj = |setup: &mut Vec<SetupWme>, from: i64, to: i64, dir: &str| {
        setup.push(SetupWme::new(
            "adj",
            &[
                ("from", SetupVal::Int(from)),
                ("to", SetupVal::Int(to)),
                ("dir", SetupVal::sym(dir)),
            ],
        ));
    };
    for y in 0..h {
        for x in 0..w {
            // Layer 0: east/west.
            if x + 1 < w {
                adj(
                    &mut setup,
                    cell_id(cfg, x, y, 0),
                    cell_id(cfg, x + 1, y, 0),
                    "east",
                );
                adj(
                    &mut setup,
                    cell_id(cfg, x + 1, y, 0),
                    cell_id(cfg, x, y, 0),
                    "west",
                );
            }
            // Layer 1: north/south.
            if y + 1 < h {
                adj(
                    &mut setup,
                    cell_id(cfg, x, y, 1),
                    cell_id(cfg, x, y + 1, 1),
                    "south",
                );
                adj(
                    &mut setup,
                    cell_id(cfg, x, y + 1, 1),
                    cell_id(cfg, x, y, 1),
                    "north",
                );
            }
            // Vias.
            adj(
                &mut setup,
                cell_id(cfg, x, y, 0),
                cell_id(cfg, x, y, 1),
                "up",
            );
            adj(
                &mut setup,
                cell_id(cfg, x, y, 1),
                cell_id(cfg, x, y, 0),
                "down",
            );
        }
    }
    for (i, &(src, dst)) in nets.iter().enumerate() {
        setup.push(SetupWme::new(
            "net",
            &[
                ("id", SetupVal::Int(i as i64)),
                ("kind", SetupVal::sym(format!("k{}", i % cfg.kinds))),
                ("status", SetupVal::sym("pending")),
                ("src", SetupVal::Int(src)),
                ("dst", SetupVal::Int(dst)),
            ],
        ));
    }
    setup.push(SetupWme::new(
        "phase",
        &[
            ("name", SetupVal::sym("idle")),
            ("net", SetupVal::sym("nil")),
        ],
    ));
    (
        Board {
            cfg: *cfg,
            blocked,
            nets,
        },
        setup,
    )
}

/// Builds the Weaver workload.
pub fn workload(cfg: WeaverConfig) -> Workload {
    let (board, setup) = generate_board(&cfg);
    let cells = 2 * cfg.width * cfg.height;
    let max_cycles = (cfg.nets as u64) * (3 * cells as u64 + 200) + 200;
    Workload {
        name: format!(
            "weaver({}x{}x2, {} nets, {} kinds)",
            cfg.width, cfg.height, cfg.nets, cfg.kinds
        ),
        source: generate_source(cfg.kinds),
        setup,
        max_cycles,
        validate: Box::new(move |e: &Engine| validate_routes(e, &board)),
    }
}

fn validate_routes(e: &Engine, board: &Board) -> std::result::Result<(), String> {
    if !e.output().iter().any(|l| l.contains("routing complete")) {
        return Err("missing 'routing complete' output".into());
    }
    let syms = &e.prog.symbols;
    let net_class = syms.get("net").ok_or("no net class")?;
    let cell_class = syms.get("cell").ok_or("no cell class")?;
    let routed_sym = syms.get("routed");
    let pending_sym = syms.get("pending");

    // Per-net wire cells.
    let mut wires: HashMap<i64, HashSet<i64>> = HashMap::new();
    for c in e.wm().of_class(cell_class) {
        if let (Value::Int(id), Value::Int(net)) = (c.field(0), {
            // wire attr is field 5; may hold nil or a net id.
            match c.field(5) {
                Value::Int(n) => Value::Int(n),
                _ => Value::NIL,
            }
        }) {
            wires.entry(net).or_default().insert(id);
        }
    }

    let mut n_routed = 0;
    for w in e.wm().of_class(net_class) {
        let id = match w.field(0) {
            Value::Int(i) => i,
            other => return Err(format!("bad net id {other:?}")),
        };
        let status = w.field(2);
        if Some(status) == pending_sym.map(Value::Sym) {
            return Err(format!("net {id} still pending"));
        }
        if Some(status) == routed_sym.map(Value::Sym) {
            n_routed += 1;
            // Check connectivity of the wire cells (plus dst, which the
            // backtrace never marks) from src to dst.
            let (src, dst) = board.nets[id as usize];
            let mut cells: HashSet<i64> = wires.get(&id).cloned().unwrap_or_default();
            cells.insert(dst);
            if !cells.contains(&src) {
                return Err(format!("net {id}: src not on wire"));
            }
            if !connected(board, &cells, src, dst) {
                return Err(format!("net {id}: wire not connected"));
            }
        }
    }
    if n_routed == 0 {
        return Err("no net routed at all".into());
    }
    Ok(())
}

/// BFS over the board's adjacency restricted to `cells`.
fn connected(board: &Board, cells: &HashSet<i64>, src: i64, dst: i64) -> bool {
    let cfg = &board.cfg;
    let (w, h) = (cfg.width as i64, cfg.height as i64);
    let decode = |id: i64| -> (i64, i64, i64) {
        let layer = id / (w * h);
        let rem = id % (w * h);
        (rem % w, rem / w, layer)
    };
    let encode = |x: i64, y: i64, l: i64| l * w * h + y * w + x;
    let mut seen = HashSet::new();
    let mut q = VecDeque::new();
    q.push_back(src);
    seen.insert(src);
    while let Some(c) = q.pop_front() {
        if c == dst {
            return true;
        }
        let (x, y, l) = decode(c);
        let mut neighbors = Vec::with_capacity(3);
        if l == 0 {
            if x > 0 {
                neighbors.push(encode(x - 1, y, 0));
            }
            if x + 1 < w {
                neighbors.push(encode(x + 1, y, 0));
            }
            neighbors.push(encode(x, y, 1));
        } else {
            if y > 0 {
                neighbors.push(encode(x, y - 1, 1));
            }
            if y + 1 < h {
                neighbors.push(encode(x, y + 1, 1));
            }
            neighbors.push(encode(x, y, 0));
        }
        for n in neighbors {
            if cells.contains(&n) && seen.insert(n) {
                q.push_back(n);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_workload;
    use engine::MatcherKind;

    fn small() -> WeaverConfig {
        WeaverConfig {
            width: 5,
            height: 4,
            kinds: 3,
            nets: 2,
            blocked_pct: 0,
            seed: 3,
        }
    }

    #[test]
    fn source_scales_with_kinds() {
        let s = generate_source(4);
        let count = s.matches("(p ").count();
        // 17 per kind + 4 fixed.
        assert_eq!(count, 4 * 17 + 4);
        // Parseable.
        let prog = ops5::Program::from_source(&s).unwrap();
        assert_eq!(prog.productions.len(), count);
    }

    #[test]
    fn weaver_scale_config_has_600ish_rules() {
        let s = generate_source(WeaverConfig::default().kinds);
        let prog = ops5::Program::from_source(&s).unwrap();
        assert!(
            prog.productions.len() >= 570,
            "got {} rules",
            prog.productions.len()
        );
    }

    #[test]
    fn routes_small_board() {
        let w = workload(small());
        let (eng, res) = run_workload(&w, &MatcherKind::Vs2(rete::HashMemConfig::PAPER)).unwrap();
        assert_eq!(
            res.reason,
            engine::StopReason::Halt,
            "cycles: {}",
            res.cycles
        );
        assert!(eng.output().iter().any(|l| l.contains("routing complete")));
    }

    #[test]
    fn routes_with_blocks() {
        let mut cfg = small();
        cfg.blocked_pct = 10;
        cfg.seed = 9;
        let w = workload(cfg);
        let (_eng, res) = run_workload(&w, &MatcherKind::Vs2(rete::HashMemConfig::PAPER)).unwrap();
        assert_eq!(res.reason, engine::StopReason::Halt);
    }

    #[test]
    fn deterministic_board() {
        let (a, sa) = generate_board(&small());
        let (b, sb) = generate_board(&small());
        assert_eq!(a.nets, b.nets);
        assert_eq!(sa.len(), sb.len());
    }
}
