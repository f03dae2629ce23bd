//! The event-driven multiprocessor simulation.

use psm::line::LockScheme;
use psm::trace::{CostModel, RunTrace, TaskKind, TaskRecord, NO_LINE};
use rete::fxhash::FxHashMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Instructions one spin-loop iteration costs (converts lock wait time into
/// the paper's "number of times a process spins" metric).
pub const SPIN_UNIT: u64 = 4;

/// Instructions the MRSW entry lock is held per attempt.
const ENTRY_HOLD: u64 = 6;

/// Simulator configuration — one (processes, queues, lock scheme) point of
/// Tables 4-5..4-9.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Match processes ("k" in the paper's "1+k").
    pub match_processes: usize,
    /// Task queues.
    pub queues: usize,
    pub lock_scheme: LockScheme,
    pub cost: CostModel,
}

impl SimConfig {
    pub fn new(match_processes: usize, queues: usize, lock_scheme: LockScheme) -> SimConfig {
        SimConfig {
            match_processes,
            queues,
            lock_scheme,
            cost: CostModel::default(),
        }
    }
}

/// Simulation outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimResult {
    /// Σ over cycles of (match-phase end − cycle start), in instructions —
    /// the "time to do match" the paper's speed-ups are computed on.
    pub match_time: u64,
    /// Total virtual time including RHS evaluation and conflict resolution.
    pub total_time: u64,
    pub tasks: u64,
    pub queue_spins: u64,
    pub queue_acqs: u64,
    pub hash_spins_left: u64,
    pub hash_acqs_left: u64,
    pub hash_spins_right: u64,
    pub hash_acqs_right: u64,
    /// MRSW: tokens put back on a queue because the line was in use by the
    /// opposite side.
    pub requeues: u64,
    /// Σ processor busy time (work conservation checks).
    pub busy: u64,
}

impl SimResult {
    /// Average spins per task-queue lock acquisition (Table 4-7).
    pub fn avg_queue_spins(&self) -> f64 {
        avg(self.queue_spins, self.queue_acqs)
    }
    /// Average spins per left-side line acquisition (Table 4-9).
    pub fn avg_hash_left(&self) -> f64 {
        avg(self.hash_spins_left, self.hash_acqs_left)
    }
    pub fn avg_hash_right(&self) -> f64 {
        avg(self.hash_spins_right, self.hash_acqs_right)
    }
}

fn avg(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Control process finished computing change for root task `idx`.
    RootPush(u32),
    /// Processor p looks for work.
    ProcTry(u32),
    /// A push completed: task becomes visible in the queue (second field)
    /// and an idle processor may be woken.
    Avail(u32, u32),
    /// Processor (first field) finished processing task (second field):
    /// push its children now, then look for more work.
    TaskDone(u32, u32),
}

#[derive(Default, Clone, Copy)]
struct MrswLine {
    entry_free_at: u64,
    mod_free_at: u64,
    left_busy_until: u64,
    right_busy_until: u64,
}

struct Cycle<'a> {
    tasks: &'a [TaskRecord],
    /// children[i] = indices of tasks pushed by task i.
    children: Vec<Vec<u32>>,
    roots: Vec<u32>,
}

/// Runs the simulation over a recorded trace.
pub fn simulate(trace: &RunTrace, cfg: &SimConfig) -> SimResult {
    let mut res = SimResult::default();
    let mut clock: u64 = 0; // control-process clock across cycles
    let nq = cfg.queues.max(1);
    let np = cfg.match_processes.max(1);
    let cm = &cfg.cost;
    let pop_hold = (cm.sched_overhead as u64 / 2).max(1);
    let push_hold = (cm.sched_overhead as u64 / 2).max(1);

    for cyc in &trace.cycles {
        // Index the cycle's tasks by id and build the child adjacency.
        let mut index: FxHashMap<u32, u32> = FxHashMap::default();
        for (i, t) in cyc.tasks.iter().enumerate() {
            index.insert(t.id, i as u32);
        }
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); cyc.tasks.len()];
        for (i, t) in cyc.tasks.iter().enumerate() {
            if let Some(p) = t.parent {
                if let Some(&pi) = index.get(&p) {
                    children[pi as usize].push(i as u32);
                }
            }
        }
        let roots: Vec<u32> = cyc
            .roots
            .iter()
            .filter_map(|r| index.get(r).copied())
            .collect();
        let cycle = Cycle {
            tasks: &cyc.tasks,
            children,
            roots,
        };
        let end = simulate_cycle(&cycle, cfg, nq, np, pop_hold, push_hold, clock, &mut res);
        res.match_time += end.match_end - clock;
        res.tasks += cyc.tasks.len() as u64;
        // Conflict resolution starts only when the match phase is complete
        // (TaskCount reached zero) and the control process is done.
        clock = end.match_end.max(end.control_end) + cm.cr_per_cycle as u64;
    }
    res.total_time = clock;
    res
}

struct CycleEnd {
    match_end: u64,
    control_end: u64,
}

#[allow(clippy::too_many_arguments)]
fn simulate_cycle(
    cyc: &Cycle,
    cfg: &SimConfig,
    nq: usize,
    np: usize,
    pop_hold: u64,
    push_hold: u64,
    start: u64,
    res: &mut SimResult,
) -> CycleEnd {
    let cm = &cfg.cost;
    let mut heap: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push_ev =
        |heap: &mut BinaryHeap<Reverse<(u64, u64, Ev)>>, t: u64, ev: Ev, seq: &mut u64| {
            heap.push(Reverse((t, *seq, ev)));
            *seq += 1;
        };

    let mut q_items: Vec<VecDeque<u32>> = vec![VecDeque::new(); nq];
    let mut q_free: Vec<u64> = vec![0; nq];
    let mut simple_free: FxHashMap<u32, u64> = FxHashMap::default();
    let mut mrsw: FxHashMap<u32, MrswLine> = FxHashMap::default();
    let mut cs_free: u64 = 0;
    let mut idle: Vec<u32> = (0..np as u32).collect();
    let mut proc_cursor: Vec<usize> = (0..np).collect();
    let mut control_cursor = 0usize;

    let mut remaining = cyc.tasks.len() as u64;
    let mut match_end = start;
    let mut control_end = start;

    // Kick off the control process: each root task carries one WME change
    // and is pushed after one RHS-evaluation quantum, as RHS evaluation
    // computes its change (§3.1).
    if cyc.roots.is_empty() {
        return CycleEnd {
            match_end: start,
            control_end: start,
        };
    }
    let rhs_cost = cm.rhs_per_change as u64;
    push_ev(
        &mut heap,
        start + rhs_cost,
        Ev::RootPush(cyc.roots[0]),
        &mut seq,
    );
    let mut next_root = 1usize;

    // Helper: push task `idx` to queue `q` starting the protocol at `t`;
    // returns completion time.
    // Push protocol: start at the pusher's rotating cursor, but prefer a
    // queue whose lock is currently free (a spinning process watches the
    // lock word and moves on — §3.2's test-and-test-and-set keeps the
    // observation cheap). With one queue there is no escape and the
    // contention of Table 4-5/4-7 appears in full.
    macro_rules! do_push {
        ($idx:expr, $cursor:expr, $t:expr) => {{
            let start = *$cursor;
            *$cursor = $cursor.wrapping_add(1);
            let mut q = start % nq;
            for j in 0..nq {
                let cand = (start + j) % nq;
                if q_free[cand] <= $t {
                    q = cand;
                    break;
                }
            }
            let a = ($t).max(q_free[q]);
            res.queue_spins += (a - $t) / SPIN_UNIT;
            res.queue_acqs += 1;
            q_free[q] = a + push_hold;
            let done = a + push_hold;
            // The token becomes visible when the push completes.
            push_ev(&mut heap, done, Ev::Avail($idx, q as u32), &mut seq);
            done
        }};
    }

    while let Some(Reverse((t, _s, ev))) = heap.pop() {
        match ev {
            Ev::RootPush(idx) => {
                let done = do_push!(idx, &mut control_cursor, t);
                control_end = done;
                if next_root < cyc.roots.len() {
                    let r = cyc.roots[next_root];
                    next_root += 1;
                    push_ev(&mut heap, done + rhs_cost, Ev::RootPush(r), &mut seq);
                }
            }
            Ev::Avail(idx, q) => {
                q_items[q as usize].push_back(idx);
                if let Some(p) = idle.pop() {
                    push_ev(&mut heap, t, Ev::ProcTry(p), &mut seq);
                }
            }
            Ev::ProcTry(p) => {
                let home = p as usize % nq;
                // Prefer a non-empty queue whose lock is free; fall back to
                // the first non-empty one (and wait for its lock).
                let mut found = None;
                let mut fallback = None;
                for i in 0..nq {
                    let q = (home + i) % nq;
                    if q_items[q].is_empty() {
                        continue;
                    }
                    if fallback.is_none() {
                        fallback = Some(q);
                    }
                    if q_free[q] <= t {
                        found = Some(q);
                        break;
                    }
                }
                let Some(q) = found.or(fallback) else {
                    idle.push(p);
                    continue;
                };
                // Pop protocol.
                let a = t.max(q_free[q]);
                res.queue_spins += (a - t) / SPIN_UNIT;
                res.queue_acqs += 1;
                q_free[q] = a + pop_hold;
                let idx = q_items[q].pop_front().expect("checked non-empty");
                let s = a + pop_hold;
                let task = &cyc.tasks[idx as usize];
                // Small deterministic jitter (0..7 instructions, hashed from
                // the task id): real machines never run in perfect lockstep,
                // and without it integer-time bursts re-collide forever.
                let s = s + (task.id as u64).wrapping_mul(0x9e3779b9) % 8;

                // Process the task.
                let mut requeued = false;
                let e = match task.kind {
                    TaskKind::Root => s + cm.task_cost(task),
                    TaskKind::Terminal => {
                        let a2 = s.max(cs_free);
                        // Conflict-set lock waits count as queue-side
                        // contention is wrong; track nothing but time.
                        cs_free = a2 + cm.terminal_cost as u64;
                        a2 + cm.terminal_cost as u64
                    }
                    TaskKind::Left { .. } | TaskKind::Right { .. } => {
                        let left = matches!(task.kind, TaskKind::Left { .. });
                        let line = task.line;
                        debug_assert_ne!(line, NO_LINE);
                        let mut_d = (cm.join_base as u64) / 2
                            + cm.per_same_examined as u64 * task.same_examined as u64;
                        let scan_d = (cm.join_base as u64) / 2
                            + cm.per_examined as u64 * task.examined as u64;
                        match cfg.lock_scheme {
                            LockScheme::Simple => {
                                let f = simple_free.entry(line).or_insert(0);
                                let a2 = s.max(*f);
                                record_hash(res, left, (a2 - s) / SPIN_UNIT);
                                *f = a2 + mut_d + scan_d;
                                a2 + mut_d + scan_d
                            }
                            LockScheme::Mrsw => {
                                let st = mrsw.entry(line).or_default();
                                let e0 = s + cm.mrsw_overhead as u64;
                                let a2 = e0.max(st.entry_free_at);
                                record_hash(res, left, (a2 - e0) / SPIN_UNIT);
                                st.entry_free_at = a2 + ENTRY_HOLD;
                                let opp_busy = if left {
                                    st.right_busy_until
                                } else {
                                    st.left_busy_until
                                };
                                if a2 < opp_busy {
                                    // Opposite side active: requeue (§3.2).
                                    res.requeues += 1;
                                    requeued = true;
                                    let rt = a2 + ENTRY_HOLD;
                                    // The processor re-pushes the token.
                                    let q2 = proc_cursor[p as usize] % nq;
                                    proc_cursor[p as usize] =
                                        proc_cursor[p as usize].wrapping_add(1);
                                    let a3 = rt.max(q_free[q2]);
                                    res.queue_spins += (a3 - rt) / SPIN_UNIT;
                                    res.queue_acqs += 1;
                                    q_free[q2] = a3 + push_hold;
                                    push_ev(
                                        &mut heap,
                                        a3 + push_hold,
                                        Ev::Avail(idx, q2 as u32),
                                        &mut seq,
                                    );
                                    a3 + push_hold
                                } else {
                                    // Modification serialized; scan overlaps
                                    // with same-side users.
                                    let m = (a2 + ENTRY_HOLD).max(st.mod_free_at);
                                    record_hash(res, left, (m - a2 - ENTRY_HOLD) / SPIN_UNIT);
                                    st.mod_free_at = m + mut_d;
                                    let e = m + mut_d + scan_d;
                                    if left {
                                        st.left_busy_until = st.left_busy_until.max(e);
                                    } else {
                                        st.right_busy_until = st.right_busy_until.max(e);
                                    }
                                    e
                                }
                            }
                        }
                    }
                };

                res.busy += e - t;
                if requeued {
                    if remaining == 0 && next_root >= cyc.roots.len() {
                        break;
                    }
                    push_ev(&mut heap, e, Ev::ProcTry(p), &mut seq);
                } else {
                    // Completion is a separate event so the child pushes book
                    // the queue locks at the *actual* completion time — a
                    // task processed at pop time must not reserve resources
                    // in the future ahead of operations that really happen
                    // earlier.
                    push_ev(&mut heap, e, Ev::TaskDone(p, idx), &mut seq);
                }
            }
            Ev::TaskDone(p, idx) => {
                let mut e = t;
                for &c in &cyc.children[idx as usize] {
                    e = do_push!(c, &mut proc_cursor[p as usize], e);
                }
                remaining -= 1;
                if e > match_end {
                    match_end = e;
                }
                res.busy += e - t;
                if remaining == 0 && next_root >= cyc.roots.len() {
                    // Match phase complete; leftover events cannot create
                    // new work.
                    break;
                }
                push_ev(&mut heap, e, Ev::ProcTry(p), &mut seq);
            }
        }
    }
    debug_assert_eq!(remaining, 0, "all tasks must complete");
    CycleEnd {
        match_end: match_end.max(control_end),
        control_end,
    }
}

fn record_hash(res: &mut SimResult, left: bool, spins: u64) {
    if left {
        res.hash_spins_left += spins;
        res.hash_acqs_left += 1;
    } else {
        res.hash_spins_right += spins;
        res.hash_acqs_right += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm::trace::{CycleTrace, TaskRecord};

    fn root(id: u32, emitted: u32) -> TaskRecord {
        TaskRecord {
            id,
            parent: None,
            kind: TaskKind::Root,
            line: NO_LINE,
            examined: 0,
            same_examined: 0,
            emitted,
            alpha_tests: 4,
        }
    }

    fn join(id: u32, parent: u32, line: u32, examined: u32, left: bool) -> TaskRecord {
        TaskRecord {
            id,
            parent: Some(parent),
            kind: if left {
                TaskKind::Left { negated: false }
            } else {
                TaskKind::Right { negated: false }
            },
            line,
            examined,
            same_examined: 0,
            emitted: 0,
            alpha_tests: 0,
        }
    }

    /// A wide, independent fan-out: R roots each spawning `fan` join tasks.
    /// Realistic traces carry hundreds of activations per WME change, so the
    /// fan keeps the match processes busy relative to the control process's
    /// RHS-evaluation rate.
    fn fan_trace(roots: u32, fan: u32, lines_distinct: bool) -> RunTrace {
        let mut tasks = Vec::new();
        let mut root_ids = Vec::new();
        let mut id = 0;
        for r in 0..roots {
            let rid = id;
            id += 1;
            root_ids.push(rid);
            tasks.push(root(rid, fan));
            for f in 0..fan {
                let line = if lines_distinct { r * fan + f } else { 0 };
                tasks.push(join(id, rid, line, 30, (r + f) % 2 == 0));
                id += 1;
            }
        }
        RunTrace {
            cycles: vec![CycleTrace {
                roots: root_ids,
                tasks,
            }],
            n_lines: (roots * fan).max(1),
        }
    }

    fn wide_trace(roots: u32, lines_distinct: bool) -> RunTrace {
        fan_trace(roots, 1, lines_distinct)
    }

    #[test]
    fn deterministic() {
        let t = wide_trace(50, true);
        let cfg = SimConfig::new(4, 2, LockScheme::Simple);
        let a = simulate(&t, &cfg);
        let b = simulate(&t, &cfg);
        assert_eq!(a.match_time, b.match_time);
        assert_eq!(a.queue_spins, b.queue_spins);
    }

    #[test]
    fn more_processors_not_slower() {
        let t = fan_trace(40, 8, true);
        let t1 = simulate(&t, &SimConfig::new(1, 1, LockScheme::Simple)).match_time;
        let t4 = simulate(&t, &SimConfig::new(4, 4, LockScheme::Simple)).match_time;
        let t8 = simulate(&t, &SimConfig::new(8, 8, LockScheme::Simple)).match_time;
        assert!(t4 < t1, "4 procs faster than 1 ({t4} vs {t1})");
        assert!(t8 <= t4 + t4 / 10, "8 procs not slower than 4");
    }

    #[test]
    fn speedup_bounded_by_processors() {
        let t = fan_trace(25, 10, true);
        let t1 = simulate(&t, &SimConfig::new(1, 4, LockScheme::Simple)).match_time as f64;
        let t4 = simulate(&t, &SimConfig::new(4, 4, LockScheme::Simple)).match_time as f64;
        let s = t1 / t4;
        assert!(s <= 4.3, "speedup {s} exceeds processor count");
        assert!(
            s >= 1.5,
            "speedup {s} suspiciously low for independent tasks"
        );
    }

    #[test]
    fn single_queue_contention_grows_with_processors() {
        let t = fan_trace(50, 12, true);
        let c2 = simulate(&t, &SimConfig::new(2, 1, LockScheme::Simple)).avg_queue_spins();
        let c12 = simulate(&t, &SimConfig::new(12, 1, LockScheme::Simple)).avg_queue_spins();
        assert!(
            c12 > c2,
            "queue contention should grow with processors (2: {c2}, 12: {c12})"
        );
    }

    #[test]
    fn multiple_queues_reduce_contention() {
        let t = fan_trace(50, 12, true);
        let one = simulate(&t, &SimConfig::new(12, 1, LockScheme::Simple)).avg_queue_spins();
        let eight = simulate(&t, &SimConfig::new(12, 8, LockScheme::Simple)).avg_queue_spins();
        assert!(
            eight < one,
            "8 queues must reduce contention (1q: {one}, 8q: {eight})"
        );
    }

    #[test]
    fn shared_line_serializes_simple_locks() {
        // All joins on one line: hash contention appears and speedup drops.
        let shared = fan_trace(20, 8, false);
        let spread = fan_trace(20, 8, true);
        let cfg = SimConfig::new(8, 8, LockScheme::Simple);
        let rs = simulate(&shared, &cfg);
        let rp = simulate(&spread, &cfg);
        assert!(rs.match_time > rp.match_time, "shared line is slower");
        let shared_contention = rs.avg_hash_left() + rs.avg_hash_right();
        let spread_contention = rp.avg_hash_left() + rp.avg_hash_right();
        assert!(shared_contention > spread_contention);
    }

    #[test]
    fn mrsw_requeues_only_under_mrsw() {
        let shared = fan_trace(20, 8, false); // alternating sides on one line
        let simple = simulate(&shared, &SimConfig::new(8, 8, LockScheme::Simple));
        let mrsw = simulate(&shared, &SimConfig::new(8, 8, LockScheme::Mrsw));
        assert_eq!(simple.requeues, 0);
        assert!(mrsw.requeues > 0, "opposite-side arrivals must requeue");
    }

    #[test]
    fn mrsw_overhead_slows_uniprocessor() {
        // Table 4-8's uniprocessor times are *higher* than Table 4-6's: the
        // complex locks cost overhead even with no contention.
        let t = wide_trace(100, true);
        let simple = simulate(&t, &SimConfig::new(1, 1, LockScheme::Simple)).match_time;
        let mrsw = simulate(&t, &SimConfig::new(1, 1, LockScheme::Mrsw)).match_time;
        assert!(
            mrsw > simple,
            "MRSW must cost overhead ({mrsw} vs {simple})"
        );
    }

    #[test]
    fn dependent_chain_defeats_parallelism() {
        // A linear chain of tasks: speedup ~1 regardless of processors.
        let mut tasks = vec![root(0, 1)];
        for i in 1..100u32 {
            tasks.push(join(i, i - 1, i, 10, true));
        }
        let t = RunTrace {
            cycles: vec![CycleTrace {
                roots: vec![0],
                tasks,
            }],
            n_lines: 128,
        };
        let t1 = simulate(&t, &SimConfig::new(1, 1, LockScheme::Simple)).match_time as f64;
        let t8 = simulate(&t, &SimConfig::new(8, 8, LockScheme::Simple)).match_time as f64;
        assert!(t1 / t8 < 1.3, "chains cannot speed up ({})", t1 / t8);
    }

    #[test]
    fn mrsw_alternating_sides_terminates() {
        // Heavy left/right interleaving on one line: requeues must not
        // livelock the simulation and every task still completes.
        let mut tasks = vec![root(0, 64)];
        for i in 1..=64u32 {
            tasks.push(join(i, 0, 0, 10, i % 2 == 0));
        }
        let t = RunTrace {
            cycles: vec![CycleTrace {
                roots: vec![0],
                tasks,
            }],
            n_lines: 4,
        };
        let r = simulate(&t, &SimConfig::new(8, 2, LockScheme::Mrsw));
        assert_eq!(r.tasks, 65);
        assert!(r.requeues > 0, "alternating sides must requeue");
        assert!(r.requeues < 10_000, "requeues bounded (no livelock)");
    }

    #[test]
    fn match_time_monotone_in_work() {
        let small = fan_trace(10, 4, true);
        let big = fan_trace(40, 4, true);
        let cfg = SimConfig::new(4, 2, LockScheme::Simple);
        assert!(simulate(&big, &cfg).match_time > simulate(&small, &cfg).match_time);
    }

    #[test]
    fn empty_trace() {
        let t = RunTrace::default();
        let r = simulate(&t, &SimConfig::new(4, 2, LockScheme::Simple));
        assert_eq!(r.match_time, 0);
        assert_eq!(r.tasks, 0);
    }

    #[test]
    fn work_conservation() {
        let t = wide_trace(50, true);
        let r = simulate(&t, &SimConfig::new(3, 2, LockScheme::Simple));
        assert!(r.busy > 0);
        assert!(r.tasks == 100);
        // Busy time cannot exceed processors × makespan (match window only,
        // so allow the control-push window too).
        assert!(r.busy <= 4 * r.total_time);
    }
}
