//! The parallel match engine: k match processes cooperating through shared
//! task queues and the global token hash tables (§3.1–3.2).
//! With `k = 0` no thread is spawned: the control thread runs each root's
//! cascade itself, through the same `process_task` (the trace's driver).

use crate::line::{LineLock, LockScheme, MrswLine, ParLine, Side};
use crate::queue::{ParTask, Scheduler};
use crate::stats::{ContentionReport, Slot, COUNTERS};
use crate::sync::{SpinGuard, SpinLock};
use crate::trace::{CycleTrace, RunTrace, TaskKind, TaskRecord, NO_LINE};
use crate::walk::{self, Effects, Line, Scratch, Walked};
use ops5::{
    ChangeBatch, CsChange, Instantiation, MatchStats, Matcher, QuiesceReport, Sign,
    StatsDeltaTracker,
};
use rete::fxhash::FxHashMap;
use rete::network::{JoinNode, Network};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Parallel matcher configuration — the axes varied in Tables 4-5..4-9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsmConfig {
    /// Number of match processes (the "k" in "1+k"). 0 spawns none: the
    /// control thread runs the match itself, each root's cascade inside
    /// `submit`.
    pub match_processes: usize,
    /// Number of task queues (1 for Table 4-5, up to 8 for Table 4-6).
    pub queues: usize,
    /// Hash-line lock scheme (simple vs MRSW, Table 4-8).
    pub lock_scheme: LockScheme,
    /// Hash-table lines (bucket pairs); rounded up to a power of two.
    pub buckets: usize,
}

impl Default for PsmConfig {
    fn default() -> Self {
        PsmConfig {
            match_processes: 2,
            queues: 2,
            lock_scheme: LockScheme::Simple,
            buckets: 1024,
        }
    }
}

/// Sleep/wake coordination for idle match processes. Workers that find the
/// queues empty back off from spinning to yielding to parking on the
/// condvar; every push notifies if anyone is parked, so wake latency stays
/// in the microseconds while idle CPU burn drops to ~zero.
#[derive(Default)]
struct Parker {
    /// Workers registered as (about to be) parked. Incremented under
    /// `lock`, and checked by pushers with a SeqCst load *after* their task
    /// is visible in a queue. A worker registers and then re-polls the
    /// queues while still holding the mutex, so for any push exactly one of
    /// two things holds: the pusher's sleeper-load saw the registration
    /// (and its notify serializes after our wait via the mutex), or the
    /// registration wasn't visible yet — in which case the push itself
    /// happened before our under-mutex re-poll (every queue access takes
    /// that queue's spin lock) and the re-poll finds the task. Either way
    /// no wakeup is lost, so the wait needs no timeout crutch.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Profiling instruments shared by the match processes, installed once by
/// [`Matcher::enable_obs`]. Absent (one `OnceLock` load per check) on the
/// disabled path.
struct MatchObs {
    /// Per-join-node activation / scanned-token profile.
    nodes: Arc<obs::NodeProfile>,
    /// Wall time spent inside `process_task`, per task.
    task_latency_ns: Arc<obs::Histogram>,
    /// Wall time a worker sat idle between finding the queues empty and the
    /// next successful pop.
    queue_wait_ns: Arc<obs::Histogram>,
}

struct Shared {
    net: Arc<Network>,
    sched: Scheduler,
    lines: Box<[LineLock]>,
    mask: u64,
    /// Net conflict-set deltas for the current match phase: instantiation →
    /// net count. Net counting makes the output independent of task
    /// interleaving.
    cs_acc: SpinLock<FxHashMap<Instantiation, i32>>,
    /// Global per-join memory sizes across all hash lines, indexed by
    /// [`Side`]: an activation whose opposite side reads 0 is booked as a
    /// null activation. Updated with relaxed atomics while the owning line
    /// is held, driven by the line outcome (count an entry only on
    /// `PlusOutcome::Inserted`, uncount only on `MinusOutcome::Removed`),
    /// so parked and annihilated conjugates never perturb the counts.
    counts: [Box<[AtomicU32]>; 2],
    parker: Parker,
    /// OS thread ids of the match processes, self-reported at startup
    /// (std exposes no portable tid). Used by per-worker CPU accounting.
    worker_tids: SpinLock<Vec<u64>>,
    stop: AtomicBool,
    /// One slot per match process, booked while it runs a task and before
    /// the task leaves TaskCount, so the control thread reads every task's
    /// counts once it sees quiescence.
    slots: Box<[SpinLock<Slot>]>,
    obs: OnceLock<MatchObs>,
}

impl Shared {
    /// Push a new task and wake any parked worker, booking both into the
    /// pusher's own `slot`. `cursor` is the pusher's round-robin queue
    /// cursor.
    fn push(&self, task: ParTask, cursor: &mut usize, slot: &mut Slot) {
        slot.locks.queue(self.sched.push(task, cursor));
        self.wake(slot);
    }

    #[inline]
    fn wake(&self, slot: &mut Slot) {
        if self.parker.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the mutex orders this notify after any in-flight
            // register→recheck sequence, so the wakeup cannot be lost.
            let _g = self.parker.lock.lock().expect("parker mutex");
            slot.wakes += 1;
            self.parker.cv.notify_all();
        }
    }

    /// Takes the line for an activation arriving on `side`, booking the
    /// acquisition into `locks`. `None` when MRSW finds the line in use by
    /// the other side: the task goes back on a queue, still counted in
    /// TaskCount.
    fn take(&self, key: u64, side: Side, locks: &mut ContentionReport) -> Option<Taken<'_>> {
        let left = side == Side::Left;
        match &self.lines[(key & self.mask) as usize] {
            LineLock::Simple(line) => {
                let g = line.lock();
                locks.line(left, g.spins);
                Some(Taken::Simple(g))
            }
            LineLock::Mrsw(line) => {
                let (entered, spins) = line.try_enter(side);
                locks.line(left, spins);
                if !entered {
                    locks.requeues += 1;
                    return None;
                }
                Some(Taken::Mrsw(line))
            }
        }
    }
}

/// A line held for one activation: the simple scheme's exclusive guard, or
/// an MRSW entry on the activation's side (its list mutations under the
/// write lock, its opposite-memory scans under the read lock — the line
/// flag keeps the other side out meanwhile). Released on drop.
enum Taken<'a> {
    Simple(SpinGuard<'a, ParLine>),
    Mrsw(&'a MrswLine),
}

impl Line for Taken<'_> {
    fn write<R>(&mut self, f: impl FnOnce(&mut ParLine) -> R) -> R {
        match self {
            Taken::Simple(g) => f(g),
            Taken::Mrsw(l) => f(&mut l.write()),
        }
    }

    fn read<R>(&mut self, f: impl FnOnce(&ParLine) -> R) -> R {
        match self {
            Taken::Simple(g) => f(g),
            Taken::Mrsw(l) => f(&l.read()),
        }
    }
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        if let Taken::Mrsw(l) = self {
            l.exit();
        }
    }
}

/// psm's [`Effects`]: the running process's own counters, the shared
/// population counts, and the push of each successor — onto the shared
/// queues (a match process) or the inline FIFO (the control thread).
struct Fx<'a, P> {
    shared: &'a Shared,
    slot: &'a mut Slot,
    push: P,
}

impl<P: FnMut(ParTask, &mut Slot)> Effects for Fx<'_, P> {
    fn stats(&mut self) -> &mut MatchStats {
        &mut self.slot.stats
    }

    fn empty(&self, j: &JoinNode, side: Side) -> bool {
        self.shared.counts[side as usize][j.id as usize].load(Ordering::Relaxed) == 0
    }

    fn count(&mut self, j: &JoinNode, side: Side, delta: i32) {
        let c = &self.shared.counts[side as usize][j.id as usize];
        if delta >= 0 {
            c.fetch_add(delta as u32, Ordering::Relaxed);
        } else {
            let prev = c.fetch_sub((-delta) as u32, Ordering::Relaxed);
            debug_assert!(prev >= (-delta) as u32, "join memory count underflow");
        }
    }

    fn push(&mut self, task: ParTask) {
        (self.push)(task, self.slot)
    }
}

/// The control thread's driver (`match_processes: 0`). Each root runs with
/// its whole cascade inside `submit`, before the next root is pushed; task
/// ids are given at pop, and every entry carries the id of the task that
/// pushed it (`None` for a root).
struct Inline {
    fifo: VecDeque<(Option<u32>, ParTask)>,
    scratch: Scratch,
    next_id: u32,
    cycle: CycleTrace,
    /// Where each quiescence's [`CycleTrace`] goes, when recording.
    sink: Option<Arc<Mutex<RunTrace>>>,
}

impl Inline {
    /// Runs `root` and every task it causes, in FIFO order, recording each.
    fn run(&mut self, shared: &Shared, slot: &mut Slot, root: ParTask) {
        self.fifo.push_back((None, root));
        while let Some((parent, task)) = self.fifo.pop_front() {
            let id = self.next_id;
            self.next_id += 1;
            let fifo = &mut self.fifo;
            let push = |t, _: &mut Slot| fifo.push_back((Some(id), t));
            let Ok(rec) = process_task(shared, task, slot, &mut self.scratch, push) else {
                unreachable!("MRSW refused the only process on its line")
            };
            if parent.is_none() {
                self.cycle.roots.push(id);
            }
            self.cycle.tasks.push(TaskRecord { id, parent, ..rec });
        }
    }
}

/// PSM-E: the parallel Rete matcher.
///
/// Construct with [`ParMatcher::new`], drive through the [`Matcher`] trait.
/// The control process (the caller) submits WME changes, which become root
/// tasks; the match processes drain the task queues until TaskCount hits
/// zero at `quiesce`. With no match process the control thread runs each
/// root's tasks itself ([`crate::trace::TraceMatcher`] records them).
pub struct ParMatcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The driver of `match_processes: 0`.
    inline: Option<Inline>,
    /// The control process's round-robin queue cursor.
    cursor: usize,
    /// What the control process books: WME changes, conjugate pairs a
    /// batch annihilated before they became tasks, and its root pushes —
    /// or, on the inline driver, every task it runs.
    control: Slot,
    cfg: PsmConfig,
    delta: StatsDeltaTracker,
    cobs: Option<ContentionObs>,
}

/// The registry counters of [`COUNTERS`]. The control thread adds what the
/// slots booked since the previous quiescence at every `quiesce()`, the
/// point where every task's counts are in.
struct ContentionObs {
    counters: [Arc<obs::Counter>; COUNTERS.len()],
    /// The slot sums already added.
    last: [u64; COUNTERS.len()],
}

impl ContentionObs {
    fn absorb(&mut self, now: [u64; COUNTERS.len()]) {
        for ((counter, last), now) in self.counters.iter().zip(&mut self.last).zip(now) {
            counter.add(now - *last);
            *last = now;
        }
    }
}

impl ParMatcher {
    pub fn new(net: Arc<Network>, cfg: PsmConfig) -> ParMatcher {
        ParMatcher::build(net, cfg, None)
    }

    /// A matcher on `cfg`; with `match_processes: 0`, one whose inline
    /// driver hands each quiescence's tasks to `sink`, if given.
    pub(crate) fn build(
        net: Arc<Network>,
        cfg: PsmConfig,
        sink: Option<Arc<Mutex<RunTrace>>>,
    ) -> ParMatcher {
        let n_lines = cfg.buckets.next_power_of_two().max(2);
        let lines = (0..n_lines)
            .map(|_| LineLock::new(cfg.lock_scheme))
            .collect();
        let counts = || (0..net.n_joins()).map(|_| AtomicU32::new(0)).collect();
        let counts = [counts(), counts()];
        if let Some(sink) = &sink {
            sink.lock().unwrap().n_lines = n_lines as u32;
        }
        let processes = cfg.match_processes;
        let shared = Arc::new(Shared {
            net,
            sched: Scheduler::new(cfg.queues),
            lines,
            mask: (n_lines - 1) as u64,
            cs_acc: SpinLock::new(FxHashMap::default()),
            counts,
            parker: Parker::default(),
            worker_tids: SpinLock::new(Vec::new()),
            stop: AtomicBool::new(false),
            slots: (0..processes)
                .map(|_| SpinLock::new(Slot::default()))
                .collect(),
            obs: OnceLock::new(),
        });
        let workers = (0..processes)
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("psm-match-{i}"))
                    .spawn(move || worker_loop(sh, i))
                    .expect("spawn match process")
            })
            .collect();
        ParMatcher {
            shared,
            workers,
            inline: (processes == 0).then(|| Inline {
                fifo: VecDeque::new(),
                scratch: Scratch::default(),
                next_id: 0,
                cycle: CycleTrace::default(),
                sink,
            }),
            cursor: 0,
            control: Slot::default(),
            cfg,
            delta: StatsDeltaTracker::default(),
            cobs: None,
        }
    }

    /// Boxed constructor for engine factories.
    pub fn boxed(net: Arc<Network>, cfg: PsmConfig) -> Box<dyn Matcher> {
        Box::new(ParMatcher::new(net, cfg))
    }

    pub fn config(&self) -> PsmConfig {
        self.cfg
    }

    /// Lock contention since the last `reset_stats`: every process's
    /// booking, summed like [`Matcher::stats`] and complete at quiescence.
    pub fn contention(&self) -> ContentionReport {
        self.sum().locks
    }

    /// Every process's slot, summed.
    fn sum(&self) -> Slot {
        let mut sum = self.control;
        for slot in &self.shared.slots {
            sum += *slot.lock();
        }
        sum
    }

    /// Total entries parked on extra-deletes lists (must be 0 when quiescent).
    pub fn parked_tokens(&self) -> usize {
        parked_tokens(&self.shared)
    }

    /// A read-only probe onto the matcher's shared state. Lets a test
    /// harness keep checking quiescence invariants after the matcher itself
    /// has been boxed away inside an engine (capture the probe in an
    /// `EngineBuilder::custom_matcher` closure).
    pub fn probe(&self) -> PsmProbe {
        PsmProbe {
            shared: self.shared.clone(),
        }
    }

    /// Sum of CPU jiffies (utime + stime from `/proc`) consumed by the
    /// match-process threads so far. Returns `None` off Linux or if the
    /// procfs read fails. Lets harnesses verify idle workers park rather
    /// than burn a core each.
    pub fn worker_cpu_ticks(&self) -> Option<u64> {
        let tids: Vec<u64> = self.shared.worker_tids.lock().clone();
        if tids.is_empty() {
            return None;
        }
        let mut total = 0u64;
        for tid in tids {
            let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
            // Fields after the parenthesised comm (which may contain spaces).
            let (_, rest) = stat.rsplit_once(") ")?;
            let mut fields = rest.split_ascii_whitespace();
            // utime and stime are fields 14 and 15 overall; after ") " the
            // state field is index 0, so they land at indices 11 and 12.
            let utime: u64 = fields.nth(11)?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            total += utime + stime;
        }
        Some(total)
    }
}

fn parked_tokens(shared: &Shared) -> usize {
    shared.lines.iter().map(|l| l.peek_entries().1).sum()
}

/// Read-only view of a [`ParMatcher`]'s shared state for test harnesses.
/// Holding one does not keep the worker threads alive — it only pins the
/// shared allocation.
pub struct PsmProbe {
    shared: Arc<Shared>,
}

impl PsmProbe {
    /// Entries parked on extra-deletes lists (0 at any quiescence point).
    pub fn parked_tokens(&self) -> usize {
        parked_tokens(&self.shared)
    }

    /// Whether TaskCount is zero (no match tasks outstanding).
    pub fn quiescent(&self) -> bool {
        self.shared.sched.quiescent()
    }

    /// The raw TaskCount value (outstanding match tasks). Never negative;
    /// the stress suite asserts this across scheduler/lock sweeps.
    pub fn task_count(&self) -> i64 {
        self.shared.sched.task_count().value()
    }
}

impl Drop for ParMatcher {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The parker's wait is untimed: this notify is the only thing that
        // wakes a parked worker to see `stop`.
        {
            let _g = self.shared.parker.lock.lock().expect("parker mutex");
            self.shared.parker.cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Matcher for ParMatcher {
    fn submit(&mut self, batch: &ChangeBatch) {
        // Conjugate pairs the batch annihilated never became tasks at all —
        // the cheapest possible handling (§3.2).
        self.control.stats.conjugate_pairs += batch.annihilated();
        // One root task per change, pushed as the change is computed (§3.1):
        // the match processes start on it while the control process is
        // still evaluating the rest of the firing.
        for change in batch.iter() {
            self.control.stats.wme_changes += 1;
            let root = ParTask::Root {
                sign: change.sign,
                wme: change.wme.clone(),
            };
            match &mut self.inline {
                Some(inline) => inline.run(&self.shared, &mut self.control, root),
                None => self.shared.push(root, &mut self.cursor, &mut self.control),
            }
        }
    }

    fn quiesce(&mut self) -> QuiesceReport {
        // Wait for TaskCount to reach zero (§3.2). The host may have fewer
        // cores than processes, so be polite while spinning.
        let mut spins = 0u64;
        while !self.shared.sched.quiescent() {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut acc = self.shared.cs_acc.lock();
        let mut out = Vec::with_capacity(acc.len());
        for (inst, net) in acc.drain() {
            match net.signum() {
                1 => out.push(CsChange::Insert(inst)),
                -1 => out.push(CsChange::Remove(inst)),
                _ => {}
            }
        }
        drop(acc);
        if let Some(inline) = &mut self.inline {
            debug_assert!(inline.fifo.is_empty());
            let cycle = std::mem::take(&mut inline.cycle);
            if let Some(sink) = &inline.sink {
                sink.lock().unwrap().cycles.push(cycle);
            }
        }
        // Every task's counts are in the slots now.
        let sum = self.sum();
        if let Some(cobs) = &mut self.cobs {
            cobs.absorb(sum.counts());
        }
        QuiesceReport {
            cs_changes: out,
            stats_delta: self.delta.take(sum.stats),
            phase: None,
        }
    }

    fn stats(&self) -> MatchStats {
        self.sum().stats
    }

    fn reset_stats(&mut self) {
        self.control = Slot::default();
        for slot in &self.shared.slots {
            *slot.lock() = Slot::default();
        }
        self.delta.reset();
        if let Some(cobs) = &mut self.cobs {
            cobs.last = Default::default();
        }
    }

    fn name(&self) -> &'static str {
        match &self.inline {
            Some(Inline { sink: Some(_), .. }) => "trace",
            _ => "psm",
        }
    }

    fn enable_obs(&mut self, registry: &Arc<obs::Registry>) {
        self.shared.obs.get_or_init(|| MatchObs {
            nodes: Arc::new(obs::NodeProfile::new(self.shared.net.n_joins())),
            task_latency_ns: registry.histogram("psm_task_latency_ns", vec![]),
            queue_wait_ns: registry.histogram("psm_queue_wait_ns", vec![]),
        });
        if self.cobs.is_none() {
            let counters = COUNTERS.map(|(name, side)| {
                let side = (!side.is_empty()).then(|| ("side".to_string(), side.to_string()));
                registry.counter(name, side.into_iter().collect())
            });
            self.cobs = Some(ContentionObs {
                counters,
                // Counts booked before profiling was enabled belong to the
                // unprofiled epoch.
                last: self.sum().counts(),
            });
        }
    }

    fn node_profile(&self) -> Option<Arc<obs::NodeProfile>> {
        self.shared.obs.get().map(|o| o.nodes.clone())
    }
}

/// Every Nth task gets timed; the rest skip both clock reads. Match tasks
/// run in single-digit microseconds, so per-task `Instant::now` pairs cost
/// tens of percent of wall — sampling keeps the latency histogram's shape
/// while bounding the enabled-path overhead.
const TASK_SAMPLE_PERIOD: u32 = 16;

/// Start-of-task profiling: fold any pending idle span into the queue-wait
/// histogram and timestamp every Nth task. One `OnceLock` load when
/// disabled.
#[inline]
fn obs_task_start(
    shared: &Shared,
    idle_since: &mut Option<Instant>,
    task_seq: &mut u32,
) -> Option<Instant> {
    let o = shared.obs.get()?;
    if let Some(t0) = idle_since.take() {
        o.queue_wait_ns.record(t0.elapsed().as_nanos() as u64);
    }
    *task_seq = task_seq.wrapping_add(1);
    if (*task_seq).is_multiple_of(TASK_SAMPLE_PERIOD) {
        Some(Instant::now())
    } else {
        None
    }
}

#[inline]
fn obs_task_end(shared: &Shared, started: Option<Instant>) {
    if let Some(t0) = started {
        if let Some(o) = shared.obs.get() {
            o.task_latency_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// This thread's OS tid, via the `/proc/thread-self` symlink (Linux only).
fn os_tid() -> Option<u64> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let home = index % shared.sched.n_queues();
    let mut cursor = index;
    if let Some(tid) = os_tid() {
        shared.worker_tids.lock().push(tid);
    }
    let mut scratch = Scratch::default();
    // Empty-poll backoff: spin briefly (work usually arrives within a few
    // activations' latency), then yield, then park on the condvar. A parked
    // worker costs ~nothing; every queue push wakes it promptly.
    let mut idle = 0u32;
    // When profiling is on, the instant this worker first found the queues
    // empty — consumed into the queue-wait histogram by the next pop.
    let mut idle_since: Option<Instant> = None;
    let mut task_seq = 0u32;
    let mut run = |task: ParTask, spins: u64, idle_since: &mut Option<Instant>| {
        let t0 = obs_task_start(&shared, idle_since, &mut task_seq);
        // The pop, the task's counts and the locks it took are in the slot
        // before the task leaves TaskCount, whose decrement `quiesce`
        // acquires. A refused task goes back on a queue, still counted, and
        // the slot stays held until that push is booked too.
        let mut slot = shared.slots[index].lock();
        slot.locks.queue(spins);
        let push = |t, slot: &mut Slot| shared.push(t, &mut cursor, slot);
        match process_task(&shared, task, &mut slot, &mut scratch, push) {
            Ok(_) => {
                drop(slot);
                shared.sched.task_done();
            }
            Err(task) => {
                let spins = shared.sched.push_requeue(task, &mut cursor);
                slot.locks.queue(spins);
                shared.wake(&mut slot);
            }
        }
        obs_task_end(&shared, t0);
    };
    loop {
        if let Some((task, spins)) = shared.sched.pop(home) {
            idle = 0;
            run(task, spins, &mut idle_since);
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        idle += 1;
        if idle == 65 {
            shared.slots[index].lock().spin_to_yield += 1;
        }
        if idle_since.is_none() && shared.obs.get().is_some() {
            idle_since = Some(Instant::now());
        }
        if idle <= 64 {
            std::hint::spin_loop();
        } else if idle <= 256 {
            std::thread::yield_now();
        } else {
            let p = &shared.parker;
            // Register and re-check *under the parker mutex*: a racing push
            // either left its task visible to this pop (queue accesses are
            // lock mediated) or its sleeper-load saw our registration and
            // its notify serializes after our wait via the mutex. No third
            // interleaving exists, so a plain untimed wait is safe.
            let mut guard = p.lock.lock().expect("parker mutex");
            p.sleepers.fetch_add(1, Ordering::SeqCst);
            let recheck = shared.sched.pop(home);
            let park = recheck.is_none() && !shared.stop.load(Ordering::Acquire);
            if park {
                guard = p.cv.wait(guard).expect("parker condvar");
            }
            p.sleepers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            if park {
                shared.slots[index].lock().parks += 1;
            }
            if let Some((task, spins)) = recheck {
                idle = 0;
                run(task, spins, &mut idle_since);
            }
        }
    }
}

/// Runs one task on either driver, booking into `slot` and handing each
/// successor to `push` with it. Returns what the trace records of the task
/// (its id and parent are the driver's), or the task itself when MRSW found
/// its line in use by the other side.
fn process_task(
    shared: &Shared,
    task: ParTask,
    slot: &mut Slot,
    scratch: &mut Scratch,
    mut push: impl FnMut(ParTask, &mut Slot),
) -> Result<TaskRecord, ParTask> {
    let record = |kind, line, w: Walked| TaskRecord {
        id: 0,
        parent: None,
        kind,
        line,
        examined: w.examined,
        same_examined: w.same_examined,
        emitted: w.emitted,
        alpha_tests: w.alpha_tests,
    };
    match task {
        ParTask::Root { sign, wme } => {
            // One change's constant-test node activations: the grain of the
            // paper's "small groups" (DESIGN §2).
            slot.stats.alpha_activations += 1;
            let w = walk::constant_tests(&shared.net, sign, &wme, |t| push(t, slot));
            Ok(record(TaskKind::Root, NO_LINE, w))
        }
        ParTask::Left { join, sign, token } => {
            let j = shared.net.join(join);
            let key = j.left_key(&token);
            let Some(line) = shared.take(key, Side::Left, &mut slot.locks) else {
                return Err(ParTask::Left { join, sign, token });
            };
            let fx = &mut Fx { shared, slot, push };
            let w = walk::left(fx, line, scratch, j, key, sign, &token);
            profile(shared, j, &w);
            let kind = TaskKind::Left { negated: j.negated };
            Ok(record(kind, (key & shared.mask) as u32, w))
        }
        ParTask::Right { join, sign, wme } => {
            let j = shared.net.join(join);
            let key = j.right_key(&wme);
            let Some(line) = shared.take(key, Side::Right, &mut slot.locks) else {
                return Err(ParTask::Right { join, sign, wme });
            };
            let fx = &mut Fx { shared, slot, push };
            let w = walk::right(fx, line, scratch, j, key, sign, &wme);
            profile(shared, j, &w);
            let kind = TaskKind::Right { negated: j.negated };
            Ok(record(kind, (key & shared.mask) as u32, w))
        }
        ParTask::Terminal { prod, sign, token } => {
            slot.stats.activations += 1;
            slot.stats.cs_changes += 1;
            let inst = Instantiation { prod, wmes: token };
            let delta = match sign {
                Sign::Plus => 1,
                Sign::Minus => -1,
            };
            // Every terminal task of every match process serialises on this
            // one lock, so nothing is built under it (the key is the token
            // the task already holds, hashed from its cached word) and
            // nothing is freed under it: a cancelled pair leaves the map as
            // `cancelled` and drops, with `inst`, after the unlock.
            let mut acc = shared.cs_acc.lock();
            let cancelled = match acc.get_mut(&inst) {
                Some(net) => {
                    *net += delta;
                    if *net == 0 {
                        acc.remove_entry(&inst)
                    } else {
                        None
                    }
                }
                None => {
                    acc.insert(inst, delta);
                    None
                }
            };
            drop(acc);
            drop(cancelled);
            Ok(record(TaskKind::Terminal, NO_LINE, Default::default()))
        }
    }
}

/// Books a join activation and its scan in the node profile, when on.
fn profile(shared: &Shared, j: &JoinNode, w: &Walked) {
    if let Some(o) = shared.obs.get() {
        o.nodes.record_activation(j.id as usize);
        o.nodes.record_scan(j.id as usize, w.examined as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{ProdId, Program, Value, Wme, WmeChange};
    use std::time::Duration;

    fn configs() -> Vec<PsmConfig> {
        let base = PsmConfig {
            match_processes: 1,
            queues: 1,
            lock_scheme: LockScheme::Simple,
            buckets: 16,
        };
        vec![
            base,
            PsmConfig {
                match_processes: 0,
                ..base
            },
            PsmConfig {
                match_processes: 3,
                ..base
            },
            PsmConfig {
                match_processes: 3,
                queues: 4,
                ..base
            },
            PsmConfig {
                match_processes: 3,
                queues: 4,
                lock_scheme: LockScheme::Mrsw,
                ..base
            },
            PsmConfig {
                match_processes: 4,
                lock_scheme: LockScheme::Mrsw,
                ..base
            },
        ]
    }

    fn net_of(src: &str) -> (Program, Arc<Network>) {
        let prog = Program::from_source(src).unwrap();
        let net = Arc::new(Network::compile(&prog).unwrap());
        (prog, net)
    }

    /// Sorted final conflict-set keys after feeding `changes` and quiescing.
    /// Sequential matchers emit the full insert/remove history while the
    /// parallel matcher emits net deltas, so apply the deltas to a set and
    /// compare the resulting states.
    fn final_cs(m: &mut dyn Matcher, changes: Vec<WmeChange>) -> Vec<(ProdId, Vec<u64>)> {
        for c in changes {
            m.submit(&ChangeBatch::single(c));
        }
        let mut set = std::collections::BTreeSet::new();
        for c in m.quiesce().cs_changes {
            match c {
                CsChange::Insert(i) => {
                    set.insert(i.key());
                }
                CsChange::Remove(i) => {
                    set.remove(&i.key());
                }
            }
        }
        set.into_iter().collect()
    }

    #[test]
    fn parallel_matches_sequential_simple_join() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        for cfg in configs() {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let mut changes = Vec::new();
            for i in 0..20i64 {
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(ca, vec![Value::Int(i % 5)], i as u64 + 1),
                });
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(cb, vec![Value::Int(i % 5)], i as u64 + 100),
                });
            }
            let mut seq = rete::seq::boxed_vs2(net.clone(), rete::HashMemConfig { buckets: 16 });
            let expect = final_cs(seq.as_mut(), changes.clone());

            let mut par = ParMatcher::new(net, cfg);
            let got = final_cs(&mut par, changes);
            assert_eq!(got, expect, "config {cfg:?}");
            assert_eq!(par.parked_tokens(), 0, "no conjugate leftovers");
        }
    }

    #[test]
    fn parallel_handles_deletes() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        for cfg in configs() {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let wa = Wme::new(ca, vec![Value::Int(1)], 1);
            let wb = Wme::new(cb, vec![Value::Int(1)], 2);
            let mut par = ParMatcher::new(net, cfg);
            // Add and delete in the same match phase: net zero.
            let cs = final_cs(
                &mut par,
                vec![
                    WmeChange {
                        sign: Sign::Plus,
                        wme: wa.clone(),
                    },
                    WmeChange {
                        sign: Sign::Plus,
                        wme: wb.clone(),
                    },
                    WmeChange {
                        sign: Sign::Minus,
                        wme: wa.clone(),
                    },
                ],
            );
            assert!(
                cs.is_empty(),
                "config {cfg:?}: add+delete nets to nothing, got {cs:?}"
            );
            assert_eq!(par.parked_tokens(), 0);
        }
    }

    #[test]
    fn negated_ce_parallel() {
        let src = "(p q (a ^x <v>) - (b ^y <v>) --> (halt))";
        for cfg in configs() {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let mut changes = Vec::new();
            for i in 0..10i64 {
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(ca, vec![Value::Int(i)], i as u64 + 1),
                });
            }
            // Block even values.
            for i in (0..10i64).step_by(2) {
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(cb, vec![Value::Int(i)], i as u64 + 50),
                });
            }
            let mut seq = rete::seq::boxed_vs2(net.clone(), rete::HashMemConfig { buckets: 16 });
            let expect = final_cs(seq.as_mut(), changes.clone());
            assert_eq!(expect.len(), 5, "sanity: odd values fire");

            let mut par = ParMatcher::new(net, cfg);
            let got = final_cs(&mut par, changes);
            assert_eq!(got, expect, "config {cfg:?}");
        }
    }

    #[test]
    fn batched_submit_matches_per_change() {
        // Whole-batch submission (grouped root tasks, in-batch annihilation)
        // nets to the same conflict set as one-change-at-a-time submission.
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        for cfg in configs() {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let mut changes = Vec::new();
            for i in 0..12i64 {
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(ca, vec![Value::Int(i % 4)], i as u64 + 1),
                });
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(cb, vec![Value::Int(i % 4)], i as u64 + 100),
                });
            }
            // A conjugate pair: annihilates inside the batch, never queued.
            let ghost = Wme::new(ca, vec![Value::Int(2)], 500);
            changes.push(WmeChange {
                sign: Sign::Plus,
                wme: ghost.clone(),
            });
            changes.push(WmeChange {
                sign: Sign::Minus,
                wme: ghost,
            });

            let mut seq = rete::seq::boxed_vs2(net.clone(), rete::HashMemConfig { buckets: 16 });
            let expect = final_cs(seq.as_mut(), changes.clone());

            let mut par = ParMatcher::new(net, cfg);
            let batch: ops5::ChangeBatch = changes.into_iter().collect();
            assert_eq!(batch.annihilated(), 1);
            assert_eq!(batch.group_count(), 2, "one group per class");
            par.submit(&batch);
            let mut set = std::collections::BTreeSet::new();
            for c in par.quiesce().cs_changes {
                match c {
                    CsChange::Insert(i) => {
                        set.insert(i.key());
                    }
                    CsChange::Remove(i) => {
                        set.remove(&i.key());
                    }
                }
            }
            let got: Vec<_> = set.into_iter().collect();
            assert_eq!(got, expect, "config {cfg:?}");
            assert_eq!(par.stats().conjugate_pairs, 1, "annihilated in the batch");
            assert_eq!(par.parked_tokens(), 0);
        }
    }

    #[test]
    fn multi_cycle_state_persists() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut par = ParMatcher::new(
            net,
            PsmConfig {
                match_processes: 2,
                queues: 2,
                lock_scheme: LockScheme::Simple,
                buckets: 16,
            },
        );
        // Cycle 1: only the a-wme.
        par.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: Wme::new(ca, vec![Value::Int(7)], 1),
        }));
        assert!(par.quiesce().cs_changes.is_empty());
        // Cycle 2: the b-wme joins against cycle-1 state.
        par.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: Wme::new(cb, vec![Value::Int(7)], 2),
        }));
        let cs = par.quiesce().cs_changes;
        assert_eq!(cs.len(), 1);
        assert!(matches!(cs[0], CsChange::Insert(_)));
    }

    #[test]
    fn cross_product_stress_all_configs() {
        // The Tourney pathology: all tokens in one line.
        let src = "(p q (a ^x <v>) (b ^y <w>) --> (halt))";
        for cfg in configs() {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let mut changes = Vec::new();
            for i in 0..15i64 {
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(ca, vec![Value::Int(i)], i as u64 + 1),
                });
                changes.push(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(cb, vec![Value::Int(i)], i as u64 + 100),
                });
            }
            let mut par = ParMatcher::new(net, cfg);
            let got = final_cs(&mut par, changes);
            assert_eq!(got.len(), 225, "15x15 cross product, config {cfg:?}");
        }
    }

    #[test]
    fn stats_and_contention_populated() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut par = ParMatcher::new(
            net,
            PsmConfig {
                match_processes: 2,
                queues: 1,
                lock_scheme: LockScheme::Simple,
                buckets: 16,
            },
        );
        for i in 0..50i64 {
            par.submit(&ChangeBatch::single(WmeChange {
                sign: Sign::Plus,
                wme: Wme::new(ca, vec![Value::Int(i)], i as u64 + 1),
            }));
            par.submit(&ChangeBatch::single(WmeChange {
                sign: Sign::Plus,
                wme: Wme::new(cb, vec![Value::Int(i)], i as u64 + 100),
            }));
        }
        par.quiesce();
        let s = par.stats();
        assert_eq!(s.wme_changes, 100);
        assert!(s.activations >= 100);
        assert_eq!(s.cs_changes, 50);
        assert!(s.join_activations >= 100);
        let c = par.contention();
        assert!(c.queue_acqs > 0);
        assert!(c.hash_acqs_left + c.hash_acqs_right > 0);
    }

    #[test]
    fn a_shared_network_matches_the_paper_baseline() {
        // Compiled with beta-prefix sharing, the parallel matcher must reach
        // the same net conflict set as the sequential baseline on the
        // paper's network.
        use rete::NetworkOptions;
        let srcs = [
            "(p q (a ^x <v>) (b ^y <v>) --> (halt))",
            "(p q (a ^x <v>) - (b ^y <v>) --> (halt))",
            "(p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
             (p p2 (a ^x <v>) (b ^y <v>) (d ^w <v>) --> (halt))",
        ];
        for src in srcs {
            for cfg in configs() {
                let mut prog = Program::from_source(src).unwrap();
                let base = Arc::new(Network::compile_with(&prog, NetworkOptions::PAPER).unwrap());
                let shared = Arc::new(Network::compile(&prog).unwrap());
                let mut changes = Vec::new();
                let mut tag = 1u64;
                let mut first = None;
                for name in ["a", "b", "c", "d"] {
                    let class = prog.symbols.intern(name);
                    for i in 0..6i64 {
                        let wme = Wme::new(class, vec![Value::Int(i % 3)], tag);
                        first.get_or_insert_with(|| wme.clone());
                        changes.push(WmeChange {
                            sign: Sign::Plus,
                            wme,
                        });
                        tag += 1;
                    }
                }
                // Exercise the minus paths against populated memories too.
                changes.push(WmeChange {
                    sign: Sign::Minus,
                    wme: first.unwrap(),
                });
                let mut seq = rete::seq::boxed_vs2(base, rete::HashMemConfig { buckets: 16 });
                let expect = final_cs(seq.as_mut(), changes.clone());
                let mut par = ParMatcher::new(shared, cfg);
                let got = final_cs(&mut par, changes);
                assert_eq!(got, expect, "config {cfg:?} on {src:?}");
                assert_eq!(par.parked_tokens(), 0);
            }
        }
    }

    #[test]
    fn per_process_counters_sum_to_stats_and_reset_to_zero() {
        // Every process books into its own slot, the control process too:
        // at every quiescence the deltas add up to `stats()`, the lock
        // counts obey the identities of `assert_identities`, and
        // `reset_stats()` zeroes every slot.
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))
                   (p r (a ^x <v>) - (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        for (match_processes, queues) in [(4, 2), (1, 1), (0, 1)] {
            for lock_scheme in [LockScheme::Simple, LockScheme::Mrsw] {
                let cfg = PsmConfig {
                    match_processes,
                    queues,
                    lock_scheme,
                    buckets: 16,
                };
                let label = format!("{match_processes}x{queues} {lock_scheme:?}");
                let mut par = ParMatcher::new(net.clone(), cfg);
                let mut sum = MatchStats::default();
                for round in 0..3i64 {
                    let batch: ChangeBatch = (0..20i64)
                        .flat_map(|i| {
                            let (tag, v) = (round as u64 * 100 + i as u64 * 2, Value::Int(i % 5));
                            [
                                WmeChange {
                                    sign: Sign::Plus,
                                    wme: Wme::new(ca, vec![v], tag + 1),
                                },
                                WmeChange {
                                    sign: Sign::Plus,
                                    wme: Wme::new(cb, vec![v], tag + 2),
                                },
                            ]
                        })
                        .collect();
                    par.submit(&batch);
                    sum += par.quiesce().stats_delta;
                    assert_eq!(sum, par.stats(), "{label} round {round}");
                    let label = format!("{label} round {round}");
                    assert_identities(&sum, &par.contention(), cfg, &label);
                }
                assert_eq!(sum.wme_changes, 120);
                assert!(sum.join_activations > 0 && sum.cs_changes > 0);
                par.reset_stats();
                assert_eq!(par.stats(), MatchStats::default(), "{label}");
                assert_eq!(par.contention(), ContentionReport::default(), "{label}");
                assert_eq!(par.quiesce().stats_delta, MatchStats::default());
            }
        }
    }

    /// What a quiescent matcher's lock counts must be for the tasks it ran.
    /// A task is pushed once and popped once, and an MRSW requeue pushes
    /// and pops it once more; the inline driver takes no queue lock. A join
    /// activation takes its line once, and a claim MRSW refused took the
    /// entry lock once more.
    fn assert_identities(s: &MatchStats, c: &ContentionReport, cfg: PsmConfig, label: &str) {
        let tasks = s.alpha_activations + s.activations;
        let queue_acqs = match cfg.match_processes {
            0 => 0,
            _ => 2 * (tasks + c.requeues),
        };
        assert_eq!(c.queue_acqs, queue_acqs, "{label}: queue acquisitions");
        assert_eq!(
            c.hash_acqs_left + c.hash_acqs_right,
            s.join_activations + c.requeues,
            "{label}: line acquisitions"
        );
        if cfg.lock_scheme == LockScheme::Simple {
            assert_eq!(c.requeues, 0, "{label}: the simple lock never requeues");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_workers_park_with_negligible_cpu() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (mut prog, net) = net_of(src);
        let ca = prog.symbols.intern("a");
        let cb = prog.symbols.intern("b");
        let mut par = ParMatcher::new(
            net,
            PsmConfig {
                match_processes: 4,
                queues: 2,
                lock_scheme: LockScheme::Simple,
                buckets: 16,
            },
        );
        // One real cycle so every worker is up and has seen work.
        par.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: Wme::new(ca, vec![Value::Int(1)], 1),
        }));
        par.quiesce();
        // Let the spin→yield backoff drain into the parked state.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = par.worker_cpu_ticks().expect("procfs available on linux");
        std::thread::sleep(Duration::from_millis(500));
        let burned = par.worker_cpu_ticks().expect("procfs available on linux") - t0;
        // Four busy-spinning workers would burn ~200 ticks (2 000 ms of CPU)
        // across this window; workers parked on the condvar burn none, so
        // allow only scheduler noise.
        assert!(
            burned <= 10,
            "idle workers burned {burned} CPU ticks over a 500ms idle window"
        );
        // Parked workers must still wake promptly when work arrives.
        par.submit(&ChangeBatch::single(WmeChange {
            sign: Sign::Plus,
            wme: Wme::new(cb, vec![Value::Int(1)], 2),
        }));
        let cs = par.quiesce().cs_changes;
        assert_eq!(cs.len(), 1, "wake-on-push completed the join");
    }

    /// Lost-wakeup regression: hammer the push/park window with many tiny
    /// batches against four workers on one queue. Each round the workers
    /// drain one task and head back toward the parked state while the
    /// control thread immediately pushes the next change, so the push races
    /// a register→wait sequence hundreds of times. If the sleeper
    /// registration or the final queue re-check ever moves outside the
    /// parker mutex, a push can slip between a worker's last pop and its
    /// wait with no one left awake — the untimed wait then never returns
    /// and `quiesce` spins forever, which the watchdog converts into a
    /// failure instead of a hang.
    #[test]
    fn push_park_hammer_never_loses_wakeups() {
        let src = "(p q (a ^x <v>) (b ^y <v>) --> (halt))";
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let (mut prog, net) = net_of(src);
            let ca = prog.symbols.intern("a");
            let cb = prog.symbols.intern("b");
            let mut par = ParMatcher::new(
                net,
                PsmConfig {
                    match_processes: 4,
                    queues: 1,
                    lock_scheme: LockScheme::Simple,
                    buckets: 16,
                },
            );
            par.submit(&ChangeBatch::single(WmeChange {
                sign: Sign::Plus,
                wme: Wme::new(ca, vec![Value::Int(1)], 0),
            }));
            par.quiesce();
            for round in 1..=400u64 {
                par.submit(&ChangeBatch::single(WmeChange {
                    sign: Sign::Plus,
                    wme: Wme::new(cb, vec![Value::Int(1)], round),
                }));
                let cs = par.quiesce().cs_changes;
                assert_eq!(cs.len(), 1, "round {round} produced one instantiation");
                assert_eq!(par.parked_tokens(), 0);
                // Every 8th round, give the backoff time to actually park
                // so pushes also race fully-asleep workers, not just the
                // spin/yield phases.
                if round % 8 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            done_tx.send(()).unwrap();
        });
        match done_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(()) => worker.join().unwrap(),
            Err(_) => panic!("push/park hammer hung: a wakeup was lost"),
        }
    }
}
