//! Cross-matcher match-performance suite.
//!
//! Runs Weaver, Rubik, and Tourney on all five matchers (vs1, vs2, lisp,
//! psm-e, col) and reports per-change and per-cycle wall times plus heap
//! allocation counts, writing `BENCH_match.json` — the seed point for the
//! repo's match-perf trajectory (EXPERIMENTS.md tracks before/after numbers
//! per optimization PR).
//!
//! Run with: `cargo run --release -p bench --bin match_perf`
//! CI smoke:  `cargo run --release -p bench --bin match_perf -- --smoke`
//!
//! The batched-replay section records the exact WME-change stream a vs2 run
//! pushes through the match, then replays it re-chunked into batches of 64
//! into fresh vs2 and col matchers — the collection-oriented workload the
//! columnar matcher is built for. It always runs on the benchmark-size
//! programs (600-rule networks, where one alpha pattern feeds hundreds of
//! joins and the shared right memories vs2 and col both read store a WME
//! once). Under `--smoke` it gates on what is deterministic: the two
//! matchers' folded conflict sets agree, each stays inside an absolute
//! allocation budget per change, vs2 performs at most 1 % of Weaver's
//! join activations as null ones (dead readers are retired, not run) and
//! looks at no more readers than 2 % of them (dead readers are not even
//! visited), and a Rubik change evaluates at most 4 constant tests (the
//! class's constant index, not the chain of all its patterns); rows land
//! in `BENCH_match.json` under `"col_batch"`.
//!
//! `--profile` adds the observability pass: every workload x matcher pair is
//! re-run twice — metrics disabled (baseline) and enabled — reporting the
//! overhead of the obs layer and the top hottest join nodes per pair (named
//! by owning production), appended to `BENCH_match.json` under `"profile"`.
//! For col it also reports the `col_bucket_scan_len` histogram: how many
//! entries each bucket scan examined, the dial that tells whether the value
//! index is actually partitioning the memories. Under `--smoke` the pass
//! gates on allocs/change ratio <= 1.05 and on every histogram snapshot
//! validating.

use engine::EngineBuilder;
use ops5::{ChangeBatch, CsChange, MatchStats, Matcher, QuiesceReport, WmeChange};
use rete::network::Network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{rubik, tourney, weaver, MatcherChoice, Workload};

/// Forwarding allocator that counts allocations and allocated bytes so the
/// suite can report match-loop allocation pressure, not just wall time.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

struct Row {
    program: &'static str,
    matcher: &'static str,
    wall_s: f64,
    cycles: u64,
    changes: u64,
    per_change_us: f64,
    per_cycle_us: f64,
    join_acts: u64,
    null_acts: u64,
    allocs: u64,
    alloc_bytes: u64,
    allocs_per_change: f64,
    /// Constant tests evaluated and shared-memory readers looked at, per
    /// change (vs1, vs2 and col count them; the others report 0).
    alpha_tests_per_change: f64,
    readers_visited_per_change: f64,
}

fn benchmark(program: &'static str, w: &Workload, choice: &MatcherChoice) -> Row {
    // Build (parse + compile + initial WM) outside the measured window: the
    // suite measures the match loop, not the front end.
    let mut eng = workloads::build_engine(w, choice).expect("build engine");
    let (a0, b0) = alloc_snapshot();
    let started = Instant::now();
    let res = eng.run(w.max_cycles).expect("run");
    let wall = started.elapsed();
    let (a1, b1) = alloc_snapshot();
    if let Err(e) = (w.validate)(&eng) {
        panic!("{program} failed validation under {}: {e}", choice.label());
    }
    let stats = eng.match_stats();
    let changes = stats.wme_changes.max(1);
    let cycles = res.cycles.max(1);
    let allocs = a1 - a0;
    Row {
        program,
        matcher: choice.label(),
        wall_s: wall.as_secs_f64(),
        cycles: res.cycles,
        changes: stats.wme_changes,
        per_change_us: wall.as_secs_f64() * 1e6 / changes as f64,
        per_cycle_us: wall.as_secs_f64() * 1e6 / cycles as f64,
        join_acts: stats.join_activations,
        null_acts: stats.null_activations,
        allocs,
        alloc_bytes: b1 - b0,
        allocs_per_change: allocs as f64 / changes as f64,
        alpha_tests_per_change: stats.alpha_tests as f64 / changes as f64,
        readers_visited_per_change: stats.readers_visited as f64 / changes as f64,
    }
}

/// One rete-configuration measurement: Weaver on vs2 under the given network
/// compile options, capturing network node counts and join/null counters.
struct ReteRow {
    config: &'static str,
    options: rete::NetworkOptions,
    joins: usize,
    shared_prefixes: usize,
    memory_nodes: usize,
    right_memories: usize,
    join_acts: u64,
    null_acts: u64,
    null_skipped: u64,
    alpha_tests: u64,
    readers_visited: u64,
    wall_s: f64,
}

fn rete_config_row(w: &Workload, config: &'static str, options: rete::NetworkOptions) -> ReteRow {
    let mut eng =
        workloads::build_engine_with(w, &MatcherChoice::Vs2, Some(options)).expect("build engine");
    let summary = eng.network().summary();
    let started = Instant::now();
    eng.run(w.max_cycles).expect("run");
    let wall = started.elapsed();
    if let Err(e) = (w.validate)(&eng) {
        panic!("rete config {config} failed validation: {e}");
    }
    let s = eng.match_stats();
    ReteRow {
        config,
        options,
        joins: summary.joins,
        shared_prefixes: summary.shared_prefixes,
        memory_nodes: summary.memory_nodes,
        right_memories: summary.right_memories,
        join_acts: s.join_activations,
        null_acts: s.null_activations,
        null_skipped: s.null_skipped,
        alpha_tests: s.alpha_tests,
        readers_visited: s.readers_visited,
        wall_s: wall.as_secs_f64(),
    }
}

/// Compares network compile configurations on Weaver and writes
/// `BENCH_rete.json`. Under `--smoke` this doubles as the acceptance gate
/// for sharing + unlinking: unlinking must strictly reduce null activations,
/// and the combined config must cut join activations by at least 20%.
fn rete_comparison(w: &Workload, smoke: bool) {
    bench::header("Rete network configurations (Weaver, vs2)");
    let configs = [
        (
            "baseline",
            rete::NetworkOptions {
                sharing: false,
                unlinking: false,
            },
        ),
        (
            "unlink",
            rete::NetworkOptions {
                sharing: false,
                unlinking: true,
            },
        ),
        (
            "share+unlink",
            rete::NetworkOptions {
                sharing: true,
                unlinking: true,
            },
        ),
    ];
    println!(
        "{:<13} {:>7} {:>8} {:>8} {:>9} {:>12} {:>11} {:>12} {:>11} {:>12} {:>9}",
        "CONFIG",
        "joins",
        "shared",
        "mems",
        "right-mems",
        "join-acts",
        "null-acts",
        "null-skip",
        "alpha-tests",
        "readers-seen",
        "wall(s)"
    );
    let rows: Vec<ReteRow> = configs
        .iter()
        .map(|(name, opts)| {
            let r = rete_config_row(w, name, *opts);
            println!(
                "{:<13} {:>7} {:>8} {:>8} {:>9} {:>12} {:>11} {:>12} {:>11} {:>12} {:>9.3}",
                r.config,
                r.joins,
                r.shared_prefixes,
                r.memory_nodes,
                r.right_memories,
                r.join_acts,
                r.null_acts,
                r.null_skipped,
                r.alpha_tests,
                r.readers_visited,
                r.wall_s
            );
            r
        })
        .collect();

    let mut json = String::from("{\n  \"suite\": \"rete_configs\",\n  \"program\": \"Weaver\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"config\": \"{}\", \"sharing\": {}, \"unlinking\": {}, \
             \"joins\": {}, \"shared_prefixes\": {}, \"memory_nodes\": {}, \
             \"right_memories\": {}, \"join_activations\": {}, \"null_activations\": {}, \
             \"null_skipped\": {}, \"alpha_tests\": {}, \"readers_visited\": {}, \
             \"wall_s\": {:.6}}}{}\n",
            r.config,
            r.options.sharing,
            r.options.unlinking,
            r.joins,
            r.shared_prefixes,
            r.memory_nodes,
            r.right_memories,
            r.join_acts,
            r.null_acts,
            r.null_skipped,
            r.alpha_tests,
            r.readers_visited,
            r.wall_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_rete.json", &json).expect("write BENCH_rete.json");
    println!();
    println!("wrote BENCH_rete.json ({} configs)", rows.len());

    let base = &rows[0];
    let unlink = &rows[1];
    let tuned = &rows[2];
    let join_cut = 1.0 - tuned.join_acts as f64 / base.join_acts.max(1) as f64;
    println!(
        "unlinking null activations: {} -> {} ({} skipped); sharing+unlinking join activations: {} -> {} ({:.1}% fewer)",
        base.null_acts,
        unlink.null_acts,
        unlink.null_skipped,
        base.join_acts,
        tuned.join_acts,
        100.0 * join_cut
    );
    if smoke {
        assert!(
            unlink.null_acts < base.null_acts,
            "unlinking must strictly reduce Weaver null activations ({} vs {})",
            unlink.null_acts,
            base.null_acts
        );
        assert!(
            join_cut >= 0.20,
            "sharing+unlinking must cut Weaver join activations by >= 20% (got {:.1}%)",
            100.0 * join_cut
        );
    }
}

/// Wrapper that logs every submitted change in order, then delegates — the
/// same recording trick as `benches/batching.rs`, so the replay section
/// measures the matchers on the exact post-annihilation stream a real run
/// produces rather than on synthetic batches.
struct Recorder {
    inner: Box<dyn Matcher>,
    log: Arc<Mutex<Vec<WmeChange>>>,
}

impl Matcher for Recorder {
    fn submit(&mut self, batch: &ChangeBatch) {
        self.log.lock().unwrap().extend(batch.iter().cloned());
        self.inner.submit(batch);
    }
    fn quiesce(&mut self) -> QuiesceReport {
        self.inner.quiesce()
    }
    fn stats(&self) -> MatchStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn name(&self) -> &'static str {
        "recorder"
    }
}

/// Runs a workload once under vs2 and returns the compiled network plus the
/// change stream the matcher actually saw.
fn record_stream(w: &Workload) -> (Arc<Network>, Vec<WmeChange>) {
    let log: Arc<Mutex<Vec<WmeChange>>> = Arc::default();
    let log2 = log.clone();
    let mut eng = EngineBuilder::from_source(&w.source)
        .expect("parse")
        .custom_matcher(move |net| {
            Box::new(Recorder {
                inner: rete::seq::boxed_vs2(net, rete::HashMemConfig::default()),
                log: log2,
            })
        })
        .build()
        .expect("build");
    for wme in &w.setup {
        let sets: Vec<(String, ops5::Value)> = wme
            .sets
            .iter()
            .map(|(a, v)| {
                let val = match v {
                    workloads::SetupVal::Sym(s) => eng.sym(s),
                    workloads::SetupVal::Int(i) => ops5::Value::Int(*i),
                };
                (a.clone(), val)
            })
            .collect();
        let refs: Vec<(&str, ops5::Value)> = sets.iter().map(|(a, v)| (a.as_str(), *v)).collect();
        eng.make_wme(&wme.class, &refs).expect("setup wme");
    }
    eng.run(w.max_cycles).expect("run");
    let stream = std::mem::take(&mut *log.lock().unwrap());
    (eng.network().clone(), stream)
}

/// Replays a stream in chunks of `batch` changes, quiescing after each, and
/// returns the total number of conflict-set changes the matcher emitted plus
/// a hash chained over the *folded* conflict-set state after every chunk —
/// the cross-matcher agreement check for the replay harness. Raw change
/// counts are not comparable across matchers at batch > 1: a set-at-a-time
/// matcher may never emit an instantiation that a change-at-a-time matcher
/// inserts and then removes within the same chunk. Folding is what the
/// engine observes, so per-chunk folded state is the equivalence that
/// matters.
fn replay(m: &mut dyn Matcher, stream: &[WmeChange], batch: usize) -> (usize, u64) {
    use std::collections::BTreeSet;
    use std::hash::{Hash, Hasher};
    let mut cs = 0;
    let mut state: BTreeSet<(ops5::ProdId, Vec<u64>)> = BTreeSet::new();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for chunk in stream.chunks(batch) {
        m.submit(&chunk.iter().cloned().collect::<ChangeBatch>());
        for c in m.quiesce().cs_changes {
            cs += 1;
            match c {
                CsChange::Insert(i) => {
                    state.insert(i.key());
                }
                CsChange::Remove(i) => {
                    state.remove(&i.key());
                }
            }
        }
        state.hash(&mut h);
    }
    (cs, h.finish())
}

/// One matcher's replay measurement at one batch size.
struct ColBatchRow {
    program: &'static str,
    matcher: &'static str,
    batch: usize,
    wall_s: f64,
    changes: u64,
    per_change_us: f64,
    allocs_per_change: f64,
    cs_changes: usize,
    fold_sig: u64,
    join_acts: u64,
    null_acts: u64,
    readers_visited: u64,
}

const COL_BATCH: usize = 64;
const COL_REPS: usize = 5;
/// Weaver's 2562 joins read 125 right memories and 99.0 % of its right
/// activations find the reader's left memory empty. vs2 and col both
/// retire those readers without running them, so what is left to perform
/// as a null activation is the left side's share: 7633 of 1 727 451 join
/// activations, 0.44 %. (This gate used to be "col >= 5x vs2 per change",
/// a wall-clock ratio that encoded vs2's per-join right memories.)
const VS2_WEAVER_MAX_NULL_SHARE: f64 = 0.01;
/// The readers a right store looks at are the ones linked to its memory —
/// left memory non-empty — so on Weaver they are 0.98 % of the join
/// activations booked (4.88 of 500.0 per change); walking
/// `RightMemSpec::readers` to find them read 98.2 % (490.8).
const VS2_WEAVER_MAX_VISITED_SHARE: f64 = 0.02;
/// A Rubik change is dispatched through its class's constant index and
/// evaluates 0.95 constant tests (the smoke scramble: 0.96); the linear
/// chain evaluated 50.6 to find the 1.02 patterns that pass.
const VS2_RUBIK_MAX_ALPHA_TESTS_PER_CHANGE: f64 = 4.0;

/// The batched replay's programs and the allocations per change each
/// matcher may make on them (harness included), as `(program, workload,
/// vs2 budget, col budget)`. The counts are deterministic. Weaver's are
/// what the two matchers make with shared right memories plus a small
/// margin: vs2 7.13 + 2 (8.88 while a batch was taken as written; 13.01
/// while every alpha-direct successor built its own one-WME token and the
/// table was a fixed 16 384 lines, each allocating on first use; 31.02
/// with one right memory per join, 1438 before the borrowed kernel), col
/// 15.92 (311.16 with one right memory per join). Tourney's are the
/// measured 46.38 (vs2) and 106.67 (col) plus two: 20 and 45 conflict-set
/// changes per change at this batch size, each the terminal's own token
/// (260.82 and 197.14 while it was copied into a vector, two allocations
/// per conflict-set change more); what is left per conflict-set change is
/// its token node and this harness's `key()`. vs2 read 140.11 and 60
/// conflict-set changes per change until it took a batch's retractions
/// first: 64 changes merged from several firings hold the transients one
/// firing's batch does not.
type ColBatchProgram = (&'static str, fn() -> Workload, f64, f64);
const COL_BATCH_PROGRAMS: [ColBatchProgram; 2] = [
    ("Weaver", bench::weaver_bench, 9.13, 18.0),
    ("Tourney", bench::tourney_bench, 48.4, 108.8),
];

/// Measures one matcher replaying `stream` at `COL_BATCH`, best-of-`COL_REPS`
/// wall time. Allocation counts are deterministic per rep, so the last rep's
/// count stands for all of them.
fn col_batch_row(
    program: &'static str,
    matcher: &'static str,
    make: &dyn Fn() -> Box<dyn Matcher>,
    stream: &[WmeChange],
) -> ColBatchRow {
    let mut wall_s = f64::INFINITY;
    let mut allocs = 0u64;
    let mut cs_changes = 0usize;
    let mut fold_sig = 0u64;
    let mut stats = MatchStats::default();
    for _ in 0..COL_REPS {
        let mut m = make();
        let (a0, _) = alloc_snapshot();
        let started = Instant::now();
        (cs_changes, fold_sig) = replay(m.as_mut(), stream, COL_BATCH);
        wall_s = wall_s.min(started.elapsed().as_secs_f64());
        let (a1, _) = alloc_snapshot();
        allocs = a1 - a0;
        stats = m.stats();
    }
    let changes = stream.len().max(1) as u64;
    ColBatchRow {
        program,
        matcher,
        batch: COL_BATCH,
        wall_s,
        changes,
        per_change_us: wall_s * 1e6 / changes as f64,
        allocs_per_change: allocs as f64 / changes as f64,
        cs_changes,
        fold_sig,
        join_acts: stats.join_activations,
        null_acts: stats.null_activations,
        readers_visited: stats.readers_visited,
    }
}

/// Batched-replay comparison: vs2 vs col on the recorded benchmark-size
/// Weaver and Tourney change streams at batch-64 — the set-at-a-time
/// workload the columnar matcher targets. The folded conflict sets must
/// agree; under `--smoke` both matchers must also stay inside the budgets
/// of [`COL_BATCH_PROGRAMS`] and vs2's null activations on Weaver under
/// [`VS2_WEAVER_MAX_NULL_SHARE`] of its join activations.
fn col_batch_comparison(smoke: bool) -> Vec<ColBatchRow> {
    bench::header("Batched replay: vs2 vs col (recorded change streams, batch-64)");
    println!(
        "{:<8} {:<6} {:>6} {:>9} {:>9} {:>11} {:>12} {:>10}",
        "PROGRAM", "ENGINE", "batch", "wall(s)", "changes", "us/change", "allocs/chg", "cs-chgs"
    );
    let mut rows = Vec::new();
    for (name, workload, vs2_budget, col_budget) in COL_BATCH_PROGRAMS {
        let (net, stream) = record_stream(&workload());
        assert!(
            stream.len() > 100,
            "{name}: recorded stream too small to measure"
        );
        let vs2_make: Box<dyn Fn() -> Box<dyn Matcher>> = Box::new({
            let net = net.clone();
            move || rete::seq::boxed_vs2(net.clone(), rete::HashMemConfig::default())
        });
        let col_make: Box<dyn Fn() -> Box<dyn Matcher>> = Box::new({
            let net = net.clone();
            move || rete::colmatch::boxed_col(net.clone())
        });
        for (label, make) in [("vs2", &vs2_make), ("col", &col_make)] {
            let row = col_batch_row(name, label, make.as_ref(), &stream);
            println!(
                "{:<8} {:<6} {:>6} {:>9.3} {:>9} {:>11.3} {:>12.2} {:>10}",
                row.program,
                row.matcher,
                row.batch,
                row.wall_s,
                row.changes,
                row.per_change_us,
                row.allocs_per_change,
                row.cs_changes
            );
            rows.push(row);
        }
        let vs2 = &rows[rows.len() - 2];
        let col = &rows[rows.len() - 1];
        assert_eq!(
            vs2.fold_sig, col.fold_sig,
            "{name}: vs2 and col disagree on folded conflict-set state \
             (raw change counts may differ legitimately at batch > 1: col \
             suppresses insert/remove pairs that cancel within one chunk)"
        );
        let speedup = vs2.per_change_us / col.per_change_us.max(1e-9);
        println!(
            "{name}: col is {speedup:.2}x vs2 per-change at batch-{COL_BATCH} \
             (allocs/chg {:.2} vs {:.2})",
            col.allocs_per_change, vs2.allocs_per_change
        );
        if smoke {
            if name == "Weaver" {
                let share = vs2.null_acts as f64 / vs2.join_acts.max(1) as f64;
                assert!(
                    share <= VS2_WEAVER_MAX_NULL_SHARE,
                    "vs2 performed {} of Weaver's {} join activations as null ones \
                     ({:.2} %): dead readers of a right memory must not be run",
                    vs2.null_acts,
                    vs2.join_acts,
                    100.0 * share
                );
                let visited = vs2.readers_visited as f64 / vs2.join_acts.max(1) as f64;
                assert!(
                    visited <= VS2_WEAVER_MAX_VISITED_SHARE,
                    "vs2 looked at {} readers for Weaver's {} join activations \
                     ({:.2} %): a right store must not walk its dead readers",
                    vs2.readers_visited,
                    vs2.join_acts,
                    100.0 * visited
                );
            }
            for (row, budget) in [(vs2, vs2_budget), (col, col_budget)] {
                assert!(
                    row.allocs_per_change <= budget,
                    "{name}: {} allocs/change {:.2} exceeds its budget {budget}",
                    row.matcher,
                    row.allocs_per_change
                );
            }
        }
    }
    rows
}

/// One hot join node in a profile report, resolved against the network.
struct HotLine {
    join: usize,
    prod: String,
    ce: u16,
    activations: u64,
    scanned: u64,
}

/// Summary of the col matcher's per-bucket scan-length histogram: how many
/// candidate entries each join scan examined. Short scans mean the value
/// index is doing its job; a fat tail means collisions or low-selectivity
/// join keys.
struct ScanHistStats {
    count: u64,
    sum: u64,
    mean: f64,
    /// Nonzero buckets as `(upper_bound_exclusive, count)`.
    buckets: Vec<(u64, u64)>,
}

/// One workload x matcher measurement from the `--profile` pass.
struct ProfileRow {
    program: &'static str,
    matcher: &'static str,
    wall_off_s: f64,
    wall_on_s: f64,
    allocs_per_change_off: f64,
    allocs_per_change_on: f64,
    cycles: u64,
    hot: Vec<HotLine>,
    scan_hist: Option<ScanHistStats>,
}

impl ProfileRow {
    fn overhead_pct(&self) -> f64 {
        100.0 * (self.wall_on_s - self.wall_off_s) / self.wall_off_s.max(1e-9)
    }

    fn alloc_ratio(&self) -> f64 {
        self.allocs_per_change_on / self.allocs_per_change_off.max(1e-9)
    }
}

/// Runs one workload twice — obs disabled, then enabled — and pulls the hot
/// join nodes out of the enabled engine's node profile.
fn profile_pair(program: &'static str, w: &Workload, choice: &MatcherChoice) -> ProfileRow {
    let measure = |eng: &mut engine::Engine| {
        let (a0, _) = alloc_snapshot();
        let started = Instant::now();
        let res = eng.run(w.max_cycles).expect("run");
        let wall = started.elapsed().as_secs_f64();
        let (a1, _) = alloc_snapshot();
        let changes = eng.match_stats().wme_changes.max(1);
        (wall, (a1 - a0) as f64 / changes as f64, res.cycles)
    };

    // Best-of-5 on both legs, reps interleaved off/on/off/on/... so that
    // background load drift over the measurement window contaminates both
    // legs equally; the per-leg minimum is the least noise-contaminated
    // estimate of its true cost.
    const REPS: usize = 5;
    let mut wall_off_s = f64::INFINITY;
    let mut allocs_off = 0.0;
    let mut wall_on_s = f64::INFINITY;
    let mut allocs_on = 0.0;
    let mut cycles = 0;
    let mut on = None;
    for _ in 0..REPS {
        let mut off = workloads::build_engine(w, choice).expect("build engine");
        let (wall, allocs, _) = measure(&mut off);
        wall_off_s = wall_off_s.min(wall);
        allocs_off = allocs;
        drop(off);

        let mut eng = workloads::build_engine_obs(w, choice, None, obs::ObsConfig::enabled())
            .expect("build engine (obs)");
        let (wall, allocs, cyc) = measure(&mut eng);
        wall_on_s = wall_on_s.min(wall);
        allocs_on = allocs;
        cycles = cyc;
        on = Some(eng);
    }
    let on = on.expect("at least one obs rep");

    // Histogram invariant gate: every snapshot must be internally
    // consistent, and the match-phase histogram must hold one sample per
    // recognize-act cycle.
    let snap = on.obs_registry().expect("obs registry").snapshot();
    let mut scan_hist = None;
    for (name, h) in snap.histograms() {
        h.validate()
            .unwrap_or_else(|e| panic!("{program}/{}: {name}: {e}", choice.label()));
        if name == "engine_match_ns" {
            assert_eq!(
                h.count,
                cycles,
                "{program}/{}: engine_match_ns must hold one sample per cycle",
                choice.label()
            );
        }
        if name == "col_bucket_scan_len" && h.count > 0 {
            scan_hist = Some(ScanHistStats {
                count: h.count,
                sum: h.sum,
                mean: h.mean(),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| (obs::bucket_bound(i), *c))
                    .collect(),
            });
        }
    }

    let net = on.network().clone();
    let hot = on
        .node_profile()
        .map(|p| p.top_n(5))
        .unwrap_or_default()
        .into_iter()
        .map(|h| {
            let j = &net.joins[h.join];
            HotLine {
                join: h.join,
                prod: net.prod_names[j.prod.index()].clone(),
                ce: j.ce_index,
                activations: h.activations,
                scanned: h.scanned,
            }
        })
        .collect();

    ProfileRow {
        program,
        matcher: choice.label(),
        wall_off_s,
        wall_on_s,
        allocs_per_change_off: allocs_off,
        allocs_per_change_on: allocs_on,
        cycles,
        hot,
        scan_hist,
    }
}

fn profile_pass(programs: &[(&'static str, Workload)], smoke: bool) -> Vec<ProfileRow> {
    bench::header("Observability profile (obs off vs on, hottest join nodes)");
    let mut rows = Vec::new();
    for (name, w) in programs {
        for choice in matchers() {
            let row = profile_pair(name, w, &choice);
            println!(
                "{:<8} {:<6} wall {:>8.3}s -> {:>8.3}s ({:>+6.1}%)  allocs/chg x{:.3}",
                row.program,
                row.matcher,
                row.wall_off_s,
                row.wall_on_s,
                row.overhead_pct(),
                row.alloc_ratio()
            );
            if row.hot.is_empty() {
                println!("         (no per-node profile for this matcher)");
            }
            for h in &row.hot {
                println!(
                    "         join #{:<4} {:<28} ce{:<2} acts {:>10} scanned {:>12}",
                    h.join, h.prod, h.ce, h.activations, h.scanned
                );
            }
            if let Some(sh) = &row.scan_hist {
                let dist: Vec<String> = sh
                    .buckets
                    .iter()
                    .map(|(bound, c)| {
                        if *bound == u64::MAX {
                            format!("inf:{c}")
                        } else {
                            format!("<{bound}:{c}")
                        }
                    })
                    .collect();
                println!(
                    "         bucket scans {:>10}  entries examined {:>12}  mean {:>7.2}  [{}]",
                    sh.count,
                    sh.sum,
                    sh.mean,
                    dist.join(" ")
                );
            }
            if row.matcher == "col" {
                assert!(
                    row.scan_hist.is_some(),
                    "{}: col profile run recorded no bucket scans",
                    row.program
                );
            }
            if smoke {
                assert!(
                    row.alloc_ratio() <= 1.05,
                    "{}/{}: obs-enabled allocs/change ratio {:.3} exceeds 1.05",
                    row.program,
                    row.matcher,
                    row.alloc_ratio()
                );
            }
            rows.push(row);
        }
    }
    // vs1/vs2/psm-e all profile per node; lisp legitimately reports none.
    assert!(
        rows.iter().any(|r| !r.hot.is_empty()),
        "profile pass produced no hot join nodes at all"
    );
    rows
}

/// One serial/parallel act comparison on a corpus program × matcher pair.
struct ActPerfRow {
    program: &'static str,
    matcher: &'static str,
    fired: u64,
    serial_passes: u64,
    serial_submits: u64,
    par_passes: u64,
    par_submits: u64,
    groups: u64,
    mean_group: f64,
    rejects: u64,
    doomed: u64,
}

fn act_perf_run(
    src: &str,
    kind: engine::MatcherKind,
    act: engine::ActStrategy,
) -> (String, Vec<(u32, Vec<u64>)>, engine::ActStats) {
    let mut eng = EngineBuilder::from_source(src)
        .expect("parse corpus program")
        .matcher(kind)
        .act_strategy(act)
        .build()
        .expect("build engine");
    eng.load_startup().expect("load startup forms");
    eng.run(100_000).expect("run");
    let fired = eng
        .fired_log()
        .iter()
        .map(|(p, tags)| (p.0, tags.clone()))
        .collect();
    (eng.snapshot().to_text(), fired, eng.act_stats())
}

/// Serial vs parallel act phase on the `programs/` corpus. Equality of the
/// firing log and final working-memory snapshot is asserted unconditionally
/// (the parallel act is serial-equivalent by construction, and this is the
/// bench-side witness); the perf claim is that grouped firings fold into
/// fewer match passes and matcher submissions. Rows land in
/// `BENCH_match.json` under `"act_perf"`. Under `--smoke` gates on triage
/// reaching a mean group size above 1.5 with strictly fewer match passes
/// and submits than the serial run.
fn act_perf(smoke: bool) -> Vec<ActPerfRow> {
    bench::header("Act phase: serial vs parallel (corpus programs)");
    println!(
        "{:<10} {:<6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7} {:>7}",
        "PROGRAM",
        "ENGINE",
        "fired",
        "passes",
        "submits",
        "passes'",
        "submits'",
        "groups",
        "mean",
        "rejects",
        "doomed"
    );
    let mut rows = Vec::new();
    for name in ["blocks", "fibonacci", "monkey", "hanoi", "triage"] {
        let src = std::fs::read_to_string(format!("programs/{name}.ops"))
            .expect("read corpus program (run from the workspace root)");
        let matchers: Vec<(&'static str, engine::MatcherKind)> = if name == "triage" {
            // triage is the grouping showcase; cover both the default and
            // the columnar matcher there.
            vec![
                (
                    "vs2",
                    engine::MatcherKind::Vs2(rete::HashMemConfig::default()),
                ),
                ("col", engine::MatcherKind::Col),
            ]
        } else {
            vec![(
                "vs2",
                engine::MatcherKind::Vs2(rete::HashMemConfig::default()),
            )]
        };
        for (label, kind) in matchers {
            let (s_snap, s_fired, s_stats) =
                act_perf_run(&src, kind.clone(), engine::ActStrategy::Serial);
            let (p_snap, p_fired, p_stats) =
                act_perf_run(&src, kind, engine::ActStrategy::parallel());
            assert_eq!(
                p_fired, s_fired,
                "{name}/{label}: parallel act changed the firing log"
            );
            assert_eq!(
                p_snap, s_snap,
                "{name}/{label}: parallel act changed final working memory"
            );
            let row = ActPerfRow {
                program: name,
                matcher: label,
                fired: p_stats.fired,
                serial_passes: s_stats.match_passes,
                serial_submits: s_stats.act_submits,
                par_passes: p_stats.match_passes,
                par_submits: p_stats.act_submits,
                groups: p_stats.groups,
                mean_group: p_stats.mean_group_size(),
                rejects: p_stats.interference_rejects,
                doomed: p_stats.doomed_skips,
            };
            println!(
                "{:<10} {:<6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7.2} {:>7} {:>7}",
                row.program,
                row.matcher,
                row.fired,
                row.serial_passes,
                row.serial_submits,
                row.par_passes,
                row.par_submits,
                row.groups,
                row.mean_group,
                row.rejects,
                row.doomed
            );
            if smoke && name == "triage" {
                assert!(
                    row.mean_group > 1.5,
                    "triage/{label}: mean act group size {:.2} <= 1.5 — grouping regressed",
                    row.mean_group
                );
                assert!(
                    row.par_submits < row.serial_submits,
                    "triage/{label}: parallel submits {} not below serial {}",
                    row.par_submits,
                    row.serial_submits
                );
                assert!(
                    row.par_passes < row.serial_passes,
                    "triage/{label}: parallel match passes {} not below serial {}",
                    row.par_passes,
                    row.serial_passes
                );
            }
            rows.push(row);
        }
    }
    rows
}

fn smoke_programs() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "Weaver",
            weaver::workload(weaver::WeaverConfig {
                width: 6,
                height: 6,
                kinds: 12,
                nets: 3,
                blocked_pct: 8,
                seed: 42,
            }),
        ),
        (
            "Rubik",
            rubik::workload(rubik::RubikConfig {
                seed: 2026,
                scramble_len: 12,
                plan: rubik::PlanMode::Inverse,
            }),
        ),
        (
            "Tourney",
            tourney::workload(tourney::TourneyConfig {
                teams: 8,
                variant: tourney::Variant::Pathological,
            }),
        ),
    ]
}

fn matchers() -> Vec<MatcherChoice> {
    vec![
        MatcherChoice::Vs1,
        MatcherChoice::Vs2,
        MatcherChoice::Lisp,
        MatcherChoice::Psm(psm::PsmConfig::default()),
        MatcherChoice::Col,
    ]
}

fn main() {
    // The workload sections gate on deterministic counters measured under
    // the serial act phase; the act comparison below sets its strategies
    // explicitly. Scrub the env knob so an `OPS5_ACT=parallel` CI job
    // (act-smoke) exercises the same gates as the default one.
    std::env::remove_var("OPS5_ACT");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let profile_mode = std::env::args().any(|a| a == "--profile");
    let programs: Vec<(&'static str, Workload)> = if smoke {
        smoke_programs()
    } else {
        bench::programs()
            .into_iter()
            .map(|(name, make)| (name, make()))
            .collect()
    };

    bench::header(if smoke {
        "Match-perf suite (smoke configs)"
    } else {
        "Match-perf suite"
    });
    println!(
        "{:<8} {:<6} {:>9} {:>8} {:>9} {:>11} {:>11} {:>11} {:>10} {:>11} {:>12} {:>10} {:>12}",
        "PROGRAM",
        "ENGINE",
        "wall(s)",
        "cycles",
        "changes",
        "us/change",
        "us/cycle",
        "join-acts",
        "null-acts",
        "allocs",
        "allocs/chg",
        "tests/chg",
        "readers/chg"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (name, w) in &programs {
        for choice in matchers() {
            let row = benchmark(name, w, &choice);
            println!(
                "{:<8} {:<6} {:>9.3} {:>8} {:>9} {:>11.2} {:>11.1} {:>11} {:>10} {:>11} {:>12.1} {:>10.2} {:>12.2}",
                row.program,
                row.matcher,
                row.wall_s,
                row.cycles,
                row.changes,
                row.per_change_us,
                row.per_cycle_us,
                row.join_acts,
                row.null_acts,
                row.allocs,
                row.allocs_per_change,
                row.alpha_tests_per_change,
                row.readers_visited_per_change
            );
            rows.push(row);
        }
    }

    if smoke {
        let rubik = rows
            .iter()
            .find(|r| (r.program, r.matcher) == ("Rubik", "vs2"));
        let tests = rubik.expect("a Rubik vs2 row").alpha_tests_per_change;
        assert!(
            tests <= VS2_RUBIK_MAX_ALPHA_TESTS_PER_CHANGE,
            "vs2 evaluated {tests:.2} constant tests per Rubik change: the \
             alpha network must be looked up, not walked"
        );
    }

    println!();
    let col_rows = col_batch_comparison(smoke);

    println!();
    let act_rows = act_perf(smoke);

    let profile_rows = if profile_mode {
        println!();
        profile_pass(&programs, smoke)
    } else {
        Vec::new()
    };

    let mut json = String::from("{\n  \"suite\": \"match_perf\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n  \"results\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"program\": \"{}\", \"matcher\": \"{}\", \"wall_s\": {:.6}, \
             \"cycles\": {}, \"wme_changes\": {}, \"us_per_change\": {:.3}, \
             \"us_per_cycle\": {:.3}, \"join_activations\": {}, \
             \"null_activations\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \
             \"allocs_per_change\": {:.2}}}{}\n",
            r.program,
            r.matcher,
            r.wall_s,
            r.cycles,
            r.changes,
            r.per_change_us,
            r.per_cycle_us,
            r.join_acts,
            r.null_acts,
            r.allocs,
            r.alloc_bytes,
            r.allocs_per_change,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]");
    if !col_rows.is_empty() {
        json.push_str(",\n  \"col_batch\": [\n");
        for (i, r) in col_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"program\": \"{}\", \"matcher\": \"{}\", \"batch\": {}, \
                 \"wall_s\": {:.6}, \"changes\": {}, \"us_per_change\": {:.3}, \
                 \"allocs_per_change\": {:.2}, \"cs_changes\": {}}}{}\n",
                r.program,
                r.matcher,
                r.batch,
                r.wall_s,
                r.changes,
                r.per_change_us,
                r.allocs_per_change,
                r.cs_changes,
                if i + 1 == col_rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]");
    }
    if !act_rows.is_empty() {
        json.push_str(",\n  \"act_perf\": [\n");
        for (i, r) in act_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"program\": \"{}\", \"matcher\": \"{}\", \"fired\": {}, \
                 \"serial_match_passes\": {}, \"serial_act_submits\": {}, \
                 \"parallel_match_passes\": {}, \"parallel_act_submits\": {}, \
                 \"groups\": {}, \"mean_group_size\": {:.3}, \
                 \"interference_rejects\": {}, \"doomed_skips\": {}}}{}\n",
                r.program,
                r.matcher,
                r.fired,
                r.serial_passes,
                r.serial_submits,
                r.par_passes,
                r.par_submits,
                r.groups,
                r.mean_group,
                r.rejects,
                r.doomed,
                if i + 1 == act_rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]");
    }
    if !profile_rows.is_empty() {
        json.push_str(",\n  \"profile\": [\n");
        for (i, r) in profile_rows.iter().enumerate() {
            let hot: Vec<String> = r
                .hot
                .iter()
                .map(|h| {
                    format!(
                        "{{\"join\": {}, \"prod\": \"{}\", \"ce\": {}, \
                         \"activations\": {}, \"scanned\": {}}}",
                        h.join, h.prod, h.ce, h.activations, h.scanned
                    )
                })
                .collect();
            let hist = r
                .scan_hist
                .as_ref()
                .map(|sh| {
                    format!(
                        ", \"scan_hist\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}}}",
                        sh.count, sh.sum, sh.mean
                    )
                })
                .unwrap_or_default();
            json.push_str(&format!(
                "    {{\"program\": \"{}\", \"matcher\": \"{}\", \"cycles\": {}, \
                 \"wall_off_s\": {:.6}, \"wall_on_s\": {:.6}, \
                 \"overhead_pct\": {:.2}, \"allocs_per_change_off\": {:.2}, \
                 \"allocs_per_change_on\": {:.2}, \"hot_nodes\": [{}]{}}}{}\n",
                r.program,
                r.matcher,
                r.cycles,
                r.wall_off_s,
                r.wall_on_s,
                r.overhead_pct(),
                r.allocs_per_change_off,
                r.allocs_per_change_on,
                hot.join(", "),
                hist,
                if i + 1 == profile_rows.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]");
    }
    json.push_str("\n}\n");
    std::fs::write("BENCH_match.json", &json).expect("write BENCH_match.json");
    println!();
    println!("wrote BENCH_match.json ({} rows)", rows.len());
    println!();

    // The Weaver config comparison runs on the smoke-sized grid either way:
    // the counters it gates on are deterministic, and the smoke run is the
    // one CI enforces.
    let (_, weaver) = smoke_programs().remove(0);
    rete_comparison(&weaver, smoke);
}
