//! Durability: versioned working-memory snapshots plus an append-only
//! change/firing log, and recovery by snapshot-load + log-replay.
//!
//! A [`Snapshot`] captures everything the recognize-act interpreter needs
//! to reconstruct a session: live WMEs with their original timetags, the
//! staged-but-unflushed changes, the timetag clock, the cycle counter, the
//! refraction state (which conflict-set entries have fired), the fired log,
//! and the accumulated `write` output. It deliberately does *not* capture
//! matcher internals: Rete memories are a pure function of the
//! matcher-visible WM contents, so [`Engine::restore`] re-feeds those WMEs
//! as one [`ChangeBatch`], quiesces, and re-marks the fired keys — valid
//! under every matcher, which is what makes a snapshot taken under one
//! matcher restorable under another (time-travel replay).
//!
//! A [`ChangeLog`] is the tail since the last checkpoint: `stage` /
//! `stage_retract` / `fire` records in execution order. Replay re-applies
//! stages and re-fires cycles through the ordinary [`Engine::step`] path;
//! every record is self-verifying (assigned timetags and fired
//! instantiations must match the log), so a divergence surfaces as an
//! error instead of silently corrupted state.
//!
//! Both serialize to a line-oriented text format with no external
//! dependencies. Floats travel as IEEE-754 bit patterns in hex so the
//! round trip is exact; symbols travel by name (OPS5 symbols never contain
//! whitespace); a program fingerprint guards against restoring into a
//! mismatched program.

use crate::interp::Engine;
use ops5::{ChangeBatch, Ops5Error, Program, Result, Sign, SymbolTable, Value, Wme};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Current snapshot format version (the `v1` in the header line).
pub const SNAPSHOT_VERSION: u32 = 1;

/// A serialization-neutral value: symbols by name, floats by bit pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapVal {
    Int(i64),
    Float(f64),
    Sym(String),
}

impl SnapVal {
    fn of(v: Value, symbols: &SymbolTable) -> SnapVal {
        match v {
            Value::Int(i) => SnapVal::Int(i),
            Value::Float(f) => SnapVal::Float(f),
            Value::Sym(s) => SnapVal::Sym(symbols.name(s).to_string()),
        }
    }

    fn to_value(&self, symbols: &mut SymbolTable) -> Value {
        match self {
            SnapVal::Int(i) => Value::Int(*i),
            SnapVal::Float(f) => Value::Float(*f),
            SnapVal::Sym(name) => Value::Sym(symbols.intern(name)),
        }
    }

    /// Token form: `i:<dec>`, `f:<bits-hex>`, `s:<name>`.
    fn encode(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = match self {
            SnapVal::Int(i) => write!(out, "i:{i}"),
            SnapVal::Float(f) => write!(out, "f:{:016x}", f.to_bits()),
            SnapVal::Sym(name) => write!(out, "s:{name}"),
        };
    }

    fn decode(tok: &str) -> Result<SnapVal> {
        let bad = || Ops5Error::Runtime(format!("bad value token `{tok}`"));
        match tok.split_once(':') {
            Some(("i", d)) => d.parse().map(SnapVal::Int).map_err(|_| bad()),
            Some(("f", h)) => u64::from_str_radix(h, 16)
                .map(|b| SnapVal::Float(f64::from_bits(b)))
                .map_err(|_| bad()),
            Some(("s", name)) if !name.is_empty() => Ok(SnapVal::Sym(name.to_string())),
            _ => Err(bad()),
        }
    }
}

/// One serialized WME: timetag, class name, positional field values.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapWme {
    pub tag: u64,
    pub class: String,
    pub fields: Vec<SnapVal>,
}

impl SnapWme {
    fn of(w: &Wme, symbols: &SymbolTable) -> SnapWme {
        SnapWme {
            tag: w.timetag,
            class: symbols.name(w.class).to_string(),
            fields: w.fields.iter().map(|&v| SnapVal::of(v, symbols)).collect(),
        }
    }

    fn encode(&self, out: &mut String) {
        encode_wme(self.tag, &self.class, &self.fields, out);
    }

    fn decode(body: &str) -> Result<SnapWme> {
        let mut toks = body.split_whitespace();
        let tag = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| Ops5Error::Runtime(format!("bad wme record `{body}`")))?;
        let class = toks
            .next()
            .ok_or_else(|| Ops5Error::Runtime(format!("wme record missing class `{body}`")))?
            .to_string();
        let fields = toks.map(SnapVal::decode).collect::<Result<Vec<_>>>()?;
        Ok(SnapWme { tag, class, fields })
    }
}

/// `<tag> <class> <vals...>`: the body of a snapshot WME line and of a
/// log `+` record.
fn encode_wme(tag: u64, class: &str, fields: &[SnapVal], out: &mut String) {
    let _ = write!(out, "{tag} {class}");
    for f in fields {
        out.push(' ');
        f.encode(out);
    }
}

/// A production firing or refraction key: production name + matched
/// timetags.
fn encode_key(prod: &str, tags: &[u64], out: &mut String) {
    out.push_str(prod);
    for t in tags {
        let _ = write!(out, " {t}");
    }
}

fn decode_key(body: &str) -> Result<(String, Vec<u64>)> {
    let mut toks = body.split_whitespace();
    let prod = toks
        .next()
        .ok_or_else(|| Ops5Error::Runtime("empty instantiation key".into()))?
        .to_string();
    let tags = toks
        .map(|t| {
            t.parse()
                .map_err(|_| Ops5Error::Runtime(format!("bad timetag `{t}` in key `{body}`")))
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok((prod, tags))
}

/// FNV-1a over the parts of a program that must match for a restore to be
/// sound: strategy, production names and shapes, class layouts.
pub fn program_fingerprint(prog: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    };
    eat(&SNAPSHOT_VERSION.to_le_bytes());
    eat(format!("{:?}", prog.strategy).as_bytes());
    for p in prog.productions.iter() {
        eat(prog.symbols.name(p.name).as_bytes());
        eat(&(p.lhs.len() as u64).to_le_bytes());
        eat(&(p.rhs.len() as u64).to_le_bytes());
    }
    let mut classes: Vec<(String, Vec<String>)> = prog
        .classes
        .classes()
        .map(|(c, info)| {
            (
                prog.symbols.name(*c).to_string(),
                info.attrs
                    .iter()
                    .map(|a| prog.symbols.name(*a).to_string())
                    .collect(),
            )
        })
        .collect();
    classes.sort();
    for (name, attrs) in classes {
        eat(name.as_bytes());
        for a in attrs {
            eat(a.as_bytes());
        }
    }
    h
}

/// A versioned, self-contained capture of one engine's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// [`program_fingerprint`] of the program the state belongs to.
    pub fingerprint: u64,
    /// Timetag clock (next tag to be assigned).
    pub clock: u64,
    /// Recognize-act cycles executed so far.
    pub cycles: u64,
    /// Whether a `halt` action has executed.
    pub halted: bool,
    /// Every live WME, sorted by timetag. Includes staged adds.
    pub wm: Vec<SnapWme>,
    /// Staged-but-unflushed changes: adds reference WMEs also present in
    /// `wm`; deletes carry WMEs that are matcher-visible but no longer
    /// live.
    pub staged: Vec<(Sign, SnapWme)>,
    /// Refraction state: keys of conflict-set entries that have fired.
    pub fired_cs: Vec<(String, Vec<u64>)>,
    /// The per-cycle fired log (production name + matched timetags).
    pub fired_log: Vec<(String, Vec<u64>)>,
    /// Completed `write` output lines.
    pub output: Vec<String>,
    /// Partially assembled `write` line (no `crlf` yet).
    pub line: String,
}

impl Snapshot {
    /// Captures `eng`'s durable state. Pure read; the engine is untouched.
    pub fn capture(eng: &Engine) -> Snapshot {
        let symbols = &eng.prog.symbols;
        let mut wm: Vec<SnapWme> = eng.wm.iter().map(|w| SnapWme::of(w, symbols)).collect();
        wm.sort_by_key(|w| w.tag);
        let staged = eng
            .staged
            .iter()
            .map(|c| (c.sign, SnapWme::of(&c.wme, symbols)))
            .collect();
        let key_name =
            |(p, tags): (ops5::ProdId, Vec<u64>)| (eng.prog.prod_name(p).to_string(), tags);
        Snapshot {
            fingerprint: program_fingerprint(&eng.prog),
            clock: eng.wm.clock(),
            cycles: eng.cycles,
            halted: eng.halted,
            wm,
            staged,
            fired_cs: eng.cs.fired_keys().into_iter().map(key_name).collect(),
            fired_log: eng
                .fired_log
                .iter()
                .map(|(p, tags)| (eng.prog.prod_name(*p).to_string(), tags.clone()))
                .collect(),
            output: eng.output.clone(),
            line: eng.line.clone(),
        }
    }

    /// Serializes to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "ops5-snapshot v{} fp={:016x} clock={} cycles={} halted={}\n",
            SNAPSHOT_VERSION, self.fingerprint, self.clock, self.cycles, self.halted as u8
        );
        for w in &self.wm {
            out.push_str("w ");
            w.encode(&mut out);
            out.push('\n');
        }
        for (sign, w) in &self.staged {
            out.push_str(match sign {
                Sign::Plus => "s + ",
                Sign::Minus => "s - ",
            });
            w.encode(&mut out);
            out.push('\n');
        }
        for (p, tags) in &self.fired_cs {
            out.push_str("f ");
            encode_key(p, tags, &mut out);
            out.push('\n');
        }
        for (p, tags) in &self.fired_log {
            out.push_str("l ");
            encode_key(p, tags, &mut out);
            out.push('\n');
        }
        for o in &self.output {
            out.push_str("o ");
            out.push_str(o);
            out.push('\n');
        }
        if !self.line.is_empty() {
            out.push_str("p ");
            out.push_str(&self.line);
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text format produced by [`Snapshot::to_text`].
    pub fn parse(text: &str) -> Result<Snapshot> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| Ops5Error::Runtime("empty snapshot".into()))?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("ops5-snapshot") {
            return Err(Ops5Error::Runtime(format!(
                "not a snapshot header: `{header}`"
            )));
        }
        match toks.next() {
            Some(v) if v == format!("v{SNAPSHOT_VERSION}") => {}
            Some(v) => {
                return Err(Ops5Error::Runtime(format!(
                    "unsupported snapshot version `{v}` (expected v{SNAPSHOT_VERSION})"
                )))
            }
            None => return Err(Ops5Error::Runtime("snapshot header missing version".into())),
        }
        let mut fingerprint = None;
        let mut clock = None;
        let mut cycles = None;
        let mut halted = None;
        for kv in toks {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| Ops5Error::Runtime(format!("bad header field `{kv}`")))?;
            let bad = || Ops5Error::Runtime(format!("bad header value `{kv}`"));
            match k {
                "fp" => fingerprint = Some(u64::from_str_radix(v, 16).map_err(|_| bad())?),
                "clock" => clock = Some(v.parse().map_err(|_| bad())?),
                "cycles" => cycles = Some(v.parse().map_err(|_| bad())?),
                "halted" => halted = Some(v == "1"),
                _ => {} // Forward compatibility: ignore unknown fields.
            }
        }
        let missing = |f: &str| Ops5Error::Runtime(format!("snapshot header missing `{f}`"));
        let mut snap = Snapshot {
            fingerprint: fingerprint.ok_or_else(|| missing("fp"))?,
            clock: clock.ok_or_else(|| missing("clock"))?,
            cycles: cycles.ok_or_else(|| missing("cycles"))?,
            halted: halted.ok_or_else(|| missing("halted"))?,
            wm: Vec::new(),
            staged: Vec::new(),
            fired_cs: Vec::new(),
            fired_log: Vec::new(),
            output: Vec::new(),
            line: String::new(),
        };
        let mut terminated = false;
        for line in lines {
            let (kind, body) = match line.split_once(' ') {
                Some((k, b)) => (k, b),
                None => (line, ""),
            };
            match kind {
                "w" => snap.wm.push(SnapWme::decode(body)?),
                "s" => {
                    let (sign_tok, rest) = body
                        .split_once(' ')
                        .ok_or_else(|| Ops5Error::Runtime(format!("bad staged record `{line}`")))?;
                    let sign = match sign_tok {
                        "+" => Sign::Plus,
                        "-" => Sign::Minus,
                        _ => {
                            return Err(Ops5Error::Runtime(format!("bad staged sign `{sign_tok}`")))
                        }
                    };
                    snap.staged.push((sign, SnapWme::decode(rest)?));
                }
                "f" => snap.fired_cs.push(decode_key(body)?),
                "l" => snap.fired_log.push(decode_key(body)?),
                "o" => snap.output.push(body.to_string()),
                "p" => snap.line = body.to_string(),
                "end" => {
                    terminated = true;
                    break;
                }
                _ => {
                    return Err(Ops5Error::Runtime(format!(
                        "unknown snapshot record `{line}`"
                    )))
                }
            }
        }
        if !terminated {
            return Err(Ops5Error::Runtime("snapshot missing `end` line".into()));
        }
        Ok(snap)
    }
}

/// One append-only log record (the tail since the last checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A WME staged into working memory (`ASSERT`): the tag the engine
    /// assigned plus the full element, so replay can verify determinism.
    Stage {
        tag: u64,
        class: String,
        fields: Vec<SnapVal>,
    },
    /// A staged retraction by timetag (`RETRACT`).
    StageRetract { tag: u64 },
    /// One recognize-act cycle: the production and timetags that fired.
    Fire { prod: String, tags: Vec<u64> },
}

impl LogRecord {
    /// Builds the `Stage` record for a just-staged WME (the engine's
    /// journaling hook).
    pub(crate) fn stage_of(w: &Wme, symbols: &SymbolTable) -> LogRecord {
        LogRecord::Stage {
            tag: w.timetag,
            class: symbols.name(w.class).to_string(),
            fields: w.fields.iter().map(|&v| SnapVal::of(v, symbols)).collect(),
        }
    }

    /// Appends the record's line, newline included, to `out`. Wire form:
    /// `+ <tag> <class> <vals...>` / `- <tag>` / `! <prod> <tags...>`.
    pub fn write_line(&self, out: &mut String) {
        match self {
            LogRecord::Stage { tag, class, fields } => {
                out.push_str("+ ");
                encode_wme(*tag, class, fields, out);
            }
            LogRecord::StageRetract { tag } => {
                let _ = write!(out, "- {tag}");
            }
            LogRecord::Fire { prod, tags } => {
                out.push_str("! ");
                encode_key(prod, tags, out);
            }
        }
        out.push('\n');
    }

    pub fn parse(line: &str) -> Result<LogRecord> {
        let (kind, body) = line
            .split_once(' ')
            .ok_or_else(|| Ops5Error::Runtime(format!("bad log record `{line}`")))?;
        match kind {
            "+" => {
                let w = SnapWme::decode(body)?;
                Ok(LogRecord::Stage {
                    tag: w.tag,
                    class: w.class,
                    fields: w.fields,
                })
            }
            "-" => body
                .trim()
                .parse()
                .map(|tag| LogRecord::StageRetract { tag })
                .map_err(|_| Ops5Error::Runtime(format!("bad retract record `{line}`"))),
            "!" => decode_key(body).map(|(prod, tags)| LogRecord::Fire { prod, tags }),
            _ => Err(Ops5Error::Runtime(format!("unknown log record `{line}`"))),
        }
    }
}

/// The append-only change/firing log: everything that mutated a session
/// since its last checkpoint, in execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeLog {
    pub records: Vec<LogRecord>,
}

impl ChangeLog {
    pub fn new() -> ChangeLog {
        ChangeLog::default()
    }

    pub fn push(&mut self, rec: LogRecord) {
        self.records.push(rec);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// One line per record.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_line(&mut out);
        }
        out
    }

    /// Parses a log body (blank lines ignored, so a torn trailing write —
    /// a kill mid-append never produces one because records are
    /// line-buffered, but an empty last line is normal — is harmless).
    pub fn parse(text: &str) -> Result<ChangeLog> {
        let mut log = ChangeLog::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            log.push(LogRecord::parse(line)?);
        }
        Ok(log)
    }

    /// Replays the log against `eng` (normally one freshly restored from
    /// the matching checkpoint). Every record is verified as it applies:
    /// staged tags must come out as logged, and each `fire` record must
    /// select exactly the logged instantiation through the ordinary
    /// [`Engine::step`] path. Returns the number of cycles re-fired.
    pub fn replay(&self, eng: &mut Engine) -> Result<u64> {
        let mut fires = 0u64;
        for (i, rec) in self.records.iter().enumerate() {
            let at = |msg: String| Ops5Error::Runtime(format!("log replay record {i}: {msg}"));
            match rec {
                LogRecord::Stage { tag, class, fields } => {
                    let c = eng
                        .prog
                        .symbols
                        .get(class)
                        .filter(|c| eng.prog.classes.info(*c).is_some())
                        .ok_or_else(|| at(format!("unknown class `{class}`")))?;
                    let vals = fields
                        .iter()
                        .map(|f| f.to_value(&mut eng.prog.symbols))
                        .collect();
                    let w = eng.stage(c, vals)?;
                    if w.timetag != *tag {
                        return Err(at(format!(
                            "stage assigned timetag {} but the log recorded {tag}",
                            w.timetag
                        )));
                    }
                }
                LogRecord::StageRetract { tag } => {
                    eng.stage_retract(*tag).map_err(|e| at(e.to_string()))?;
                }
                LogRecord::Fire { prod, tags } => {
                    let inst = eng
                        .step()?
                        .ok_or_else(|| at(format!("log fires `{prod}` but engine is quiescent")))?;
                    let got = eng.prog.prod_name(inst.prod);
                    let got_tags = inst.wmes.timetags();
                    if got != prod || &got_tags != tags {
                        return Err(at(format!(
                            "divergence: log fires `{prod} {tags:?}`, engine fired `{got} {got_tags:?}`"
                        )));
                    }
                    fires += 1;
                }
            }
        }
        Ok(fires)
    }
}

impl Engine {
    /// Captures a [`Snapshot`] of this engine's durable state.
    ///
    /// Quiesces the matcher first — *without* flushing staged changes — so
    /// the conflict set reflects exactly the matcher-visible WM (a firing's
    /// own retractions may still be pending inside the matcher right after
    /// a `step`). Staged changes stay staged and are captured as such.
    pub fn snapshot(&mut self) -> Snapshot {
        let report = self.matcher.quiesce();
        self.cs.apply_all(report.cs_changes);
        Snapshot::capture(self)
    }

    /// Restores a snapshot into this engine, which must be *fresh*: built
    /// from the same program (fingerprint-checked) with nothing inserted,
    /// staged, or fired yet. Every matcher works — match state
    /// is reconstructed by re-feeding the matcher-visible WMEs as one
    /// batch and quiescing, then re-marking the fired conflict-set keys.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<()> {
        if self.cycles != 0
            || !self.wm.is_empty()
            || !self.staged.is_empty()
            || !self.cs.is_empty()
            || self.wm.clock() != 1
        {
            return Err(Ops5Error::Runtime(
                "restore requires a fresh engine (no WMEs, stages, or cycles)".into(),
            ));
        }
        let fp = program_fingerprint(&self.prog);
        if snap.fingerprint != fp {
            return Err(Ops5Error::Runtime(format!(
                "snapshot fingerprint {:016x} does not match program {:016x}",
                snap.fingerprint, fp
            )));
        }
        let resolve_class = |symbols: &SymbolTable, prog_classes: &ops5::ClassTable, name: &str| {
            symbols
                .get(name)
                .filter(|c| prog_classes.info(*c).is_some())
                .ok_or_else(|| Ops5Error::Runtime(format!("snapshot names unknown class `{name}`")))
        };
        let staged_adds: HashSet<u64> = snap
            .staged
            .iter()
            .filter(|(s, _)| *s == Sign::Plus)
            .map(|(_, w)| w.tag)
            .collect();
        // Re-feed every matcher-visible WME as one batch: all live WMEs
        // except staged adds, plus the targets of staged deletes (removed
        // from WM but not yet flushed to the matcher).
        let mut init = ChangeBatch::new();
        for sw in &snap.wm {
            let class = resolve_class(&self.prog.symbols, &self.prog.classes, &sw.class)?;
            let fields = sw
                .fields
                .iter()
                .map(|f| f.to_value(&mut self.prog.symbols))
                .collect();
            let w = Wme::new(class, fields, sw.tag);
            if !self.wm.restore_insert(w.clone()) {
                return Err(Ops5Error::Runtime(format!(
                    "snapshot repeats timetag {}",
                    sw.tag
                )));
            }
            if !staged_adds.contains(&sw.tag) {
                init.add(w);
            }
        }
        for (sign, sw) in &snap.staged {
            match sign {
                Sign::Plus => {
                    let w = self.wm.get(sw.tag).cloned().ok_or_else(|| {
                        Ops5Error::Runtime(format!(
                            "staged add of timetag {} missing from snapshot WM",
                            sw.tag
                        ))
                    })?;
                    self.staged.add(w);
                }
                Sign::Minus => {
                    let class = resolve_class(&self.prog.symbols, &self.prog.classes, &sw.class)?;
                    let fields = sw
                        .fields
                        .iter()
                        .map(|f| f.to_value(&mut self.prog.symbols))
                        .collect();
                    let w = Wme::new(class, fields, sw.tag);
                    init.add(w.clone());
                    self.staged.delete(w);
                }
            }
        }
        if !init.is_empty() {
            self.matcher.submit(&init);
        }
        let report = self.matcher.quiesce();
        self.cs.apply_all(report.cs_changes);
        for (prod, tags) in &snap.fired_cs {
            let pid = self.prog.find_production(prod).ok_or_else(|| {
                Ops5Error::Runtime(format!("snapshot names unknown production `{prod}`"))
            })?;
            if !self.cs.mark_fired_key(&(pid, tags.clone())) {
                return Err(Ops5Error::Runtime(format!(
                    "fired entry `{prod} {tags:?}` was not re-derived by the matcher"
                )));
            }
        }
        if snap.clock < self.wm.clock() {
            return Err(Ops5Error::Runtime(format!(
                "snapshot clock {} is behind its highest timetag",
                snap.clock
            )));
        }
        self.wm.set_clock(snap.clock);
        self.cycles = snap.cycles;
        self.halted = snap.halted;
        self.fired_log = snap
            .fired_log
            .iter()
            .map(|(prod, tags)| {
                self.prog
                    .find_production(prod)
                    .map(|pid| (pid, tags.clone()))
                    .ok_or_else(|| {
                        Ops5Error::Runtime(format!("fired log names unknown production `{prod}`"))
                    })
            })
            .collect::<Result<Vec<_>>>()?;
        self.output = snap.output.clone();
        self.line = snap.line.clone();
        Ok(())
    }

    /// Starts journaling: every subsequent `stage` / `stage_retract` /
    /// fired cycle appends a [`LogRecord`]. Idempotent.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(ChangeLog::new());
        }
    }

    /// The change log accumulated since
    /// [`enable_journal`](Self::enable_journal) or the last
    /// [`drain_journal`](Self::drain_journal) /
    /// [`clear_journal`](Self::clear_journal).
    pub fn journal(&self) -> Option<&ChangeLog> {
        self.journal.as_ref()
    }

    /// Takes the accumulated records, leaving the journal enabled and
    /// empty. Returns an empty vec when journaling is off.
    pub fn drain_journal(&mut self) -> Vec<LogRecord> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(&mut j.records),
            None => Vec::new(),
        }
    }

    /// Empties the journal (checkpoint taken), keeping it enabled.
    pub fn clear_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EngineBuilder, MatcherKind};
    use ops5::Value;

    const SRC: &str = "(literalize item n tag)
                       (literalize sum total)
                       (p add (item ^n <n>) (sum ^total <t>)
                          --> (remove 1) (modify 2 ^total (compute <t> + <n>)))
                       (p report (sum ^total <t>) - (item)
                          --> (write sum is <t> (crlf)) (halt))";

    /// Every test runs on vs2, the default matcher, and on col.
    const MATCHERS: [&str; 2] = ["vs2", "col"];

    fn fresh(matcher: &str) -> Engine {
        EngineBuilder::from_source(SRC)
            .unwrap()
            .matcher(MatcherKind::from_name(matcher).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_text_roundtrip_is_exact() {
        for m in MATCHERS {
            let mut eng = fresh(m);
            eng.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            let pi = Value::Float(3.5e-300);
            let sym = eng.sym("weird:sym.2");
            eng.make_wme("item", &[("n", Value::Int(2)), ("tag", pi)])
                .unwrap();
            eng.make_wme("item", &[("n", Value::Int(3)), ("tag", sym)])
                .unwrap();
            eng.run(2).unwrap();
            // Leave something staged so that path serializes too.
            let item = eng.prog.symbols.get("item").unwrap();
            let w = eng.stage(item, vec![Value::Int(9), Value::NIL]).unwrap();
            eng.stage(item, vec![Value::Int(8), Value::NIL]).unwrap();
            eng.stage_retract(w.timetag).unwrap();
            let snap = eng.snapshot();
            let parsed = Snapshot::parse(&snap.to_text()).unwrap();
            assert_eq!(snap, parsed);
        }
    }

    #[test]
    fn restore_reproduces_wm_cs_and_future_behaviour() {
        for m in MATCHERS {
            let mut a = fresh(m);
            a.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            for n in 1..=4 {
                a.make_wme("item", &[("n", Value::Int(n))]).unwrap();
            }
            a.run(2).unwrap();
            let snap = a.snapshot();

            let mut b = fresh(m);
            b.restore(&snap).unwrap();
            assert_eq!(b.cycles(), a.cycles());
            assert_eq!(b.wm().len(), a.wm().len());
            assert_eq!(
                b.conflict_set().sorted_keys(),
                a.conflict_set().sorted_keys()
            );
            // Both engines continue identically to completion.
            let ra = a.run(100).unwrap();
            let rb = b.run(100).unwrap();
            assert_eq!(ra.cycles, rb.cycles);
            assert_eq!(ra.reason, rb.reason);
            assert_eq!(a.output(), b.output());
            let names = |e: &Engine| {
                e.fired_log()
                    .iter()
                    .map(|(p, t)| (e.prog.prod_name(*p).to_string(), t.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(names(&a), names(&b));
        }
    }

    #[test]
    fn restore_refuses_dirty_engine_and_bad_fingerprint() {
        for m in MATCHERS {
            let mut a = fresh(m);
            a.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            let snap = a.snapshot();

            let mut dirty = fresh(m);
            dirty.make_wme("sum", &[("total", Value::Int(1))]).unwrap();
            assert!(dirty.restore(&snap).is_err(), "dirty engine must refuse");

            let mut other = EngineBuilder::from_source("(p r (a ^x 1) --> (halt))")
                .unwrap()
                .build()
                .unwrap();
            let err = other.restore(&snap).unwrap_err().to_string();
            assert!(err.contains("fingerprint"), "{err}");
        }
    }

    #[test]
    fn journal_replays_to_identical_state() {
        for m in MATCHERS {
            let mut a = fresh(m);
            a.enable_journal();
            a.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            let base = a.snapshot(); // checkpoint before any staged traffic
            let item = a.prog.symbols.get("item").unwrap();
            a.stage(item, vec![Value::Int(5), Value::NIL]).unwrap();
            let w = a.stage(item, vec![Value::Int(6), Value::NIL]).unwrap();
            a.stage_retract(w.timetag).unwrap();
            a.step().unwrap();
            a.stage(item, vec![Value::Int(7), Value::NIL]).unwrap();
            a.step().unwrap();
            let log = a.journal().unwrap().clone();
            let reparsed = ChangeLog::parse(&log.to_text()).unwrap();
            assert_eq!(log, reparsed);

            let mut b = fresh(m);
            b.restore(&base).unwrap();
            let fires = reparsed.replay(&mut b).unwrap();
            assert_eq!(fires, 2);
            assert_eq!(b.cycles(), a.cycles());
            assert_eq!(b.wm().clock(), a.wm().clock());
            assert_eq!(
                b.conflict_set().sorted_keys(),
                a.conflict_set().sorted_keys()
            );
            let ra = a.run(100).unwrap();
            let rb = b.run(100).unwrap();
            assert_eq!((ra.cycles, ra.reason), (rb.cycles, rb.reason));
            assert_eq!(a.output(), b.output());
        }
    }

    #[test]
    fn replay_detects_divergence() {
        for m in MATCHERS {
            let mut a = fresh(m);
            a.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            let base = a.snapshot();
            // A log that fires a production the engine cannot fire.
            let log = ChangeLog {
                records: vec![LogRecord::Fire {
                    prod: "add".into(),
                    tags: vec![99, 1],
                }],
            };
            let mut b = fresh(m);
            b.restore(&base).unwrap();
            let err = log.replay(&mut b).unwrap_err().to_string();
            assert!(
                err.contains("quiescent") || err.contains("divergence"),
                "{err}"
            );
        }
    }

    #[test]
    fn snapshot_restores_across_matchers() {
        for m in MATCHERS {
            let mut a = fresh(m);
            a.make_wme("sum", &[("total", Value::Int(0))]).unwrap();
            for n in 1..=3 {
                a.make_wme("item", &[("n", Value::Int(n))]).unwrap();
            }
            a.run(1).unwrap();
            let snap = a.snapshot();
            let final_a = {
                let mut c = fresh(m);
                c.restore(&snap).unwrap();
                c.run(100).unwrap();
                (c.cycles(), c.output().to_vec())
            };
            for kind in [
                MatcherKind::Vs1,
                MatcherKind::Lisp,
                MatcherKind::Psm(psm::PsmConfig::default()),
            ] {
                let mut b = EngineBuilder::from_source(SRC)
                    .unwrap()
                    .matcher(kind)
                    .build()
                    .unwrap();
                b.restore(&snap).unwrap();
                b.run(100).unwrap();
                assert_eq!((b.cycles(), b.output().to_vec()), final_a);
            }
        }
    }
}
