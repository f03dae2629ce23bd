//! What a pass hands back, and how it is printed.

use crate::spans::Span;
use crate::stats::Summary;

/// One reported metric: the value `BENCHMARK.json` names plus the
/// distribution behind it.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
    /// Free-form qualifier (supported tail percentile, clamped onion
    /// difference, ...). Empty when there is nothing to qualify.
    pub note: String,
}

impl Row {
    /// A metric whose value is the median of `samples`.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Row {
        let summary = Summary::of(samples).unwrap_or_else(|| Summary::single(0.0));
        Row {
            name: name.into(),
            unit,
            value: summary.median,
            summary,
            note: String::new(),
        }
    }

    /// A single measurement or counter.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Row {
        Row {
            name: name.into(),
            unit,
            value,
            summary: Summary::single(value),
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Row {
        self.note = note.into();
        self
    }
}

/// The outcome of one pass (end-to-end or traced) over one workload.
#[derive(Default)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Operations checked (engine runs validated, replies compared).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the log.
    pub failures: Vec<String>,
    /// Input sizes and work counts for the run record.
    pub sizes: Vec<(&'static str, u64)>,
    /// Extra report lines (span totals by name), printed after the rows.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not tied to a counted attempt.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Folds another pass's checks and spans into this one (its rows and
    /// sizes are the caller's to pick from first).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        crate::spans::merge(&mut self.spans, other.spans);
    }

    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Where, when and with what a run was made, so two outputs are comparable
/// or visibly not.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub git: String,
    pub rustc: String,
    pub nproc: usize,
    /// `match_processes x queues` of the direct workloads' psm matcher.
    pub psm: String,
    pub conns: usize,
    pub workers: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Record {
    pub fn git_sha() -> String {
        // The driver's checkout is not a repository; say so instead of failing.
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into())
    }

    pub fn rustc_version() -> String {
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
    }

    fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("traced", self.traced.to_string()),
            ("smoke", self.smoke.to_string()),
            ("git", self.git.clone()),
            ("rustc", self.rustc.clone()),
            ("nproc", self.nproc.to_string()),
            ("psm", self.psm.clone()),
            ("conns", self.conns.to_string()),
            ("workers", self.workers.to_string()),
        ]
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number that keeps every digit measured; non-finite values (which
/// JSON cannot carry) become 0 and are caught by the `correct` flag.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The human-readable report. Each `metric` line is also what
/// `--check-repeat` parses back: `metric <name> <value> <unit> q1=.. q3=..`.
pub fn print_human(rec: &Record, out: &Outcome) {
    let head: Vec<String> = rec
        .pairs()
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("# ledger {}", head.join(" "));
    let sizes: Vec<String> = out.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# inputs {}", sizes.join(" "));
    for r in &out.rows {
        let s = &r.summary;
        println!(
            "metric {} {} {} q1={} q3={} min={} max={} n={}{}",
            r.name,
            json_num(r.value),
            r.unit,
            json_num(s.q1),
            json_num(s.q3),
            json_num(s.min),
            json_num(s.max),
            s.n,
            if r.note.is_empty() {
                String::new()
            } else {
                format!("  # {}", r.note)
            }
        );
    }
    for n in &out.notes {
        println!("# {n}");
    }
    println!(
        "# checks attempted={} failed={} failed_share={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for f in &out.failures {
        println!("# FAILED {f}");
    }
}

/// The driver's contract: one JSON object, last line of stdout, exactly the
/// keys `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .rows
        .iter()
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&r.name),
                json_num(r.value),
                json_str(r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        is_correct(out),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Correct means: something was checked, nothing failed, and every value is
/// a finite number.
pub fn is_correct(out: &Outcome) -> bool {
    out.attempted > 0 && out.failed == 0 && out.rows.iter().all(|r| r.value.is_finite())
}

/// The full record for `--json PATH`: run record, input sizes, and every
/// row with its distribution.
pub fn full_json(rec: &Record, out: &Outcome) -> String {
    let mut s = String::from("{\n  \"record\": {");
    let pairs: Vec<String> = rec
        .pairs()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    s.push_str(&pairs.join(", "));
    s.push_str("},\n  \"inputs\": {");
    let sizes: Vec<String> = out
        .sizes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    s.push_str(&sizes.join(", "));
    s.push_str(&format!(
        "}},\n  \"correct\": {}, \"attempted\": {}, \"failed\": {},\n  \"rows\": [\n",
        is_correct(out),
        out.attempted,
        out.failed
    ));
    for (i, r) in out.rows.iter().enumerate() {
        let q = &r.summary;
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"note\": {}}}{}\n",
            json_str(&r.name),
            json_str(r.unit),
            json_num(r.value),
            q.n,
            json_num(q.min),
            json_num(q.q1),
            json_num(q.median),
            json_num(q.q3),
            json_num(q.max),
            json_str(&r.note),
            if i + 1 == out.rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.rows
            .push(Row::median("cmd_p50_us", "us", &[3.0, 1.0, 2.0]));
        out.rows.push(Row::single("setup_s", "s", 0.25));
        out.check(true, String::new);
        let line = result_line(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"cmd_p50_us\": {\"value\": 2, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn any_failure_or_non_finite_value_is_incorrect() {
        let mut out = Outcome::default();
        assert!(!is_correct(&out), "nothing attempted is not a pass");
        out.check(true, String::new);
        assert!(is_correct(&out));
        out.rows.push(Row::single("x", "s", f64::NAN));
        assert!(!is_correct(&out));
        assert!(result_line(&out).contains("\"value\": 0,"));
        out.rows.clear();
        out.check(false, || "digest mismatch".into());
        assert!(!is_correct(&out));
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures, vec!["digest mismatch".to_string()]);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
