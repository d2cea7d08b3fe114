//! The RTLFixer repository benchmark.
//!
//! Three workloads, each loading a different layer of the system:
//!
//! * `syntax-repair` — the Table 1 grid over VerilogEval-syntax
//!   ([`batch`]);
//! * `generate-check-fix` — the Table 2 pipeline over VerilogEval Human
//!   and Machine ([`batch`]);
//! * `serve-learning` — an open-loop request schedule into an in-process
//!   `rtlfixer_serve::Daemon` with distillation on ([`serve`]).
//!
//! The benchmark measures from outside: it calls the crates' public
//! experiment functions and building blocks and changes no crate. Every timed
//! run happens in a fresh child process (the artifact caches are
//! process-wide and users pay them cold on every binary run); children
//! report back one [`Record`] line. A separate traced replay records
//! [`spans`] around the public calls and yields per-layer self time.
//! `WORKLOADS.md` records why each workload exists.

pub mod batch;
pub mod pace;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod timed;

use std::collections::BTreeMap;

use serde::ser::Content;
use serde_json::Value;

/// The seed whose digests and fix rates `expected.json` records.
pub const DEFAULT_SEED: u64 = 0;

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["syntax-repair", "generate-check-fix", "serve-learning"];

/// Marker that starts a child's report line on its standard output.
const RECORD_MARK: &str = "perfbench-record ";

/// A flat key → value report a child process prints for its parent.
/// Values are numbers or short tokens (hex digests); keys and values never
/// hold spaces or `=`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(BTreeMap<String, String>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a numeric field, rendered with all its digits.
    pub fn num(&mut self, key: &str, value: f64) {
        self.0.insert(key.to_owned(), format!("{value:?}"));
    }

    /// Sets a text field.
    pub fn text(&mut self, key: &str, value: &str) {
        debug_assert!(!value.contains([' ', '=']), "record values are single tokens");
        self.0.insert(key.to_owned(), value.to_owned());
    }

    /// A numeric field.
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("child report lacks `{key}`"))?
            .parse()
            .map_err(|_| format!("child report field `{key}` is not a number"))
    }

    /// A text field.
    pub fn get_text(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("child report lacks `{key}`"))
    }

    /// Copies every field of `other` in, replacing fields of equal name.
    pub fn extend(&mut self, other: &Record) {
        self.0.extend(other.0.iter().map(|(k, v)| (k.clone(), v.clone())));
    }

    /// The report line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{RECORD_MARK}{}", fields.join(" "))
    }

    /// Finds and parses the report line in a child's standard output.
    pub fn parse(stdout: &str) -> Result<Record, String> {
        let line = stdout
            .lines()
            .rev()
            .find_map(|line| line.strip_prefix(RECORD_MARK))
            .ok_or("child printed no report line")?;
        let mut record = Record::new();
        for field in line.split(' ').filter(|f| !f.is_empty()) {
            let (key, value) = field.split_once('=').ok_or("malformed report field")?;
            record.0.insert(key.to_owned(), value.to_owned());
        }
        Ok(record)
    }
}

/// The 128-bit digest token used for every output check.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:032x}", rtlfixer_cache::fingerprint128(bytes))
}

/// The string at `key` of a JSON object.
pub fn json_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match &value.get(key)?.0 {
        Content::Str(text) => Some(text),
        _ => None,
    }
}

/// The boolean at `key` of a JSON object.
pub fn json_bool(value: &Value, key: &str) -> Option<bool> {
    match value.get(key)?.0 {
        Content::Bool(flag) => Some(flag),
        _ => None,
    }
}

/// What `expected.json` records for one workload at [`DEFAULT_SEED`].
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Digest of verdicts and fix outcomes.
    pub digest: String,
    /// Fix rate (paper Eq. 1).
    pub fix_rate: f64,
    /// pass@1 after fixing (paper Eq. 2).
    pub pass1_fixed: f64,
    /// The `--seconds` the values hold for, when the workload's inputs
    /// depend on it (the serve plan's length does).
    pub seconds: Option<u64>,
}

/// The recorded expectations for `workload`, read from `expected.json`
/// (compiled in, so the checks do not depend on the working directory).
pub fn expected(workload: &str) -> Result<Expected, String> {
    let table: Value = serde_json::from_str(include_str!("../expected.json"))
        .map_err(|e| format!("expected.json: {e}"))?;
    let entry = table.get(workload).ok_or_else(|| format!("expected.json lacks `{workload}`"))?;
    let number = |key: &str| {
        entry[key].as_f64().ok_or_else(|| format!("expected.json: `{workload}.{key}` missing"))
    };
    Ok(Expected {
        digest: json_str(entry, "digest")
            .ok_or_else(|| format!("expected.json: `{workload}.digest` missing"))?
            .to_owned(),
        fix_rate: number("fix_rate")?,
        pass1_fixed: number("pass1_fixed")?,
        seconds: entry["seconds"].as_u64(),
    })
}

/// Names every `RTLFIXER_*` variable in the environment. Timed runs
/// require none: they would switch faults, telemetry, tracing or a kill
/// switch on.
pub fn rtlfixer_env() -> Vec<String> {
    let mut names: Vec<String> =
        std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()).collect();
    names.retain(|name| name.starts_with("RTLFIXER_"));
    names.sort();
    names
}

/// Worker count of the batch workloads' untraced runs: the machine's
/// available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let mut record = Record::new();
        record.num("wall_s", 1.25);
        record.num("tiny", 1e-7);
        record.text("digest", "00ff");
        let parsed = Record::parse(&format!("noise\n{}\n", record.render())).unwrap();
        assert_eq!(parsed, record);
        assert_eq!(parsed.get("wall_s").unwrap(), 1.25);
        assert_eq!(parsed.get("tiny").unwrap(), 1e-7);
        assert_eq!(parsed.get_text("digest").unwrap(), "00ff");
        assert!(parsed.get("absent").is_err());
        assert!(Record::parse("no report").is_err());
    }

    #[test]
    fn every_workload_has_expectations() {
        for workload in WORKLOADS {
            let expected = expected(workload).unwrap();
            assert_eq!(expected.digest.len(), 32, "{workload}");
        }
    }
}
