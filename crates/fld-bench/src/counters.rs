//! Counter-dump parsing and cross-run diffing.
//!
//! The `--counters` flag on every experiment binary writes a versioned
//! dump (`fld_sim::counters::write_dump`) of one flat `{path: value}`
//! object per instrumented run. This module reads those dumps back and
//! compares two of them counter-by-counter, the way one diffs two
//! `ethtool -S` captures across a driver change. The `counter_diff`
//! binary is a thin CLI over [`parse_dump`] and [`diff`].
//!
//! The parser is deliberately minimal: it understands exactly the
//! document shape `write_dump` emits (an object of scalars and one
//! nested two-level object of integers) and rejects everything else,
//! including dumps stamped with a schema version this build does not
//! know how to interpret.

use std::collections::BTreeMap;

/// One parsed `--counters` dump: the schema version it was written
/// under, the experiment that produced it, and the `{path: value}`
/// counter map of each labeled run, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDump {
    /// `schema_version` field of the document.
    pub schema_version: u64,
    /// `experiment` field of the document.
    pub experiment: String,
    /// `(run label, {counter path: value})`, in document order.
    pub runs: Vec<(String, BTreeMap<String, u64>)>,
}

impl CounterDump {
    /// Looks up one run's counter map by label.
    pub fn run(&self, label: &str) -> Option<&BTreeMap<String, u64>> {
        self.runs.iter().find(|(l, _)| l == label).map(|(_, m)| m)
    }
}

/// Parses a `write_dump` document, rejecting unknown schema versions.
pub fn parse_dump(text: &str) -> Result<CounterDump, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let dump = p.document()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    if dump.schema_version != fld_sim::json::SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {} (this build understands {})",
            dump.schema_version,
            fld_sim::json::SCHEMA_VERSION
        ));
    }
    Ok(dump)
}

/// Cursor over the dump text. Only the productions `write_dump` can
/// emit are implemented; anything else is a parse error.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    /// A string literal: every escape `JsonWriter` emits (`\"`, `\\`,
    /// `\n`, `\r`, `\t`, `\uXXXX`) plus `\/`; unescaped bytes are
    /// decoded as UTF-8.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|e| format!("invalid UTF-8 in string at byte {start}: {e}"))?;
            out.push_str(run);
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the
    /// backslash and ends just past the escape.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let c = match self.bytes.get(at).copied() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self
                    .bytes
                    .get(at + 1..at + 5)
                    .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|hex| std::str::from_utf8(hex).ok())
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                code
            }
            other => return Err(format!("unsupported escape {other:?} at byte {at}")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn integer(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse::<u64>()
            .map_err(|e| format!("integer out of range at byte {start}: {e}"))
    }

    /// `{"path": 123, ...}` — one run's flat counter object.
    fn counter_object(&mut self) -> Result<BTreeMap<String, u64>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.integer()?;
            map.insert(key, value);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                got => {
                    return Err(format!("expected ',' or '}}', found {got:?}"));
                }
            }
        }
    }

    fn document(&mut self) -> Result<CounterDump, String> {
        self.expect(b'{')?;
        let mut schema_version = None;
        let mut experiment = None;
        let mut runs = Vec::new();
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "schema_version" => schema_version = Some(self.integer()?),
                "experiment" => experiment = Some(self.string()?),
                "counters" => {
                    self.expect(b'{')?;
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        loop {
                            let label = self.string()?;
                            self.expect(b':')?;
                            runs.push((label, self.counter_object()?));
                            match self.peek() {
                                Some(b',') => self.pos += 1,
                                Some(b'}') => {
                                    self.pos += 1;
                                    break;
                                }
                                got => {
                                    return Err(format!(
                                        "expected ',' or '}}' in counters, found {got:?}"
                                    ));
                                }
                            }
                        }
                    }
                }
                other => return Err(format!("unexpected key {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                got => return Err(format!("expected ',' or '}}', found {got:?}")),
            }
        }
        Ok(CounterDump {
            schema_version: schema_version.ok_or("missing schema_version")?,
            experiment: experiment.ok_or("missing experiment")?,
            runs,
        })
    }
}

/// Relative-difference tolerances for [`diff`]: a default applied to
/// every counter, overridable per path prefix (longest matching prefix
/// wins, so `--threshold-path faults=0.5` can loosen the inherently
/// noisy fault counters while `port/0` stays exact).
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Tolerance for paths no prefix rule matches.
    pub default: f64,
    /// `(path prefix, tolerance)` overrides.
    pub per_prefix: Vec<(String, f64)>,
}

impl Thresholds {
    /// Exact-match thresholds (any difference is reported).
    pub fn exact() -> Thresholds {
        Thresholds {
            default: 0.0,
            per_prefix: Vec::new(),
        }
    }

    /// Adds a per-prefix override.
    pub fn with_prefix(mut self, prefix: &str, tol: f64) -> Thresholds {
        self.per_prefix.push((prefix.to_string(), tol));
        self
    }

    /// The tolerance governing `path`: the longest matching prefix
    /// override, or the default when none matches.
    pub fn for_path(&self, path: &str) -> f64 {
        self.per_prefix
            .iter()
            .filter(|(p, _)| path.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map_or(self.default, |(_, t)| *t)
    }
}

/// One counter whose relative difference exceeded its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Run label the counter belongs to.
    pub run: String,
    /// Counter path within the run.
    pub path: String,
    /// Value in the first dump (0 when absent there).
    pub a: u64,
    /// Value in the second dump (0 when absent there).
    pub b: u64,
    /// Relative difference `|a - b| / max(a, b)`.
    pub rel: f64,
    /// The tolerance it was held to.
    pub allowed: f64,
}

/// Relative difference between two counts: `|a - b| / max(a, b)`,
/// which is 0 for equal values and 1 when one side is zero.
pub fn relative(a: u64, b: u64) -> f64 {
    if a == b {
        return 0.0;
    }
    let hi = a.max(b) as f64;
    (a.abs_diff(b)) as f64 / hi
}

/// Diffs two dumps run-by-run and counter-by-counter, returning every
/// counter whose relative difference exceeds its [`Thresholds`]
/// tolerance. A counter absent from one side counts as 0 there; run
/// label sets must match exactly (comparing dumps of different shapes
/// is a usage error, not a "diff").
pub fn diff(a: &CounterDump, b: &CounterDump, thr: &Thresholds) -> Result<Vec<DiffEntry>, String> {
    let labels = |d: &CounterDump| d.runs.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>();
    let (la, lb) = (labels(a), labels(b));
    if la != lb {
        return Err(format!("run labels differ: {la:?} vs {lb:?}"));
    }
    let mut out = Vec::new();
    for (label, ma) in &a.runs {
        let mb = b.run(label).expect("labels verified equal");
        let mut paths: Vec<&String> = ma.keys().chain(mb.keys()).collect();
        paths.sort();
        paths.dedup();
        for path in paths {
            let va = ma.get(path).copied().unwrap_or(0);
            let vb = mb.get(path).copied().unwrap_or(0);
            let rel = relative(va, vb);
            let allowed = thr.for_path(path);
            if rel > allowed {
                out.push(DiffEntry {
                    run: label.clone(),
                    path: path.clone(),
                    a: va,
                    b: vb,
                    rel,
                    allowed,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::counters::{write_dump, CounterTree};

    fn dump_with(pairs: &[(&str, u64)]) -> String {
        let tree = CounterTree::new();
        for (path, v) in pairs {
            tree.counter(path).add(*v);
        }
        write_dump("test", &[("run".to_string(), tree.snapshot())])
    }

    #[test]
    fn round_trips_a_write_dump_document() {
        let text = dump_with(&[("port/0/rx/packets", 41), ("qp/256/tx_packets", 7)]);
        let dump = parse_dump(&text).expect("parses");
        assert_eq!(dump.schema_version, fld_sim::json::SCHEMA_VERSION);
        assert_eq!(dump.experiment, "test");
        assert_eq!(dump.runs.len(), 1);
        let run = dump.run("run").expect("run label present");
        assert_eq!(run.get("port/0/rx/packets"), Some(&41));
        assert_eq!(run.get("qp/256/tx_packets"), Some(&7));
    }

    #[test]
    fn rejects_unknown_schema_versions_and_malformed_documents() {
        let good = dump_with(&[("a/b", 1)]);
        let bad = good.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = parse_dump(&bad).unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
        assert!(parse_dump("{\"counters\": {}}").is_err());
        assert!(parse_dump("not json").is_err());
        assert!(parse_dump(&format!("{good} trailing")).is_err());
    }

    #[test]
    fn identical_dumps_diff_to_nothing() {
        let text = dump_with(&[("port/0/rx/packets", 41), ("faults/fld/drop", 3)]);
        let d = parse_dump(&text).unwrap();
        assert_eq!(diff(&d, &d, &Thresholds::exact()).unwrap(), Vec::new());
    }

    #[test]
    fn per_prefix_thresholds_override_the_default() {
        let a = parse_dump(&dump_with(&[
            ("port/0/rx/packets", 100),
            ("faults/fld/drop", 10),
        ]))
        .unwrap();
        let b = parse_dump(&dump_with(&[
            ("port/0/rx/packets", 100),
            ("faults/fld/drop", 14),
        ]))
        .unwrap();
        // Exact thresholds flag the fault counter...
        let exceeded = diff(&a, &b, &Thresholds::exact()).unwrap();
        assert_eq!(exceeded.len(), 1);
        assert_eq!(exceeded[0].path, "faults/fld/drop");
        assert_eq!((exceeded[0].a, exceeded[0].b), (10, 14));
        // ...a loose per-prefix override forgives it.
        let thr = Thresholds::exact().with_prefix("faults", 0.5);
        assert_eq!(diff(&a, &b, &thr).unwrap(), Vec::new());
        // Longest prefix wins over a shorter, looser one.
        let thr = Thresholds {
            default: 1.0,
            ..Thresholds::exact()
        }
        .with_prefix("faults/fld/drop", 0.1);
        assert_eq!(diff(&a, &b, &thr).unwrap().len(), 1);
    }

    #[test]
    fn missing_counters_count_as_zero() {
        let a = parse_dump(&dump_with(&[("port/0/rx/packets", 5)])).unwrap();
        let b = parse_dump(&dump_with(&[("port/0/tx/packets", 5)])).unwrap();
        let exceeded = diff(&a, &b, &Thresholds::exact()).unwrap();
        assert_eq!(exceeded.len(), 2);
        assert!(exceeded.iter().all(|e| e.rel == 1.0));
    }

    #[test]
    fn mismatched_run_labels_are_a_usage_error() {
        let tree = CounterTree::new();
        tree.counter("a/b").inc();
        let one = write_dump("t", &[("x".to_string(), tree.snapshot())]);
        let two = write_dump("t", &[("y".to_string(), tree.snapshot())]);
        let (one, two) = (parse_dump(&one).unwrap(), parse_dump(&two).unwrap());
        assert!(diff(&one, &two, &Thresholds::exact()).is_err());
    }
}
