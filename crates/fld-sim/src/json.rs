//! A minimal streaming JSON writer.
//!
//! The telemetry exporters ([`crate::metrics`], [`crate::trace`]) emit
//! JSON documents — Chrome trace-event files and metrics snapshots — and
//! the build environment carries no serde. This writer covers exactly
//! what exporters need: objects, arrays, strings with correct escaping,
//! integers, finite floats, and an optional pretty mode.
//!
//! # Examples
//!
//! ```
//! use fld_sim::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name");
//! w.string("fld");
//! w.key("drops");
//! w.u64(3);
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"fld","drops":3}"#);
//! ```

/// Version stamped into every JSON artifact the workspace writes
/// (`--json` reports, `--timeline` documents, `--prof` profiles,
/// `--counters` dumps). Readers that consume these artifacts across
/// runs — `counter_diff` — reject a document carrying a different
/// version instead of misreading it.
/// Bump on any breaking change to an artifact's shape.
pub const SCHEMA_VERSION: u64 = 1;

/// A streaming JSON writer with automatic comma placement.
///
/// Call order is the document order: `begin_object`/`begin_array` open
/// containers, `key` names the next value inside an object, and the value
/// methods emit scalars. The writer tracks nesting so callers never emit
/// commas or braces themselves.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it holds an element (so
    /// the next element is preceded by a comma).
    stack: Vec<bool>,
    /// Set between `key` and its value: suppresses the comma/newline that
    /// would otherwise precede the value.
    after_key: bool,
    /// `Some(indent)` in pretty mode.
    pretty: Option<usize>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// Creates a compact (single-line) writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
            after_key: false,
            pretty: None,
        }
    }

    /// Creates a pretty-printing writer with two-space indentation.
    pub fn pretty() -> Self {
        JsonWriter {
            pretty: Some(2),
            ..JsonWriter::new()
        }
    }

    /// Consumes the writer and returns the document.
    ///
    /// # Panics
    ///
    /// Panics if any container is still open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn newline_indent(&mut self) {
        if let Some(indent) = self.pretty {
            self.out.push('\n');
            for _ in 0..self.stack.len() * indent {
                self.out.push(' ');
            }
        }
    }

    /// Comma/indent bookkeeping before any element (key or array value).
    fn pre_element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(top) = self.stack.last_mut() {
            let had_prior = *top;
            *top = true;
            if had_prior {
                self.out.push(',');
            }
            self.newline_indent();
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.pre_element();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    ///
    /// # Panics
    ///
    /// Panics if no container is open.
    pub fn end_object(&mut self) {
        let had_elements = self.stack.pop().expect("end_object with no open container");
        if had_elements {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.pre_element();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    ///
    /// # Panics
    ///
    /// Panics if no container is open.
    pub fn end_array(&mut self) {
        let had_elements = self.stack.pop().expect("end_array with no open container");
        if had_elements {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Emits an object key; the next call must emit its value.
    pub fn key(&mut self, k: &str) {
        self.pre_element();
        self.write_escaped(k);
        self.out.push(':');
        if self.pretty.is_some() {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    /// Emits a string value.
    pub fn string(&mut self, v: &str) {
        self.pre_element();
        self.write_escaped(v);
    }

    /// Emits an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.pre_element();
        self.out.push_str(&itoa_u64(v));
    }

    /// Emits a float value. Non-finite floats become `null` (JSON has no
    /// NaN/Infinity).
    pub fn f64(&mut self, v: f64) {
        self.pre_element();
        if v.is_finite() {
            // `{v}` never produces exponent-free invalid JSON: Rust's
            // float Display always includes a leading digit, and its
            // `e`-notation (e.g. `1e300`) is valid JSON.
            let s = format!("{v}");
            self.out.push_str(&s);
        } else {
            self.out.push_str("null");
        }
    }

    /// Emits a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_element();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emits `null`.
    pub fn null(&mut self) {
        self.pre_element();
        self.out.push_str("null");
    }

    /// Convenience: `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Convenience: `key` + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// Convenience: `key` + float value.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

fn itoa_u64(v: u64) -> String {
    // Via Display; a dedicated buffer is not worth it at telemetry rates.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("list");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.begin_object();
        w.field_str("k", "v");
        w.end_object();
        w.end_array();
        w.field_f64("pi", 3.5);
        w.key("none");
        w.null();
        w.key("yes");
        w.bool(true);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"list":[1,2,{"k":"v"}],"pi":3.5,"none":null,"yes":true}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn negative_and_nonfinite_numbers() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(-42.0);
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[-42,null,null]");
    }

    #[test]
    fn pretty_mode_indents() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("a", 1);
        w.key("b");
        w.begin_array();
        w.u64(2);
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("o");
        w.begin_object();
        w.end_object();
        w.key("a");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"o\": {},\n  \"a\": []\n}");
    }

    #[test]
    #[should_panic]
    fn unclosed_container_panics() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.finish();
    }
}
