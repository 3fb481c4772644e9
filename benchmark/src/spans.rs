//! Harness-side spans: name, start, end and the span that caused each,
//! kept in memory and written out when the benchmark ends. They wrap the
//! calls into the simulator from outside; nothing inside it is touched.

use std::time::Instant;

use fld_sim::json::JsonWriter;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span log of one benchmark process. Disabled logs record nothing,
/// so the untraced measurement carries no tracing cost.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Creates a log; a disabled one ignores every call.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` and returns its id.
    pub fn enter(&mut self, name: &str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[id];
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Serialises the log: one object per span with its id, parent,
    /// bounds and self time (ns since the log was created).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", crate::record::SCHEMA_VERSION);
        w.key("spans");
        w.begin_array();
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_u64("id", id as u64);
            w.key("parent");
            match s.parent {
                Some(p) => w.u64(p as u64),
                None => w.null(),
            }
            w.field_str("name", &s.name);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.field_u64("self_ns", self.self_ns(id));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let root = s.enter("root", None);
        let child = s.enter("child", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(child);
        s.exit(root);
        assert!(s.self_ns(child) >= 2_000_000);
        assert!(s.self_ns(root) < s.self_ns(child));
        assert!(s.to_json().contains("\"name\": \"child\""));
    }

    #[test]
    fn disabled_log_stays_empty() {
        let mut s = Spans::new(false);
        let id = s.enter("x", None);
        s.exit(id);
        assert!(!s.to_json().contains("\"name\""));
    }
}
