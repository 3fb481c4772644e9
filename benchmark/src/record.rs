//! The benchmark's versioned record: the metric tables every other part
//! of the harness (and `BENCHMARK.json`) agrees on, the JSON a run
//! writes, and the small JSON reader `compare` loads records with.

use fld_bench::perf::HostMeta;
use fld_sim::json::JsonWriter;

use crate::layers::{Metrics, LAYERS};
use crate::measure::{Measured, Summary, SIM_SCALE};
use crate::workloads::Workload;

/// Version of the record and span-log schemas written here.
pub const SCHEMA_VERSION: u64 = 1;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: its unit, direction and regression rule.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Final metric name.
    pub name: &'static str,
    /// Unit; `sim_*` units are simulated, the rest are host-side.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the median two same-seed runs may differ by; `None`
    /// means the metric repeats exactly for a given seed.
    pub bound: Option<f64>,
    /// Whether the metric is a non-zero number on every workload, which
    /// is what `BENCHMARK.json`'s `end_to_end` list may hold.
    pub driver: bool,
}

/// The ten end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, Some(0.25), true),
    e2e("host_ns_per_sim_pkt", "ns", Better::Lower, Some(0.10), true),
    e2e("allocs_per_sim_pkt", "count", Better::Lower, None, true),
    e2e(
        "alloc_bytes_per_sim_pkt",
        "bytes",
        Better::Lower,
        None,
        true,
    ),
    e2e("peak_heap_mib", "MiB", Better::Lower, Some(0.02), true),
    e2e("sim_goodput_gbps", "sim_Gbps", Better::Higher, None, true),
    e2e("sim_rtt_p50_us", "sim_us", Better::Lower, None, false),
    e2e("sim_rtt_p99_us", "sim_us", Better::Lower, None, false),
    e2e("sim_loss_pct", "%", Better::Lower, None, false),
    e2e("ref_err_pct", "%", Better::Lower, None, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    driver: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver,
    }
}

/// Unit and direction of every per-layer metric except the nine
/// `layer.budget_ns.<layer>` entries (see [`per_layer_defs`]).
const PER_LAYER: [(&str, &str, Better); 73] = [
    ("sim.events_per_sim_pkt", "count", Better::Lower),
    ("sim.events_per_host_s", "1/s", Better::Higher),
    ("sim.calendar_churn_ns.d1k", "ns", Better::Lower),
    ("sim.calendar_churn_ns.d500k", "ns", Better::Lower),
    ("sim.calendar_peak_depth", "count", Better::Lower),
    ("sim.coincident_pops", "count", Better::Lower),
    ("sim.phase_frac.pop", "share", Better::Lower),
    ("sim.phase_frac.dispatch", "share", Better::Lower),
    ("sim.phase_frac.sample", "share", Better::Lower),
    ("sim.phase_frac.export", "share", Better::Lower),
    ("sim.phase_frac.other", "share", Better::Lower),
    ("sim.tick_us", "us", Better::Lower),
    ("sim.audit_checks_per_tick", "count", Better::Higher),
    ("sim.audit_violations", "count", Better::Lower),
    ("sim.counter_inc_ns", "ns", Better::Lower),
    ("sim.snapshot_us", "us", Better::Lower),
    ("sim.counter_leaves", "count", Better::Lower),
    ("sim.histogram_record_ns", "ns", Better::Lower),
    ("sim.obs.telemetry_ratio", "ratio", Better::Lower),
    ("sim.obs.recorder_ratio", "ratio", Better::Lower),
    ("sim.obs.prof_ratio", "ratio", Better::Lower),
    ("sim.obs.strict_audit_ratio", "ratio", Better::Lower),
    ("net.build_udp_ns.64", "ns", Better::Lower),
    ("net.build_udp_ns.1500", "ns", Better::Lower),
    ("net.build_udp_allocs", "count", Better::Lower),
    ("net.parse_ns.64", "ns", Better::Lower),
    ("net.parse_ns.1500", "ns", Better::Lower),
    ("net.fragment_ns", "ns", Better::Lower),
    ("net.reassemble_ns", "ns", Better::Lower),
    ("net.vxlan_decap_ns", "ns", Better::Lower),
    ("net.roce_codec_ns", "ns", Better::Lower),
    ("net.toeplitz_ns", "ns", Better::Lower),
    ("cuckoo.lookup_hit_ns", "ns", Better::Lower),
    ("cuckoo.lookup_miss_ns", "ns", Better::Lower),
    ("cuckoo.insert_remove_ns", "ns", Better::Lower),
    ("crypto.zuc_ns_per_byte", "ns", Better::Lower),
    ("crypto.hmac_ns_per_byte", "ns", Better::Lower),
    ("pcie.segment_ns", "ns", Better::Lower),
    ("pcie.fabric_forward_ns", "ns", Better::Lower),
    ("pcie.tlps_per_sim_pkt", "count", Better::Lower),
    ("pcie.wire_bytes_per_sim_pkt", "bytes", Better::Lower),
    ("nic.classify_ns.echo", "ns", Better::Lower),
    ("nic.classify_ns.defrag", "ns", Better::Lower),
    ("nic.classify_ns.rack", "ns", Better::Lower),
    ("nic.rss_ns", "ns", Better::Lower),
    ("nic.police_ns", "ns", Better::Lower),
    ("nic.vf_offer_tx_ns", "ns", Better::Lower),
    ("nic.wqe_compress_ns", "ns", Better::Lower),
    ("nic.wqe_expand_ns", "ns", Better::Lower),
    ("nic.cqe_roundtrip_ns", "ns", Better::Lower),
    ("nic.mprq_cycle_ns", "ns", Better::Lower),
    ("nic.qp_msg_ns", "ns", Better::Lower),
    ("nic.qp_allocs_per_msg", "count", Better::Lower),
    ("nic.eswitch_miss_share", "share", Better::Lower),
    ("nic.policer_drop_share", "share", Better::Lower),
    ("nic.rdma_retransmits", "count", Better::Lower),
    ("core.build_ms", "ms", Better::Lower),
    ("core.fldtx_cycle_ns", "ns", Better::Lower),
    ("core.fldrx_cycle_ns", "ns", Better::Lower),
    ("core.rxring_drop_share", "share", Better::Lower),
    ("core.fabric_drop_share", "share", Better::Lower),
    ("core.blackholed", "count", Better::Lower),
    ("core.boundary_drops", "count", Better::Lower),
    ("core.mttr_us", "sim_us", Better::Lower),
    ("accel.defrag_process_ns", "ns", Better::Lower),
    ("accel.echo_process_ns", "ns", Better::Lower),
    ("accel.jobs", "count", Better::Higher),
    ("accel.stalls", "count", Better::Lower),
    ("workloads.gen_next_ns", "ns", Better::Lower),
    ("workloads.churn_step_ns", "ns", Better::Lower),
    ("workloads.size_sample_ns", "ns", Better::Lower),
    ("layer.unattributed_frac", "share", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];

/// Name, unit and direction of every per-layer metric a traced run emits.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut defs: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    defs.extend(
        LAYERS
            .iter()
            .map(|layer| (format!("layer.budget_ns.{layer}"), "ns", Better::Lower)),
    );
    defs
}

/// One end-to-end value as recorded: `None` where the issue defines the
/// metric as not applicable to the workload.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The median (or the single exact value).
    pub value: Option<f64>,
    /// Order statistics, for host-time metrics.
    pub summary: Option<Summary>,
    /// Samples behind a simulated percentile.
    pub samples: Option<u64>,
}

impl Value {
    fn exact(value: Option<f64>) -> Value {
        Value {
            value,
            summary: None,
            samples: None,
        }
    }

    fn timed(s: Summary) -> Value {
        Value {
            value: Some(s.median),
            summary: Some(s),
            samples: None,
        }
    }
}

/// The ten end-to-end values of one measured workload, in
/// [`END_TO_END`] order.
pub fn end_to_end_values(m: &Measured) -> [Value; 10] {
    let pkts = m.outcome.sim_pkts.max(1) as f64;
    let rtt = m.outcome.rtt_us;
    let percentile = |v: Option<f64>| Value {
        samples: rtt.map(|(_, _, n)| n),
        ..Value::exact(v)
    };
    [
        Value::timed(m.setup_s),
        Value::timed(m.host_ns_per_sim_pkt),
        Value::exact(Some(m.heap.allocs as f64 / pkts)),
        Value::exact(Some(m.heap.bytes as f64 / pkts)),
        Value::exact(Some(m.heap.peak as f64 / (1024.0 * 1024.0))),
        Value::exact(Some(m.outcome.goodput_gbps)),
        percentile(rtt.map(|(p50, _, _)| p50)),
        percentile(rtt.map(|(_, p99, _)| p99)),
        Value::exact(Some(m.outcome.loss_pct)),
        Value::exact(m.outcome.ref_err_pct()),
    ]
}

fn write_host(w: &mut JsonWriter, host: &HostMeta) {
    w.key("host");
    w.begin_object();
    w.field_u64("cores", host.cores as u64);
    w.field_str("rustc", &host.rustc);
    w.field_str("git_sha", &host.git_sha);
    w.field_str("os", host.os);
    w.end_object();
}

fn write_header(w: &mut JsonWriter, kind: &str, seed: u64, host: &HostMeta) {
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("kind", kind);
    w.field_u64("seed", seed);
    w.field_f64("sim_scale", SIM_SCALE);
    w.field_u64("threads", 1);
    write_host(w, host);
}

fn opt_f64(w: &mut JsonWriter, key: &str, v: Option<f64>) {
    w.key(key);
    match v {
        Some(v) => w.f64(v),
        None => w.null(),
    }
}

/// Serialises an untraced run: one entry per workload with its ten
/// end-to-end metrics, failure accounting and `sim_digest`.
pub fn run_record(
    pretty: bool,
    seed: u64,
    seconds: f64,
    host: &HostMeta,
    results: &[Measured],
) -> String {
    let mut w = if pretty {
        JsonWriter::pretty()
    } else {
        JsonWriter::new()
    };
    w.begin_object();
    write_header(&mut w, "run", seed, host);
    w.field_f64("seconds", seconds);
    w.key("workloads");
    w.begin_object();
    for m in results {
        w.key(m.workload.name());
        w.begin_object();
        w.field_str("why", m.workload.why());
        w.field_f64("sim_ms", m.sim.as_secs_f64() * 1e3);
        w.field_u64("reps", m.host_ns_per_sim_pkt.n as u64);
        w.field_u64("ops_attempted", m.ops_attempted);
        w.field_u64("ops_failed", m.ops_failed);
        w.field_str("sim_digest", &format!("{:016x}", m.sim_digest));
        w.key("exact");
        w.bool(m.exact);
        w.field_f64("warmup_rep_s", m.warmup_s);
        w.field_f64("events_per_host_s", m.events_per_host_s());
        w.key("failures");
        w.begin_array();
        for f in &m.failures {
            w.string(f);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (def, v) in END_TO_END.iter().zip(end_to_end_values(m)) {
            w.key(def.name);
            w.begin_object();
            opt_f64(&mut w, "value", v.value);
            w.field_str("unit", def.unit);
            w.field_str("better", def.better.as_str());
            w.key("exact");
            w.bool(def.bound.is_none());
            if let Some(b) = def.bound {
                w.field_f64("bound", b);
            }
            if let Some(s) = v.summary {
                w.field_u64("n", s.n as u64);
                w.field_f64("min", s.min);
                w.field_f64("q1", s.q1);
                w.field_f64("q3", s.q3);
                w.field_f64("max", s.max);
            }
            if let Some(n) = v.samples {
                w.field_u64("samples", n);
            }
            if def.name == "ref_err_pct" && v.value.is_none() {
                w.field_str("note", "unvalidated");
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Serialises a traced run: per workload, every per-layer metric.
pub fn trace_record(seed: u64, host: &HostMeta, results: &[(Workload, Metrics)]) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    write_header(&mut w, "trace", seed, host);
    w.key("workloads");
    w.begin_object();
    for (workload, metrics) in results {
        w.key(workload.name());
        w.begin_object();
        for (name, unit, _) in per_layer_defs() {
            w.key(&name);
            w.begin_object();
            opt_f64(&mut w, "value", metrics.get(&name).copied());
            w.field_str("unit", unit);
            w.end_object();
        }
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The driver's result line: `correct`, `attempted`, `failed` and the
/// named metrics, each with its unit.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool(correct);
    w.field_u64("attempted", attempted);
    w.field_u64("failed", failed);
    w.key("metrics");
    w.begin_object();
    for (name, value, unit) in metrics {
        w.key(name);
        w.begin_object();
        w.field_f64("value", *value);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a whole document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and what was expected there.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("end of document"));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object, in document order.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> String {
        format!("JSON: expected {expected} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(self.err("':'"));
                    }
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("a value"))
            }
            None => Err(self.err("a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("'\"'"));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("UTF-8"));
                }
                Some(b'\\') => {
                    let esc = *self
                        .s
                        .get(self.i + 1)
                        .ok_or_else(|| self.err("an escape"))?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("four hex digits"))?;
                            self.i += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_writer() {
        let line = driver_line(true, 10, 0, &[("a.b".to_string(), 1.5e-3, "ns")]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::num), Some(10.0));
        let m = v.get("metrics").unwrap().get("a.b").unwrap();
        assert_eq!(m.get("value").and_then(Json::num), Some(0.0015));
        assert_eq!(m.get("unit").and_then(Json::str), Some("ns"));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_errors() {
        let v = Json::parse(r#" {"a": [1, -2.5e1, null, {"b": "x\"A\n"}], "c": {}} "#).unwrap();
        let Json::Arr(items) = v.get("a").unwrap() else {
            panic!("not an array")
        };
        assert_eq!(items[1], Json::Num(-25.0));
        assert_eq!(items[2], Json::Null);
        assert_eq!(items[3].get("b").and_then(Json::str), Some("x\"A\n"));
        assert!(v.get("c").unwrap().members().is_empty());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let defs = per_layer_defs();
        assert!(defs.len() <= 128);
        let mut names: Vec<_> = defs.iter().map(|(n, ..)| n.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), defs.len());
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
