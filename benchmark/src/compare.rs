//! `compare A.json B.json`: do two run records agree?
//!
//! Per workload × metric: an exact metric must be identical; a bounded
//! metric fails only if the medians differ by more than its bound *and*
//! by more than the two runs' own inter-quartile spread. When that
//! spread itself exceeds the bound the verdict is "unresolved", never
//! "unchanged".

use crate::record::Json;

/// What `compare` concluded about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical values.
    Identical,
    /// Bounded metric, medians within the bound.
    Within,
    /// The runs' own spread exceeds the bound: nothing can be concluded.
    Unresolved,
    /// Exact metric differs, or a bounded one moved beyond bound and spread.
    Fail,
}

struct Side {
    value: Option<f64>,
    iqr: f64,
}

fn side(metric: &Json) -> Side {
    let num = |k: &str| metric.get(k).and_then(Json::num);
    Side {
        value: num("value"),
        iqr: match (num("q1"), num("q3")) {
            (Some(q1), Some(q3)) => q3 - q1,
            _ => 0.0,
        },
    }
}

/// Judges one metric of one workload from its two recorded entries.
pub fn judge(a: &Json, b: &Json) -> Verdict {
    let (sa, sb) = (side(a), side(b));
    let bound = a.get("bound").and_then(Json::num);
    match (sa.value, sb.value, bound) {
        (None, None, _) => Verdict::Identical,
        (Some(x), Some(y), None) if x == y => Verdict::Identical,
        (Some(x), Some(y), Some(bound)) => {
            let scale = x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let diff = (x - y).abs();
            let spread = sa.iqr.max(sb.iqr);
            if spread > bound * scale {
                Verdict::Unresolved
            } else if diff > bound * scale && diff > spread {
                Verdict::Fail
            } else {
                Verdict::Within
            }
        }
        _ => Verdict::Fail,
    }
}

/// Compares two run records; returns the printable report and whether
/// they agree.
///
/// # Errors
///
/// Fails when a record is not a run record of this schema.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (label, r) in [("first", a), ("second", b)] {
        let version = r.get("schema_version").and_then(Json::num);
        if version != Some(crate::record::SCHEMA_VERSION as f64) {
            return Err(format!(
                "{label} record: unknown schema_version {version:?}"
            ));
        }
        if r.get("kind").and_then(Json::str) != Some("run") {
            return Err(format!("{label} record is not an untraced run"));
        }
    }
    let mut out = String::new();
    let mut ok = true;
    if a.get("seed") != b.get("seed") {
        out.push_str("note: the records used different seeds; exact metrics will differ\n");
    }
    let workloads = a.get("workloads").ok_or("first record has no workloads")?;
    for (name, wa) in workloads.members() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            out.push_str(&format!("{name}: FAIL missing from the second record\n"));
            ok = false;
            continue;
        };
        for (label, w) in [("first", wa), ("second", wb)] {
            if w.get("ops_failed").and_then(Json::num) != Some(0.0) {
                out.push_str(&format!(
                    "{name}: FAIL the {label} record has failed operations\n"
                ));
                ok = false;
            }
        }
        if wa.get("sim_digest") != wb.get("sim_digest") {
            out.push_str(&format!("{name}: FAIL sim_digest differs\n"));
            ok = false;
        }
        let metrics = wa.get("metrics").ok_or("workload entry has no metrics")?;
        for (metric, ma) in metrics.members() {
            let Some(mb) = wb.get("metrics").and_then(|m| m.get(metric)) else {
                out.push_str(&format!(
                    "{name} {metric}: FAIL missing from the second record\n"
                ));
                ok = false;
                continue;
            };
            let verdict = judge(ma, mb);
            let show = |m: &Json| {
                m.get("value")
                    .and_then(Json::num)
                    .map_or("null".to_string(), |v| format!("{v:.6}"))
            };
            let word = match verdict {
                Verdict::Identical => "identical",
                Verdict::Within => "within bound",
                Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                Verdict::Fail => {
                    ok = false;
                    "FAIL"
                }
            };
            out.push_str(&format!(
                "{name:<13} {metric:<24} {:>16} {:>16}  {word}\n",
                show(ma),
                show(mb)
            ));
        }
    }
    out.push_str(if ok {
        "compare: the two records agree\n"
    } else {
        "compare: the two records DISAGREE\n"
    });
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: &str, bound: Option<f64>, q: Option<(f64, f64)>) -> Json {
        let mut s = format!("{{\"value\": {value}");
        if let Some(b) = bound {
            s.push_str(&format!(", \"bound\": {b}"));
        }
        if let Some((q1, q3)) = q {
            s.push_str(&format!(", \"q1\": {q1}, \"q3\": {q3}"));
        }
        s.push('}');
        Json::parse(&s).unwrap()
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit() {
        let a = metric("1.25", None, None);
        assert_eq!(judge(&a, &metric("1.25", None, None)), Verdict::Identical);
        assert_eq!(judge(&a, &metric("1.2500001", None, None)), Verdict::Fail);
        let null = metric("null", None, None);
        assert_eq!(judge(&null, &null), Verdict::Identical);
        assert_eq!(judge(&a, &null), Verdict::Fail);
    }

    #[test]
    fn bounded_metrics_need_to_clear_bound_and_spread() {
        let a = metric("100", Some(0.1), Some((99.0, 101.0)));
        assert_eq!(
            judge(&a, &metric("108", Some(0.1), Some((107.0, 109.0)))),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &metric("115", Some(0.1), Some((114.0, 116.0)))),
            Verdict::Fail
        );
        // A spread wider than the bound settles nothing.
        assert_eq!(
            judge(&a, &metric("115", Some(0.1), Some((100.0, 130.0)))),
            Verdict::Unresolved
        );
    }
}
