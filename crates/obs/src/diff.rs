//! Structural comparison of two JSON artifacts under a tolerance policy.
//!
//! `sinrcolor diff` (and the CI bench gate) compares a *current* document
//! against a committed *baseline* — both arbitrary nested JSON parsed with
//! [`parse_value`] — and reports every
//! difference the policy does not excuse. A policy is itself a small JSON
//! document (kind `diff_policy`, see `docs/OBS_SCHEMA.md`): an ordered
//! rule list mapping path patterns to tolerances.
//!
//! Paths are `/`-separated so dotted metric keys stay single segments
//! (`metrics/sim.slots/value`); array elements use their index as a
//! segment. In a pattern, `*` matches exactly one segment and a trailing
//! `**` matches any remainder. The first matching rule wins; paths no rule
//! matches are compared exactly.

use crate::json::{parse_value, Json, JsonValue};
use std::fmt::Write as _;

/// How a matched path is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Skip the path (and everything under it) entirely.
    Ignore,
    /// Values must be equal (the default for unmatched paths).
    Exact,
    /// Numbers may differ by at most this absolute amount.
    Abs(f64),
    /// Numbers may differ by at most this fraction of the baseline value.
    Rel(f64),
}

/// One policy rule: a path pattern and the tolerance it grants.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRule {
    /// `/`-separated pattern; `*` matches one segment, trailing `**` the rest.
    pub path: String,
    /// Tolerance applied where the pattern matches.
    pub tolerance: Tolerance,
}

/// An ordered rule list; the first rule whose pattern matches a path wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffPolicy {
    /// The rules, in priority order.
    pub rules: Vec<DiffRule>,
}

impl DiffPolicy {
    /// A policy with no rules: everything compares exactly.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses a `diff_policy` JSON document. Errors are human-readable
    /// one-liners naming the offending rule.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_value(text).ok_or("policy is not valid JSON")?;
        if let Some(kind) = doc.get("kind").and_then(Json::as_str) {
            if kind != "diff_policy" {
                return Err(format!(
                    "policy kind is \"{kind}\", expected \"diff_policy\""
                ));
            }
        }
        let rules_json = doc
            .get("rules")
            .ok_or("policy has no \"rules\" array")?
            .as_array()
            .ok_or("policy \"rules\" is not an array")?;
        let mut rules = Vec::with_capacity(rules_json.len());
        for (i, rule) in rules_json.iter().enumerate() {
            let path = rule
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("rule {i}: missing string field \"path\""))?;
            let mode = rule
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("rule {i} ({path}): missing string field \"mode\""))?;
            let value = rule.get("value").and_then(Json::as_f64);
            let tolerance = match (mode, value) {
                ("ignore", _) => Tolerance::Ignore,
                ("exact", _) => Tolerance::Exact,
                ("abs", Some(v)) if v >= 0.0 => Tolerance::Abs(v),
                ("rel", Some(v)) if v >= 0.0 => Tolerance::Rel(v),
                ("abs" | "rel", _) => {
                    return Err(format!(
                        "rule {i} ({path}): mode \"{mode}\" needs a non-negative \
                         numeric \"value\""
                    ));
                }
                _ => {
                    return Err(format!(
                        "rule {i} ({path}): unknown mode \"{mode}\" \
                         (expected ignore|exact|abs|rel)"
                    ));
                }
            };
            rules.push(DiffRule {
                path: path.to_string(),
                tolerance,
            });
        }
        Ok(DiffPolicy { rules })
    }

    /// The tolerance for `path`: first matching rule, else [`Tolerance::Exact`].
    pub fn lookup(&self, path: &str) -> Tolerance {
        self.rules
            .iter()
            .find(|r| pattern_matches(&r.path, path))
            .map_or(Tolerance::Exact, |r| r.tolerance)
    }
}

fn pattern_matches(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    let mut i = 0;
    for (idx, p) in pat.iter().enumerate() {
        if *p == "**" && idx == pat.len() - 1 {
            return true;
        }
        match segs.get(i) {
            Some(s) if *p == "*" || p == s => i += 1,
            _ => return false,
        }
    }
    i == segs.len()
}

/// One observed difference.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// `/`-separated path of the differing node.
    pub path: String,
    /// Finding class: `value`, `type`, `added`, `removed`, or `length`.
    pub kind: &'static str,
    /// Human-readable description of the difference.
    pub detail: String,
}

/// Compares `current` against `baseline` under `policy`, returning every
/// unexcused difference (empty = the documents agree within tolerance).
pub fn diff_documents(baseline: &Json, current: &Json, policy: &DiffPolicy) -> Vec<DiffFinding> {
    let mut findings = Vec::new();
    walk(&mut String::new(), baseline, current, policy, &mut findings);
    findings
}

fn walk(
    path: &mut String,
    baseline: &Json,
    current: &Json,
    policy: &DiffPolicy,
    findings: &mut Vec<DiffFinding>,
) {
    let tol = policy.lookup(path);
    if tol == Tolerance::Ignore {
        return;
    }
    match (baseline, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (key, bv) in b {
                let len = path.len();
                push_segment(path, key);
                match c.iter().find(|(k, _)| k == key) {
                    Some((_, cv)) => walk(path, bv, cv, policy, findings),
                    None => {
                        if policy.lookup(path) != Tolerance::Ignore {
                            findings.push(DiffFinding {
                                path: path.clone(),
                                kind: "removed",
                                detail: "present in baseline, missing in current".into(),
                            });
                        }
                    }
                }
                path.truncate(len);
            }
            for (key, _) in c {
                if b.iter().any(|(k, _)| k == key) {
                    continue;
                }
                let len = path.len();
                push_segment(path, key);
                if policy.lookup(path) != Tolerance::Ignore {
                    findings.push(DiffFinding {
                        path: path.clone(),
                        kind: "added",
                        detail: "missing in baseline, present in current".into(),
                    });
                }
                path.truncate(len);
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                findings.push(DiffFinding {
                    path: path.clone(),
                    kind: "length",
                    detail: format!("baseline has {} elements, current has {}", b.len(), c.len()),
                });
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                let len = path.len();
                if !path.is_empty() {
                    path.push('/');
                }
                let _ = write!(path, "{i}");
                walk(path, bv, cv, policy, findings);
                path.truncate(len);
            }
        }
        _ => compare_leaf(path, baseline, current, tol, findings),
    }
}

fn push_segment(path: &mut String, key: &str) {
    if !path.is_empty() {
        path.push('/');
    }
    path.push_str(key);
}

fn compare_leaf(
    path: &str,
    baseline: &Json,
    current: &Json,
    tol: Tolerance,
    findings: &mut Vec<DiffFinding>,
) {
    if let (Some(b), Some(c)) = (baseline.as_f64(), current.as_f64()) {
        let within = match tol {
            Tolerance::Ignore => true,
            Tolerance::Exact => b == c,
            Tolerance::Abs(t) => (b - c).abs() <= t,
            Tolerance::Rel(t) => (b - c).abs() <= t * b.abs().max(f64::MIN_POSITIVE),
        };
        if !within {
            findings.push(DiffFinding {
                path: path.to_string(),
                kind: "value",
                detail: format!("baseline {b} vs current {c}"),
            });
        }
        return;
    }
    match (baseline, current) {
        (Json::Scalar(b), Json::Scalar(c)) if b == c => {}
        (Json::Scalar(JsonValue::Str(b)), Json::Scalar(JsonValue::Str(c))) => {
            findings.push(DiffFinding {
                path: path.to_string(),
                kind: "value",
                detail: format!("baseline \"{b}\" vs current \"{c}\""),
            });
        }
        (Json::Scalar(JsonValue::Bool(b)), Json::Scalar(JsonValue::Bool(c))) => {
            findings.push(DiffFinding {
                path: path.to_string(),
                kind: "value",
                detail: format!("baseline {b} vs current {c}"),
            });
        }
        _ => {
            findings.push(DiffFinding {
                path: path.to_string(),
                kind: "type",
                detail: format!(
                    "baseline is {}, current is {}",
                    json_kind(baseline),
                    json_kind(current)
                ),
            });
        }
    }
}

fn json_kind(j: &Json) -> &'static str {
    match j {
        Json::Obj(_) => "an object",
        Json::Arr(_) => "an array",
        Json::Scalar(JsonValue::Str(_)) => "a string",
        Json::Scalar(JsonValue::Bool(_)) => "a bool",
        Json::Scalar(JsonValue::Null) => "null",
        Json::Scalar(_) => "a number",
    }
}

/// Renders findings as one `diff_report` JSON document
/// (see `docs/OBS_SCHEMA.md`). `count == 0` means the gate passes.
pub fn render_diff_report(
    baseline_name: &str,
    current_name: &str,
    rules: usize,
    findings: &[DiffFinding],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\":{},\"kind\":\"diff_report\",\"baseline\":",
        crate::OBS_SCHEMA_VERSION
    );
    crate::json::push_str_escaped(&mut out, baseline_name);
    out.push_str(",\"current\":");
    crate::json::push_str_escaped(&mut out, current_name);
    let _ = write!(
        out,
        ",\"rules\":{rules},\"count\":{},\"findings\":[",
        findings.len()
    );
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":");
        crate::json::push_str_escaped(&mut out, &f.path);
        let _ = write!(out, ",\"kind\":\"{}\",\"detail\":", f.kind);
        crate::json::push_str_escaped(&mut out, &f.detail);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        parse_value(s).expect("test document parses")
    }

    #[test]
    fn identical_documents_have_zero_findings() {
        let doc = parse(r#"{"a":1,"b":[1,2,{"c":0.5}],"d":"x"}"#);
        assert!(diff_documents(&doc, &doc, &DiffPolicy::empty()).is_empty());
    }

    #[test]
    fn exact_default_flags_value_type_and_shape_changes() {
        let base = parse(r#"{"a":1,"b":[1,2],"c":"x","gone":0}"#);
        let cur = parse(r#"{"a":2,"b":[1,2,3],"c":5,"new":1}"#);
        let findings = diff_documents(&base, &cur, &DiffPolicy::empty());
        let kinds: Vec<(&str, &str)> = findings.iter().map(|f| (f.path.as_str(), f.kind)).collect();
        assert!(kinds.contains(&("a", "value")));
        assert!(kinds.contains(&("b", "length")));
        assert!(kinds.contains(&("c", "type")));
        assert!(kinds.contains(&("gone", "removed")));
        assert!(kinds.contains(&("new", "added")));
    }

    #[test]
    fn tolerances_excuse_bounded_drift() {
        let base = parse(r#"{"rate":100.0,"jitter":5,"noise":1}"#);
        let cur = parse(r#"{"rate":104.0,"jitter":5.4,"noise":999}"#);
        let policy = DiffPolicy {
            rules: vec![
                DiffRule {
                    path: "rate".into(),
                    tolerance: Tolerance::Rel(0.05),
                },
                DiffRule {
                    path: "jitter".into(),
                    tolerance: Tolerance::Abs(0.5),
                },
                DiffRule {
                    path: "noise".into(),
                    tolerance: Tolerance::Ignore,
                },
            ],
        };
        assert!(diff_documents(&base, &cur, &policy).is_empty());
        let strict = DiffPolicy::empty();
        assert_eq!(diff_documents(&base, &cur, &strict).len(), 3);
    }

    #[test]
    fn int_and_float_encodings_of_one_value_compare_numerically() {
        let base = parse(r#"{"x":2}"#);
        let cur = parse(r#"{"x":2.0}"#);
        assert!(diff_documents(&base, &cur, &DiffPolicy::empty()).is_empty());
    }

    #[test]
    fn wildcards_match_one_segment_and_trailing_rest() {
        assert!(pattern_matches(
            "metrics/*/value",
            "metrics/sim.slots/value"
        ));
        assert!(!pattern_matches(
            "metrics/*/value",
            "metrics/sim.slots/deep/value"
        ));
        assert!(pattern_matches(
            "metrics/**",
            "metrics/sim.slots/deep/value"
        ));
        assert!(pattern_matches("**", "anything/at/all"));
        assert!(!pattern_matches("metrics/*", "metrics"));
    }

    #[test]
    fn ignore_rules_prune_whole_subtrees_and_missing_keys() {
        let base = parse(r#"{"env":{"host":"a","cores":1},"x":1}"#);
        let cur = parse(r#"{"env":{"host":"b"},"x":1,"extra":{"y":2}}"#);
        let policy = DiffPolicy {
            rules: vec![
                DiffRule {
                    path: "env/**".into(),
                    tolerance: Tolerance::Ignore,
                },
                DiffRule {
                    path: "extra".into(),
                    tolerance: Tolerance::Ignore,
                },
            ],
        };
        assert!(diff_documents(&base, &cur, &policy).is_empty());
    }

    #[test]
    fn policy_parse_accepts_the_documented_format() {
        let policy = DiffPolicy::parse(
            r#"{"kind":"diff_policy","rules":[
                {"path":"metrics/resolver.hit_rate/value","mode":"rel","value":0.05},
                {"path":"env/**","mode":"ignore"},
                {"path":"slots","mode":"abs","value":2},
                {"path":"colors","mode":"exact"}
            ]}"#,
        )
        .expect("policy parses");
        assert_eq!(policy.rules.len(), 4);
        assert_eq!(policy.rules[0].tolerance, Tolerance::Rel(0.05));
        assert_eq!(policy.rules[1].tolerance, Tolerance::Ignore);
        assert_eq!(policy.rules[2].tolerance, Tolerance::Abs(2.0));
        assert_eq!(policy.rules[3].tolerance, Tolerance::Exact);
    }

    #[test]
    fn policy_parse_errors_are_friendly() {
        assert!(DiffPolicy::parse("not json")
            .unwrap_err()
            .contains("not valid JSON"));
        assert!(DiffPolicy::parse(r#"{"kind":"metrics","rules":[]}"#)
            .unwrap_err()
            .contains("expected \"diff_policy\""));
        assert!(DiffPolicy::parse(r#"{"rules":1}"#)
            .unwrap_err()
            .contains("not an array"));
        let err = DiffPolicy::parse(r#"{"rules":[{"path":"a","mode":"rel"}]}"#).unwrap_err();
        assert!(
            err.contains("rule 0") && err.contains("non-negative"),
            "{err}"
        );
        let err = DiffPolicy::parse(r#"{"rules":[{"path":"a","mode":"fuzzy"}]}"#).unwrap_err();
        assert!(err.contains("unknown mode"), "{err}");
        let err = DiffPolicy::parse(r#"{"rules":[{"mode":"exact"}]}"#).unwrap_err();
        assert!(err.contains("missing string field \"path\""), "{err}");
    }

    #[test]
    fn diff_report_renders_and_round_trips() {
        let findings = vec![DiffFinding {
            path: "metrics/sim.slots/value".into(),
            kind: "value",
            detail: "baseline 100 vs current 120".into(),
        }];
        let doc = render_diff_report("base.json", "cur.json", 3, &findings);
        let v = parse_value(&doc).expect("report parses");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("diff_report"));
        assert_eq!(v.get("count").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("rules").and_then(Json::as_i64), Some(3));
        let f = &v.get("findings").and_then(Json::as_array).expect("arr")[0];
        assert_eq!(f.get("kind").and_then(Json::as_str), Some("value"));
    }
}
