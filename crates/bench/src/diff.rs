//! `bench-diff` — compare two `BENCH_runtime.json` artifacts (see
//! [`crate::bench_json`]) exactly.
//!
//! Every value in the artifact is simulated, so it is a pure function of
//! the code, the scale and the seed. The comparison is one walk over the
//! two JSON trees:
//!
//! * every leaf path present in either file must be present in both and
//!   equal — numbers within a 1e-9 relative slack that covers decimal
//!   round-tripping through the JSON writer, nothing more;
//! * every `correct` in the new file must be `true`.
//!
//! Each mismatch is reported by path (`scaling[7].sim_s: a -> b`). Any
//! intended change to a simulated value therefore means regenerating the
//! committed baseline in the same change. Host wall clock is not this
//! artifact's concern; `perfbench` measures it.
//!
//! [`bench_diff`] returns `Err` only for malformed input; mismatches are
//! collected in [`DiffReport::problems`] so the CLI can print all of them
//! before exiting non-zero.

use acc_obs::json::{self, Value};

/// Relative slack for number equality — covers only decimal
/// round-tripping through the JSON writer, not real drift.
const NUM_REL_EPS: f64 = 1e-9;

/// The comparison result.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Leaves present in both files and compared.
    pub leaves: usize,
    /// One line per mismatch; non-empty means the diff fails.
    pub problems: Vec<String>,
}

impl DiffReport {
    /// True when the new artifact must be rejected.
    pub fn failed(&self) -> bool {
        !self.problems.is_empty()
    }

    /// Render every problem, or a one-line all-clear.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.problems {
            out.push_str(&format!("FAIL: {p}\n"));
        }
        if !self.failed() {
            out.push_str(&format!("OK: all {} values identical\n", self.leaves));
        }
        out
    }
}

/// Parse both artifacts and compare them leaf by leaf.
pub fn bench_diff(old_src: &str, new_src: &str) -> Result<DiffReport, String> {
    let parse = |src: &str, which: &str| match json::parse(src) {
        Ok(v @ Value::Obj(_)) => Ok(v),
        Ok(_) => Err(format!("{which} artifact: top level is not a JSON object")),
        Err(e) => Err(format!("{which} artifact: {e}")),
    };
    let (old, new) = (parse(old_src, "old")?, parse(new_src, "new")?);
    let mut r = DiffReport::default();
    walk("", Some(&old), Some(&new), &mut r);
    check_correct("", &new, &mut r);
    Ok(r)
}

fn child(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(path: &str, old: Option<&Value>, new: Option<&Value>, r: &mut DiffReport) {
    match (old, new) {
        (Some(Value::Obj(a)), Some(Value::Obj(b))) => {
            for k in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
                walk(&child(path, k), a.get(k), b.get(k), r);
            }
        }
        (Some(Value::Arr(a)), Some(Value::Arr(b))) => {
            for i in 0..a.len().max(b.len()) {
                walk(&format!("{path}[{i}]"), a.get(i), b.get(i), r);
            }
        }
        (Some(_), None) => r.problems.push(format!("{path}: missing from new")),
        (None, Some(_)) => r.problems.push(format!("{path}: missing from old")),
        (Some(a), Some(b)) => {
            r.leaves += 1;
            let same = match (a, b) {
                (Value::Num(x), Value::Num(y)) => {
                    (x - y).abs() <= NUM_REL_EPS * x.abs().max(y.abs())
                }
                _ => a == b,
            };
            if !same {
                r.problems.push(format!(
                    "{path}: {} -> {}",
                    a.to_string_compact(),
                    b.to_string_compact()
                ));
            }
        }
        (None, None) => {}
    }
}

/// Flag every `correct` member of `v` that is not `true`.
fn check_correct(path: &str, v: &Value, r: &mut DiffReport) {
    match v {
        Value::Obj(m) => {
            for (k, c) in m {
                let p = child(path, k);
                if k == "correct" && *c != Value::Bool(true) {
                    r.problems
                        .push(format!("{p}: new result is {}", c.to_string_compact()));
                }
                check_correct(&p, c, r);
            }
        }
        Value::Arr(items) => {
            for (i, c) in items.iter().enumerate() {
                check_correct(&format!("{path}[{i}]"), c, r);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_runtime.json");

    /// Every leaf of `v` with its report path and its location.
    fn leaves(v: &Value, path: String, loc: Vec<Step>, out: &mut Vec<(String, Vec<Step>)>) {
        match v {
            Value::Obj(m) => {
                for (k, c) in m {
                    let mut l = loc.clone();
                    l.push(Step::Key(k.clone()));
                    leaves(c, child(&path, k), l, out);
                }
            }
            Value::Arr(items) => {
                for (i, c) in items.iter().enumerate() {
                    let mut l = loc.clone();
                    l.push(Step::Idx(i));
                    leaves(c, format!("{path}[{i}]"), l, out);
                }
            }
            _ => out.push((path, loc)),
        }
    }

    #[derive(Clone)]
    enum Step {
        Key(String),
        Idx(usize),
    }

    fn at<'a>(v: &'a mut Value, loc: &[Step]) -> &'a mut Value {
        loc.iter().fold(v, |v, s| match (v, s) {
            (Value::Obj(m), Step::Key(k)) => m.get_mut(k).unwrap(),
            (Value::Arr(a), Step::Idx(i)) => &mut a[*i],
            _ => unreachable!("location from `leaves`"),
        })
    }

    fn committed() -> Value {
        json::parse(COMMITTED).unwrap()
    }

    /// Diff the committed file against `edit` applied to a copy of it.
    fn diff_edit(edit: impl FnOnce(&mut Value)) -> DiffReport {
        let mut doc = committed();
        edit(&mut doc);
        bench_diff(COMMITTED, &doc.to_string_pretty()).unwrap()
    }

    #[test]
    fn identical_artifacts_pass() {
        let r = bench_diff(COMMITTED, COMMITTED).unwrap();
        assert!(!r.failed(), "{:?}", r.problems);
        assert!(r.leaves > 300, "only {} leaves compared", r.leaves);
        assert!(r.render().starts_with("OK: "));
    }

    #[test]
    fn every_leaf_of_the_committed_artifact_is_pinned() {
        let mut all = Vec::new();
        leaves(&committed(), String::new(), Vec::new(), &mut all);
        let (mut nums, mut bools) = (0, 0);
        for (path, loc) in &all {
            let r = diff_edit(|doc| match at(doc, loc) {
                Value::Num(n) => {
                    nums += 1;
                    *n = if *n == 0.0 { 1.0 } else { *n * (1.0 + 1e-6) };
                }
                Value::Bool(b) => {
                    bools += 1;
                    *b = !*b;
                }
                Value::Str(s) => s.push('~'),
                other => panic!("unexpected leaf {other:?} at {path}"),
            });
            assert!(r.failed(), "{path}: perturbation passed");
            assert!(
                r.problems[0].starts_with(&format!("{path}: ")),
                "{path}: {:?}",
                r.problems
            );
        }
        assert!(nums > 200 && bools > 50, "{nums} numbers, {bools} booleans");
    }

    #[test]
    fn dropped_and_added_rows_fail() {
        for section in ["points", "comm_experiments", "scaling"] {
            let rows = |doc: &mut Value| match doc {
                Value::Obj(m) => match m.get_mut(section) {
                    Some(Value::Arr(a)) => std::mem::take(a),
                    _ => panic!("no `{section}` array"),
                },
                _ => unreachable!(),
            };
            let n = rows(&mut committed()).len();
            let put = |doc: &mut Value, a: Vec<Value>| {
                *at(doc, &[Step::Key(section.to_string())]) = Value::Arr(a);
            };
            let r = diff_edit(|doc| {
                let mut a = rows(doc);
                a.remove(0);
                put(doc, a);
            });
            let last = format!("{section}[{}]: missing from new", n - 1);
            assert!(r.problems.contains(&last), "{:?}", r.problems);
            let r = diff_edit(|doc| {
                let mut a = rows(doc);
                a.push(a[0].clone());
                put(doc, a);
            });
            assert_eq!(r.problems, [format!("{section}[{n}]: missing from old")]);
        }
    }

    #[test]
    fn sim_time_drift_fails_even_when_faster() {
        let r = diff_edit(|doc| {
            let Value::Num(t) = at(
                doc,
                &[
                    Step::Key("points".into()),
                    Step::Idx(4),
                    Step::Key("sim_s".into()),
                ],
            ) else {
                panic!("sim_s is a number")
            };
            *t *= 0.5;
        });
        assert_eq!(r.problems.len(), 1);
        assert!(
            r.problems[0].starts_with("points[4].sim_s: "),
            "{:?}",
            r.problems
        );
    }

    #[test]
    fn micro_scale_jitter_is_ignored() {
        // Below the round-trip slack: a writer re-rounding the last digit.
        let r = diff_edit(|doc| {
            let Value::Num(t) = at(
                doc,
                &[
                    Step::Key("points".into()),
                    Step::Idx(4),
                    Step::Key("sim_s".into()),
                ],
            ) else {
                panic!("sim_s is a number")
            };
            *t *= 1.0 + 1e-12;
        });
        assert!(!r.failed(), "{:?}", r.problems);
    }

    #[test]
    fn missing_point_and_wrong_result_fail() {
        let old = r#"{"points": [{"app": "md", "correct": false, "sim_s": 1}]}"#;
        let new = r#"{"points": [{"app": "md", "correct": false}]}"#;
        let r = bench_diff(old, new).unwrap();
        assert_eq!(
            r.problems,
            [
                "points[0].sim_s: missing from new",
                "points[0].correct: new result is false",
            ]
        );
        // A wrong result in the old file alone is the old file's problem.
        let r = bench_diff(old, &old.replace("false", "true")).unwrap();
        assert_eq!(r.problems, ["points[0].correct: false -> true"]);
    }

    #[test]
    fn scale_and_seed_mismatch_fail() {
        let r = diff_edit(|doc| {
            *at(doc, &[Step::Key("scale".into())]) = Value::str("paper");
            *at(doc, &[Step::Key("seed".into())]) = Value::num(7.0);
        });
        assert_eq!(
            r.problems,
            [r#"scale: "small" -> "paper""#, "seed: 42 -> 7"]
        );
    }

    #[test]
    fn comm_experiment_regressions_fail() {
        // Exact in both directions: more elisions or fewer bytes is still
        // a change the baseline has to record.
        let r = diff_edit(|doc| {
            for (key, v) in [("comm_elisions", 99.0), ("p2p_bytes", 1.0)] {
                let row = [
                    Step::Key("comm_experiments".into()),
                    Step::Idx(1),
                    Step::Key(key.into()),
                ];
                *at(doc, &row) = Value::num(v);
            }
        });
        assert_eq!(r.problems.len(), 2, "{:?}", r.problems);
        assert!(r.problems[0].starts_with("comm_experiments[1].comm_elisions: "));
        assert!(r.problems[1].starts_with("comm_experiments[1].p2p_bytes: "));
    }

    #[test]
    fn scaling_sim_drift_missing_point_and_wrong_result_fail() {
        let r = diff_edit(|doc| {
            let row = |k: &str| {
                [
                    Step::Key("scaling".into()),
                    Step::Idx(7),
                    Step::Key(k.into()),
                ]
            };
            *at(doc, &row("sim_s")) = Value::num(1.0);
            *at(doc, &row("correct")) = Value::Bool(false);
            let Value::Obj(m) = at(doc, &[Step::Key("scaling".into()), Step::Idx(8)]) else {
                panic!("scaling rows are objects")
            };
            m.remove("p2p_mb");
        });
        let all = r.problems.join("\n");
        assert!(all.contains("scaling[7].sim_s: "), "{all}");
        assert!(all.contains("scaling[7].correct: true -> false"), "{all}");
        assert!(
            all.contains("scaling[7].correct: new result is false"),
            "{all}"
        );
        assert!(all.contains("scaling[8].p2p_mb: missing from new"), "{all}");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_report() {
        assert!(bench_diff("{", "{}").unwrap_err().contains("old artifact"));
        assert!(bench_diff("{}", "[]")
            .unwrap_err()
            .contains("not a JSON object"));
    }

    #[test]
    fn real_bench_runtime_artifact_round_trips() {
        // The writer and the committed baseline must agree on the schema:
        // a field added to `bench_json` without regenerating the baseline
        // fails here as a missing-from-old path, not first in CI.
        let points = [crate::RuntimePoint {
            app: "md".to_string(),
            ngpus: 2,
            sim_s: 0.125,
            comm_sim_s: 0.0625,
            correct: true,
        }];
        let comm = [crate::CommPoint {
            app: "heat2d".to_string(),
            mode: "inferred".to_string(),
            ngpus: 3,
            comm_sim_s: 0.01,
            p2p_bytes: 1024,
            comm_elisions: 0,
            matches_annotated: true,
        }];
        let scaling = [crate::ScalingPoint {
            app: "heat2d".to_string(),
            ngpus: 8,
            topo: "cluster".to_string(),
            overlap: true,
            sim_s: 0.5,
            comm_sim_s: 0.25,
            cpu_gpu_s: 0.125,
            overlap_hidden_s: 0.0625,
            p2p_mb: 1.5,
            correct: true,
        }];
        let written = crate::bench_json(acc_apps::Scale::Small, 42, &points, &comm, &scaling);
        let keys = |v: &Value| -> Vec<String> {
            let mut all = Vec::new();
            leaves(v, String::new(), Vec::new(), &mut all);
            let mut k: Vec<String> = all
                .into_iter()
                .map(|(p, _)| {
                    p.split_once("].").map_or(p.clone(), |(s, f)| {
                        format!("{}.{f}", &s[..s.find('[').unwrap()])
                    })
                })
                .collect();
            k.sort();
            k.dedup();
            k
        };
        assert_eq!(keys(&written), keys(&committed()));
        let doc = written.to_string_pretty();
        let r = bench_diff(&doc, &doc).unwrap();
        assert!(!r.failed(), "{:?}", r.problems);
        assert_eq!(r.leaves, 2 + 5 + 7 + 10);
    }
}
