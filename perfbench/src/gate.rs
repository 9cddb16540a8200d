//! The determinism gate: a job repeated with the same inputs must give
//! bit-identical simulated facts, within a run and across runs at the
//! same workload seed.
//!
//! Across runs the fingerprints are kept in a small text file beside the
//! benchmark executable, named after a hash of the executable itself, so
//! a rebuilt program starts a fresh record.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::jobs::fnv1a64;
use crate::metrics::Outcome;

#[derive(Debug, Default)]
pub struct Determinism {
    seen: BTreeMap<String, u64>,
    /// Comparisons made (each repeat of a key, within or across runs).
    repeats: u64,
    mismatches: Vec<String>,
}

impl Determinism {
    /// Record `fp` for `key`; a differing earlier fingerprint is a
    /// mismatch.
    pub fn check(&mut self, key: &str, fp: u64) {
        match self.seen.get(key) {
            Some(&prev) => {
                self.repeats += 1;
                if prev != fp {
                    self.mismatches.push(format!(
                        "{key}: fingerprint {fp:016x} differs from earlier {prev:016x}"
                    ));
                }
            }
            None => {
                self.seen.insert(key.to_string(), fp);
            }
        }
    }

    /// Close the gate: check across runs, record every mismatch as a
    /// problem, note what was compared and set `determinism.repeats`.
    pub fn finish(mut self, out: &mut Outcome, workload: &str, seed: u64) {
        let record = self.check_across_runs(workload, seed);
        out.problems.append(&mut self.mismatches);
        out.notes.push(format!(
            "determinism: {} repeated jobs compared{}",
            self.repeats,
            record.map(|p| format!(" (record {p})")).unwrap_or_default()
        ));
        out.set("determinism.repeats", self.repeats as f64);
    }

    /// Compare against the fingerprints an earlier run of this build
    /// recorded for the same workload and seed, then store the union.
    /// Store I/O problems only skip the cross-run half of the gate.
    fn check_across_runs(&mut self, workload: &str, seed: u64) -> Option<String> {
        let path = store_path(workload, seed)?;
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let mut it = line.rsplitn(2, ' ');
                let (Some(fp), Some(key)) = (it.next(), it.next()) else {
                    continue;
                };
                if let Ok(fp) = u64::from_str_radix(fp, 16) {
                    self.check(key, fp);
                }
            }
        }
        let body: String = self
            .seen
            .iter()
            .map(|(k, fp)| format!("{k} {fp:016x}\n"))
            .collect();
        std::fs::create_dir_all(path.parent()?).ok()?;
        std::fs::write(&path, body).ok()?;
        Some(path.display().to_string())
    }
}

fn store_path(workload: &str, seed: u64) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let build = fnv1a64(&std::fs::read(&exe).ok()?);
    Some(
        exe.parent()?
            .join("perfbench-state")
            .join(format!("{build:016x}-{workload}-seed{seed}.txt")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_must_match() {
        let mut d = Determinism::default();
        d.check("a", 1);
        d.check("b", 2);
        d.check("a", 1);
        assert_eq!(d.repeats, 1);
        assert!(d.mismatches.is_empty());
        d.check("b", 3);
        assert_eq!(d.repeats, 2);
        assert_eq!(d.mismatches.len(), 1);
    }
}
