//! Deterministic fuzz-campaign reporting.
//!
//! The rendered report is a pure function of the corpus (master seed,
//! count, configuration): no wall times, no timestamps, no paths — the
//! same campaign rendered twice is byte-identical, which is itself one of
//! the harness' acceptance properties (`sage fuzz --seed S --count N`
//! run twice must print the same bytes).

use crate::diff::{DiffOutcome, Verdict};
use std::fmt::Write as _;

/// One corpus entry's record.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// Index in the corpus (0-based).
    pub index: usize,
    /// Derived per-model seed.
    pub seed: u64,
    /// Model name (embeds the seed).
    pub name: String,
    /// Node count the runs targeted.
    pub nodes: usize,
    /// Whether the generator deliberately seeded a contract violation.
    pub seeded_violation: bool,
    /// Whether the generator deliberately seeded an unordered fan-in race.
    pub seeded_race: bool,
    /// The differential outcome.
    pub outcome: DiffOutcome,
}

/// A whole campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Master seed the corpus derives from.
    pub master_seed: u64,
    /// Corpus size requested.
    pub count: usize,
    /// Iterations per run.
    pub iterations: u32,
    /// Whether the TCP half of the lattice was swept.
    pub tcp: bool,
    /// Per-model records, in corpus order.
    pub models: Vec<ModelReport>,
}

impl FuzzReport {
    /// Models the front door accepted (lint-clean and codegen-clean).
    pub fn lint_clean(&self) -> usize {
        self.models
            .iter()
            .filter(|m| m.outcome.verdict != Verdict::FrontDoorRejected)
            .count()
    }

    /// Models that also passed `sage check` (and therefore ran the
    /// differential lattice).
    pub fn check_clean(&self) -> usize {
        self.models
            .iter()
            .filter(|m| {
                matches!(m.outcome.verdict, Verdict::Clean)
                    || (m.outcome.verdict == Verdict::Failed && m.outcome.reject_codes.is_empty())
            })
            .count()
    }

    /// Models with at least one property violation.
    pub fn failed(&self) -> usize {
        self.models
            .iter()
            .filter(|m| m.outcome.verdict == Verdict::Failed)
            .count()
    }

    /// Renders the deterministic campaign report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz campaign: seed {} count {}",
            self.master_seed, self.count
        );
        let _ = writeln!(
            s,
            "lattice: {}  iterations/run: {}",
            if self.tcp { "{local, tcp}" } else { "{local}" },
            self.iterations
        );
        let total = self.models.len().max(1);
        let _ = writeln!(
            s,
            "corpus: {} generated, {} lint-clean ({}%), {} check-clean ({}%), {} failed",
            self.models.len(),
            self.lint_clean(),
            100 * self.lint_clean() / total,
            self.check_clean(),
            100 * self.check_clean() / total,
            self.failed(),
        );
        let _ = writeln!(s);
        for m in &self.models {
            let verdict = match m.outcome.verdict {
                Verdict::FrontDoorRejected => "lint-rejected".to_string(),
                Verdict::CheckRejected => {
                    format!("check-rejected [{}]", m.outcome.reject_codes.join(","))
                }
                Verdict::Clean => {
                    let checksum = m
                        .outcome
                        .checksum
                        .map(|c| format!("{c:016x}"))
                        .unwrap_or_else(|| "-".into());
                    format!(
                        "clean  sink {checksum}  cells {}  faults {}ok/{}typed",
                        m.outcome.cells_run.len(),
                        m.outcome.fault_ok,
                        m.outcome.fault_typed,
                    )
                }
                Verdict::Failed => format!("FAILED ({} violations)", m.outcome.failures.len()),
            };
            let tag = if m.seeded_violation {
                " [seeded-violation]"
            } else if m.seeded_race {
                " [seeded-race]"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "  #{:<3} seed {:016x} nodes {}{tag}: {verdict}",
                m.index, m.seed, m.nodes
            );
            for f in &m.outcome.failures {
                let _ = writeln!(s, "       !! [{}] {}", f.cell, f.message);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::DiffOutcome;

    fn outcome(verdict: Verdict) -> DiffOutcome {
        DiffOutcome {
            verdict,
            reject_codes: vec!["SAGE054".into()],
            checksum: Some(0xabcd),
            cells_run: vec!["local/zero-copy"],
            fault_ok: 1,
            fault_typed: 1,
            failures: Vec::new(),
        }
    }

    #[test]
    fn render_is_deterministic_and_stat_lines_add_up() {
        let report = FuzzReport {
            master_seed: 42,
            count: 3,
            iterations: 2,
            tcp: false,
            models: vec![
                ModelReport {
                    index: 0,
                    seed: 1,
                    name: "a".into(),
                    nodes: 2,
                    seeded_violation: false,
                    seeded_race: false,
                    outcome: outcome(Verdict::Clean),
                },
                ModelReport {
                    index: 1,
                    seed: 2,
                    name: "b".into(),
                    nodes: 1,
                    seeded_violation: true,
                    seeded_race: false,
                    outcome: outcome(Verdict::CheckRejected),
                },
                ModelReport {
                    index: 2,
                    seed: 3,
                    name: "c".into(),
                    nodes: 1,
                    seeded_violation: false,
                    seeded_race: false,
                    outcome: outcome(Verdict::FrontDoorRejected),
                },
            ],
        };
        assert_eq!(report.lint_clean(), 2);
        assert_eq!(report.check_clean(), 1);
        assert_eq!(report.failed(), 0);
        let a = report.render();
        let b = report.render();
        assert_eq!(a, b);
        assert!(a.contains("seeded-violation"));
        assert!(a.contains("check-rejected [SAGE054]"));
    }
}
