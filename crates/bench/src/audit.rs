//! The asymptotic complexity auditor and perf-trajectory regression gate.
//!
//! Three layers, all consumed by the `audit` binary:
//!
//! 1. **Measurement** — [`measure_snapshot`] sweeps each audited family
//!    of [`Audited::ALL`] over a ring-size grid. Each cell is one
//!    [`Audited::run_native`] job, which owns the family's job shape
//!    (topology, wake schedule, cycle cap), with an event-collecting
//!    observer attached. It records the deterministic cost vector
//!    `{messages, bits, time, critical_path}` per cell (critical path =
//!    longest causal chain, via [`CausalDag`]). Wall-clock per cell is
//!    opt-in and never part of the committed artifact — snapshots are
//!    keyed by a caller-supplied revision label, not by clocks.
//! 2. **Fitting** — [`fit_messages`] least-squares-fits each algorithm's
//!    message curve against `c·n`, `c·n·log n` and `c·n²`, and
//!    [`audit_fits`] asserts the winning model (or the exact `n(n−1)`
//!    predicate for §4.1) matches the paper's theorem.
//! 3. **The gate** — [`Trajectory`] is the shared [`RevisionStore`] over
//!    [`Snapshot`], whose gated rows are the cells;
//!    [`diff`](crate::artifact::diff) under
//!    [`Policy::Ceiling`](crate::artifact::Policy::Ceiling) reports every
//!    deterministic metered cost that regressed beyond a tolerance;
//!    wall-clock deltas are warnings only.
//!
//! The artifact (`BENCH_trajectory.json`) appends snapshots over time and
//! its schema is pinned byte-for-byte by `trajectory_golden` in
//! `crates/bench/tests`.

use std::fmt::Write as _;
use std::time::Instant;

use anonring_core::algorithms::driver::{mixed_bits, Audited};
use anonring_sim::json::{json_escape, Value};
use anonring_sim::runtime::TraceEvent;
use anonring_sim::telemetry::{CausalDag, PathWeight};

use crate::artifact::{ArtifactSnapshot, RevisionStore, Row};
use crate::sweep::sweep_default;

/// Current schema number of `BENCH_trajectory.json`.
pub const TRAJECTORY_SCHEMA: u64 = 1;

/// Ring sizes the default audit sweep measures.
pub const DEFAULT_GRID: [usize; 5] = [16, 32, 64, 128, 256];

/// Candidate growth models for the message-cost fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `c·n`.
    Linear,
    /// `c·n·log n` (natural log; the base is absorbed into `c`).
    NLogN,
    /// `c·n²`.
    Quadratic,
}

impl Model {
    /// All candidates, in reporting order.
    pub const ALL: [Model; 3] = [Model::Linear, Model::NLogN, Model::Quadratic];

    /// The model's basis function at ring size `n`.
    #[must_use]
    pub fn basis(self, n: u64) -> f64 {
        let x = n as f64;
        match self {
            Model::Linear => x,
            Model::NLogN => x * x.ln(),
            Model::Quadratic => x * x,
        }
    }

    /// Display name (used in reports and assertions).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Linear => "c*n",
            Model::NLogN => "c*n*log n",
            Model::Quadratic => "c*n^2",
        }
    }
}

/// Required residual advantage of `c·n·log n` over `c·n²` for an
/// [`Theorem::NLogN`] algorithm to pass (quadratic must fit at least this
/// many times worse).
pub const NLOGN_MARGIN: f64 = 2.0;

/// What the paper's theorem predicts for an algorithm's message cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theorem {
    /// Exactly `n(n−1)` messages at every grid point (§4.1, Theorem 5.1).
    ExactQuadratic,
    /// `O(n log n)` messages: [`Model::NLogN`] must beat
    /// [`Model::Quadratic`] by [`NLOGN_MARGIN`] in residual (the measured
    /// workload may grow slower than the worst case — that still
    /// satisfies the upper bound).
    NLogN,
    /// `O(n)` messages: the best-fit model must be [`Model::Linear`].
    Linear,
    /// `Θ(n²)` messages: the best-fit model must be [`Model::Quadratic`]
    /// (the dynamic-broadcast adversary floods `2·Σ|E_r|` messages, not an
    /// exact closed form, so the check is the fit rather than a
    /// predicate).
    Quadratic,
}

impl Theorem {
    /// Stable token used in the JSON artifact.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Theorem::ExactQuadratic => "exact-n(n-1)",
            Theorem::NLogN => "n-log-n",
            Theorem::Linear => "linear",
            Theorem::Quadratic => "quadratic",
        }
    }

    /// Parses the artifact token back.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Theorem> {
        match token {
            "exact-n(n-1)" => Some(Theorem::ExactQuadratic),
            "n-log-n" => Some(Theorem::NLogN),
            "linear" => Some(Theorem::Linear),
            "quadratic" => Some(Theorem::Quadratic),
            _ => None,
        }
    }
}

/// One least-squares fit of a cost curve against a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// The fitted model.
    pub model: Model,
    /// The fitted coefficient `c` (minimizing `Σ(y − c·f(n))²`).
    pub coefficient: f64,
    /// Relative residual `√(Σ(y − c·f(n))² / Σy²)`; 0 is a perfect fit.
    pub residual: f64,
}

/// Least-squares fit of `(n, y)` samples against one model.
#[must_use]
pub fn fit_model(samples: &[(u64, u64)], model: Model) -> Fit {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for &(n, y) in samples {
        let f = model.basis(n);
        num += f * y as f64;
        den += f * f;
    }
    let coefficient = if den > 0.0 { num / den } else { 0.0 };
    let (mut ss_res, mut ss_tot) = (0.0f64, 0.0f64);
    for &(n, y) in samples {
        let e = y as f64 - coefficient * model.basis(n);
        ss_res += e * e;
        ss_tot += (y as f64) * (y as f64);
    }
    let residual = if ss_tot > 0.0 {
        (ss_res / ss_tot).sqrt()
    } else {
        0.0
    };
    Fit {
        model,
        coefficient,
        residual,
    }
}

/// Fits all candidate models to the message curve and returns them sorted
/// best (smallest residual) first.
#[must_use]
pub fn fit_messages(samples: &[(u64, u64)]) -> Vec<Fit> {
    let mut fits: Vec<Fit> = Model::ALL.iter().map(|&m| fit_model(samples, m)).collect();
    fits.sort_by(|a, b| a.residual.total_cmp(&b.residual));
    fits
}

/// The log–log slope of the samples (fitted exponent of `y ≈ c·n^k`),
/// skipping zero samples. `0.0` when fewer than two usable points.
#[must_use]
pub fn log_log_slope(samples: &[(u64, u64)]) -> f64 {
    let points: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(_, y)| y > 0)
        .map(|&(n, y)| ((n as f64).ln(), (y as f64).ln()))
        .collect();
    if points.len() < 2 {
        return 0.0;
    }
    let len = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / len;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / len;
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for (x, y) in points {
        num += (x - mean_x) * (y - mean_y);
        den += (x - mean_x) * (x - mean_x);
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One measured grid cell of one algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCell {
    /// Ring size.
    pub n: u64,
    /// Total messages the run metered.
    pub messages: u64,
    /// Total bits the run metered.
    pub bits: u64,
    /// The run's time measure: cycles (sync) or max arrival epoch (async).
    pub time: u64,
    /// Length (hops) of the longest causal chain of the run.
    pub critical_path: u64,
    /// Wall-clock milliseconds of the run — opt-in, nondeterministic, and
    /// never part of the committed baseline (warnings only in the gate).
    pub wall_ms: Option<u64>,
}

/// One algorithm's measured curve plus the theorem it must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmRun {
    /// Algorithm name (module name in `anonring-core`).
    pub algorithm: String,
    /// The paper's predicted message-cost class.
    pub theorem: Theorem,
    /// Measured cells, ascending in `n`.
    pub cells: Vec<AuditCell>,
}

impl AlgorithmRun {
    /// The `(n, messages)` samples for fitting.
    #[must_use]
    pub fn message_samples(&self) -> Vec<(u64, u64)> {
        self.cells.iter().map(|c| (c.n, c.messages)).collect()
    }
}

/// One audit sweep: every algorithm's curve at one revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Caller-supplied revision label (git revision, "baseline", "ci", …).
    pub revision: String,
    /// Per-algorithm curves, in sweep order.
    pub algorithms: Vec<AlgorithmRun>,
}

/// The append-only trajectory: snapshots across revisions.
pub type Trajectory = RevisionStore<Snapshot>;

impl ArtifactSnapshot for Snapshot {
    const KIND: &'static str = "trajectory";
    const SCHEMA: u64 = TRAJECTORY_SCHEMA;
    const BODY: &'static str = "algorithms";

    fn revision(&self) -> &str {
        &self.revision
    }

    fn body_items(&self) -> Vec<String> {
        self.algorithms
            .iter()
            .map(|algo| {
                let mut out = format!(
                    "{{\n          \"algorithm\": \"{}\",\n          \
                     \"theorem\": \"{}\",\n          \"cells\": [",
                    json_escape(&algo.algorithm),
                    algo.theorem.token()
                );
                for (ci, cell) in algo.cells.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\n            {{\"n\": {}, \"messages\": {}, \"bits\": {}, \
                         \"time\": {}, \"critical_path\": {}",
                        if ci > 0 { "," } else { "" },
                        cell.n,
                        cell.messages,
                        cell.bits,
                        cell.time,
                        cell.critical_path
                    );
                    if let Some(wall) = cell.wall_ms {
                        let _ = write!(out, ", \"wall_ms\": {wall}");
                    }
                    out.push('}');
                }
                out.push_str("\n          ]\n        }");
                out
            })
            .collect()
    }

    fn from_body(revision: String, items: &[Value]) -> Result<Snapshot, String> {
        let mut algorithms = Vec::new();
        for algo in items {
            let name = algo
                .get("algorithm")
                .and_then(Value::as_str)
                .ok_or("algorithm entry missing \"algorithm\"")?;
            let token = algo
                .get("theorem")
                .and_then(Value::as_str)
                .ok_or("algorithm entry missing \"theorem\"")?;
            let theorem = Theorem::from_token(token)
                .ok_or_else(|| format!("unknown theorem token {token:?}"))?;
            let mut cells = Vec::new();
            for cell in algo
                .get("cells")
                .and_then(Value::as_array)
                .ok_or("algorithm entry missing \"cells\"")?
            {
                let field = |key: &str| {
                    cell.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("cell of {name:?} missing numeric {key:?}"))
                };
                cells.push(AuditCell {
                    n: field("n")?,
                    messages: field("messages")?,
                    bits: field("bits")?,
                    time: field("time")?,
                    critical_path: field("critical_path")?,
                    wall_ms: cell.get("wall_ms").and_then(Value::as_u64),
                });
            }
            algorithms.push(AlgorithmRun {
                algorithm: name.to_string(),
                theorem,
                cells,
            });
        }
        Ok(Snapshot {
            revision,
            algorithms,
        })
    }

    /// One row per cell, keyed `<algorithm> n=<n>`.
    fn rows(&self) -> Vec<Row> {
        self.algorithms
            .iter()
            .flat_map(|algo| {
                algo.cells.iter().map(|cell| Row {
                    key: format!("{} n={}", algo.algorithm, cell.n),
                    fields: vec![
                        ("messages", cell.messages),
                        ("bits", cell.bits),
                        ("time", cell.time),
                        ("critical_path", cell.critical_path),
                    ],
                    wall: cell.wall_ms.map(|w| ("wall_ms", w)),
                })
            })
            .collect()
    }
}

/// The paper's message-cost theorem for an audited family.
fn theorem(family: Audited) -> Theorem {
    match family {
        Audited::AsyncInputDist => Theorem::ExactQuadratic,
        Audited::SyncInputDist | Audited::Orientation | Audited::StartSync => Theorem::NLogN,
        Audited::SyncAnd => Theorem::Linear,
        Audited::DynBroadcast => Theorem::Quadratic,
    }
}

/// One audited cell: the family's [`Audited::run_native`] job with an
/// event-collecting observer, plus the critical path of the collected
/// events. Every family reads [`mixed_bits`] (as orientation bits for
/// Fig. 4; start sync ignores them) except the §4.2 AND, which runs on
/// alternating bits.
fn measure(family: Audited, n: usize, wall: bool) -> AuditCell {
    let inputs = match family {
        Audited::SyncAnd => (0..n).map(|i| (i % 2) as u8).collect(),
        _ => mixed_bits(n),
    };
    let mut events: Vec<TraceEvent> = Vec::new();
    let start = wall.then(Instant::now);
    let cost = family
        .run_native(n, &inputs, &mut |e: &TraceEvent| events.push(*e))
        .unwrap_or_else(|e| panic!("{family} audit run: {e}"));
    let wall_ms = start.map(|s| s.elapsed().as_millis() as u64);
    AuditCell {
        n: n as u64,
        messages: cost.messages,
        bits: cost.bits,
        time: cost.time,
        critical_path: CausalDag::from_events(&events)
            .critical_path(PathWeight::Hops)
            .map_or(0, |p| p.hops),
        wall_ms,
    }
}

/// Sweeps every audited algorithm over `grid` and returns one snapshot
/// labeled `revision`. Cells run in parallel (the measurements are
/// deterministic, so the result is thread-count independent); `wall`
/// additionally stamps nondeterministic wall-clock milliseconds per cell.
#[must_use]
pub fn measure_snapshot(revision: &str, grid: &[usize], wall: bool) -> Snapshot {
    let cells: Vec<(Audited, usize)> = Audited::ALL
        .into_iter()
        .flat_map(|family| grid.iter().map(move |&n| (family, n)))
        .collect();
    let measured = sweep_default(&cells, |_, &(family, n)| measure(family, n, wall));
    let algorithms = Audited::ALL
        .into_iter()
        .map(|family| AlgorithmRun {
            algorithm: family.name().to_string(),
            theorem: theorem(family),
            cells: measured
                .iter()
                .zip(&cells)
                .filter(|(_, &(f, _))| f == family)
                .map(|(cell, _)| cell.clone())
                .collect(),
        })
        .collect();
    Snapshot {
        revision: revision.to_string(),
        algorithms,
    }
}

/// The verdict of checking one algorithm's curve against its theorem.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Algorithm name.
    pub algorithm: String,
    /// The theorem checked against.
    pub theorem: Theorem,
    /// All candidate fits, best first (empty for the exact predicate).
    pub fits: Vec<Fit>,
    /// Fitted log–log exponent of the message curve.
    pub exponent: f64,
    /// Whether the curve matches the theorem.
    pub pass: bool,
    /// Human-readable verdict line.
    pub detail: String,
}

/// Checks every algorithm of a snapshot against its theorem.
#[must_use]
pub fn audit_fits(snapshot: &Snapshot) -> Vec<FitReport> {
    snapshot
        .algorithms
        .iter()
        .map(|algo| {
            let samples = algo.message_samples();
            let exponent = log_log_slope(&samples);
            let fits = fit_messages(&samples);
            let (pass, detail) = match algo.theorem {
                Theorem::ExactQuadratic => {
                    let off: Vec<String> = algo
                        .cells
                        .iter()
                        .filter(|c| c.messages != c.n * (c.n - 1))
                        .map(|c| {
                            format!("n={} measured {} want {}", c.n, c.messages, c.n * (c.n - 1))
                        })
                        .collect();
                    if off.is_empty() {
                        (
                            true,
                            "messages = n(n-1) exactly at every grid point".to_string(),
                        )
                    } else {
                        (false, format!("n(n-1) violated: {}", off.join("; ")))
                    }
                }
                Theorem::NLogN => {
                    // O(n log n) is an upper bound: the check is that
                    // c·n·log n beats c·n² by a residual margin (the
                    // measured workload may grow even slower than the
                    // worst case, which still satisfies the theorem).
                    let nlogn = fit_model(&samples, Model::NLogN);
                    let quad = fit_model(&samples, Model::Quadratic);
                    let margin = quad.residual / nlogn.residual.max(1e-12);
                    if nlogn.residual < quad.residual && margin >= NLOGN_MARGIN {
                        (
                            true,
                            format!(
                                "{} beats {} by {:.1}x residual margin \
                                 (c={:.3}, residual {:.4})",
                                Model::NLogN.name(),
                                Model::Quadratic.name(),
                                margin,
                                nlogn.coefficient,
                                nlogn.residual
                            ),
                        )
                    } else {
                        (
                            false,
                            format!(
                                "{} does not beat {}: residuals {:.4} vs {:.4}",
                                Model::NLogN.name(),
                                Model::Quadratic.name(),
                                nlogn.residual,
                                quad.residual
                            ),
                        )
                    }
                }
                Theorem::Linear | Theorem::Quadratic => {
                    let want = match algo.theorem {
                        Theorem::Linear => Model::Linear,
                        _ => Model::Quadratic,
                    };
                    let best = fits[0];
                    if best.model == want {
                        (
                            true,
                            format!(
                                "best fit {} (c={:.3}, residual {:.4})",
                                best.model.name(),
                                best.coefficient,
                                best.residual
                            ),
                        )
                    } else {
                        (
                            false,
                            format!(
                                "best fit is {} (residual {:.4}), want {}",
                                best.model.name(),
                                best.residual,
                                want.name()
                            ),
                        )
                    }
                }
            };
            FitReport {
                algorithm: algo.algorithm.clone(),
                theorem: algo.theorem,
                fits,
                exponent,
                pass,
                detail,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{
        audit_fits, fit_messages, fit_model, log_log_slope, measure_snapshot, AlgorithmRun,
        AuditCell, Model, Snapshot, Theorem, Trajectory,
    };
    use crate::artifact::{diff, Policy};

    fn synthetic(curve: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        [16u64, 32, 64, 128, 256]
            .iter()
            .map(|&n| (n, curve(n)))
            .collect()
    }

    #[test]
    fn least_squares_recovers_planted_coefficients() {
        let quad = synthetic(|n| 3 * n * n);
        let fit = fit_model(&quad, Model::Quadratic);
        assert!((fit.coefficient - 3.0).abs() < 1e-9, "{fit:?}");
        assert!(fit.residual < 1e-12, "{fit:?}");
        assert_eq!(fit_messages(&quad)[0].model, Model::Quadratic);

        let nlogn = synthetic(|n| (2.0 * n as f64 * (n as f64).ln()) as u64);
        assert_eq!(fit_messages(&nlogn)[0].model, Model::NLogN);

        let lin = synthetic(|n| 7 * n);
        assert_eq!(fit_messages(&lin)[0].model, Model::Linear);
        assert!((log_log_slope(&quad) - 2.0).abs() < 1e-6);
        assert!((log_log_slope(&lin) - 1.0).abs() < 1e-6);
    }

    fn cell(n: u64, messages: u64) -> AuditCell {
        AuditCell {
            n,
            messages,
            bits: messages * 2,
            time: n,
            critical_path: n,
            wall_ms: None,
        }
    }

    fn snapshot(revision: &str, messages_at_64: u64) -> Snapshot {
        Snapshot {
            revision: revision.to_string(),
            algorithms: vec![AlgorithmRun {
                algorithm: "sync_and".to_string(),
                theorem: Theorem::Linear,
                cells: vec![cell(16, 32), cell(64, messages_at_64)],
            }],
        }
    }

    #[test]
    fn diff_names_the_regressed_cell_and_tolerates_noise() {
        let old = snapshot("old", 128);
        let inflated = snapshot("new", 160);
        let report = diff(&old, &inflated, Policy::Ceiling { tolerance_pct: 0.0 });
        assert_eq!(report.failures.len(), 2, "{report:?}"); // messages + bits
        let shown = report.failures[0].to_string();
        assert!(
            shown.contains("sync_and n=64 messages: 128 -> 160"),
            "{shown}"
        );

        // The same inflation passes under a 30% tolerance.
        let lenient = diff(
            &old,
            &inflated,
            Policy::Ceiling {
                tolerance_pct: 30.0,
            },
        );
        assert!(lenient.failures.is_empty(), "{lenient:?}");

        // Identical snapshots: clean.
        let same = diff(&old, &old, Policy::Ceiling { tolerance_pct: 0.0 });
        assert!(same.failures.is_empty() && same.improvements.is_empty());

        // Improvements are reported but don't gate.
        let better = diff(&inflated, &old, Policy::Ceiling { tolerance_pct: 0.0 });
        assert!(better.failures.is_empty());
        assert_eq!(better.improvements.len(), 2);
    }

    #[test]
    fn diff_warns_on_missing_coverage_instead_of_failing() {
        let old = snapshot("old", 128);
        let mut new = snapshot("new", 128);
        new.algorithms[0].cells.pop();
        let report = diff(&old, &new, Policy::Ceiling { tolerance_pct: 0.0 });
        assert!(report.failures.is_empty());
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("n=64 missing"), "{report:?}");
    }

    #[test]
    fn trajectory_round_trips_and_upserts_by_revision() {
        let mut t = Trajectory::new();
        t.upsert(snapshot("a", 128));
        t.upsert(snapshot("b", 130));
        t.upsert(snapshot("a", 129)); // replaces, keeps order
        assert_eq!(t.snapshots.len(), 2);
        assert_eq!(
            t.snapshot("a").unwrap().algorithms[0].cells[1].messages,
            129
        );
        assert_eq!(t.latest().unwrap().revision, "b");
        let parsed = Trajectory::parse(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn trajectory_parser_rejects_wrong_schema_and_bad_fields() {
        let err = Trajectory::parse("{\"schema\": 9, \"snapshots\": []}").unwrap_err();
        assert!(err.contains("schema 9"), "{err}");
        let err = Trajectory::parse("{\"snapshots\": []}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let doc = "{\"schema\": 1, \"snapshots\": [{\"revision\": \"x\", \"algorithms\": \
                   [{\"algorithm\": \"a\", \"theorem\": \"warp\", \"cells\": []}]}]}";
        let err = Trajectory::parse(doc).unwrap_err();
        assert!(err.contains("warp"), "{err}");
    }

    /// The full measured sweep matches every paper theorem. This is the
    /// library-level form of the `audit fit` acceptance criterion; a
    /// smaller grid keeps the debug-mode test affordable.
    #[test]
    fn measured_curves_match_the_paper_theorems() {
        let snap = measure_snapshot("test", &[16, 32, 64, 128], false);
        assert_eq!(snap.algorithms.len(), 6);
        for report in audit_fits(&snap) {
            assert!(
                report.pass,
                "{}: {} (exponent {:.2})",
                report.algorithm, report.detail, report.exponent
            );
        }
        // §4.1's critical path under the synchronizing adversary equals
        // the metered time (epoch count): causal depth is the paper's
        // time measure.
        let asy = &snap.algorithms[0];
        assert_eq!(asy.algorithm, "async_input_dist");
        for cell in &asy.cells {
            assert_eq!(
                cell.critical_path, cell.time,
                "n={}: critical path must equal the epoch count",
                cell.n
            );
        }
    }
}
