//! The revision-keyed artifact store and its regression gate, shared by
//! `BENCH_trajectory.json` ([`crate::audit::Trajectory`]) and
//! `BENCH_serving.json` ([`crate::load::ServingTrajectory`]).
//!
//! Both files are one envelope,
//!
//! ```text
//! {"schema": N, "snapshots": [{"revision": "…", "<body>": [item, …]}, …]}
//! ```
//!
//! holding snapshots keyed by a caller-supplied revision label (never a
//! wall clock). A snapshot type implements [`ArtifactSnapshot`]: its body
//! codec, plus the [`Row`]s the gate compares. Everything else lives here
//! once: the envelope writer and parser with its schema check, the
//! [`RevisionStore`], and [`diff`], which matches rows by key and judges
//! each changed deterministic field under the artifact's [`Policy`].

use std::fmt::Write as _;

use anonring_sim::json::{json_escape, Value};

/// One snapshot type of a revision-keyed artifact.
pub trait ArtifactSnapshot: Sized {
    /// The artifact's name in errors (`unsupported <KIND> schema …`).
    const KIND: &'static str;
    /// The schema number the envelope carries and the parser accepts.
    const SCHEMA: u64;
    /// Key of the snapshot's item array (next to `"revision"`).
    const BODY: &'static str;

    /// The snapshot's revision label.
    fn revision(&self) -> &str;

    /// The JSON text of each body item, in order. The envelope places
    /// each on its own line at the body's indentation.
    fn body_items(&self) -> Vec<String>;

    /// Rebuilds a snapshot from its revision label and body items.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    fn from_body(revision: String, items: &[Value]) -> Result<Self, String>;

    /// The rows the gate compares, in report order.
    fn rows(&self) -> Vec<Row>;
}

/// One gated row of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The match key, also the row's name in reports
    /// (`sync_and n=64`, `rate=0 transport=threads`).
    pub key: String,
    /// The deterministic fields, by name.
    pub fields: Vec<(&'static str, u64)>,
    /// The advisory wall-clock field, when the row carries one.
    pub wall: Option<(&'static str, u64)>,
}

/// Snapshots of one artifact across revisions, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionStore<S> {
    /// Snapshots, oldest first.
    pub snapshots: Vec<S>,
}

impl<S> Default for RevisionStore<S> {
    fn default() -> Self {
        RevisionStore {
            snapshots: Vec::new(),
        }
    }
}

impl<S: ArtifactSnapshot> RevisionStore<S> {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The snapshot with the given revision label.
    #[must_use]
    pub fn snapshot(&self, revision: &str) -> Option<&S> {
        self.snapshots.iter().find(|s| s.revision() == revision)
    }

    /// The most recent snapshot.
    #[must_use]
    pub fn latest(&self) -> Option<&S> {
        self.snapshots.last()
    }

    /// Replaces the snapshot with the same revision label, or appends.
    pub fn upsert(&mut self, snapshot: S) {
        match self
            .snapshots
            .iter_mut()
            .find(|s| s.revision() == snapshot.revision())
        {
            Some(slot) => *slot = snapshot,
            None => self.snapshots.push(snapshot),
        }
    }

    /// Serializes the store in the stable artifact schema (pinned byte
    /// for byte by the `trajectory_golden` test in `crates/bench/tests`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": {},", S::SCHEMA);
        out.push_str("  \"snapshots\": [");
        for (si, snap) in self.snapshots.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\n      \"revision\": \"{}\",\n      \"{}\": [",
                if si > 0 { "," } else { "" },
                json_escape(snap.revision()),
                S::BODY
            );
            for (ii, item) in snap.body_items().iter().enumerate() {
                let _ = write!(out, "{}\n        {item}", if ii > 0 { "," } else { "" });
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the artifact back.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field (or byte offset for raw JSON
    /// syntax errors), or the unsupported schema number.
    pub fn parse(input: &str) -> Result<Self, String> {
        let doc = Value::parse(input)?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("missing \"schema\"")?;
        if schema != S::SCHEMA {
            return Err(format!(
                "unsupported {} schema {schema} (this tool reads {})",
                S::KIND,
                S::SCHEMA
            ));
        }
        let mut store = Self::new();
        for snap in doc
            .get("snapshots")
            .and_then(Value::as_array)
            .ok_or("missing \"snapshots\"")?
        {
            let revision = snap
                .get("revision")
                .and_then(Value::as_str)
                .ok_or("snapshot missing \"revision\"")?
                .to_string();
            let items = snap
                .get(S::BODY)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("snapshot missing {:?}", S::BODY))?;
            store.snapshots.push(S::from_body(revision, items)?);
        }
        Ok(store)
    }

    /// Reads and parses the artifact at `path`.
    ///
    /// # Errors
    ///
    /// `read <path>: …` or `parse <path>: …`.
    pub fn load(path: &str) -> Result<Self, String> {
        let input = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Self::parse(&input).map_err(|e| format!("parse {path}: {e}"))
    }

    /// [`RevisionStore::load`] when `path` exists, else an empty store.
    ///
    /// # Errors
    ///
    /// As [`RevisionStore::load`].
    pub fn load_or_new(path: &str) -> Result<Self, String> {
        if std::path::Path::new(path).exists() {
            Self::load(path)
        } else {
            Ok(Self::new())
        }
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// `write <path>: …`.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {path}: {e}"))
    }
}

/// How the gate judges a changed deterministic field. Each artifact
/// fixes its own: the trajectory's costs may shrink, serving outcomes
/// may not move at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// A field that grew by more than `tolerance_pct` percent is a
    /// regression; one that shrank is an improvement.
    Ceiling {
        /// Allowed growth in percent.
        tolerance_pct: f64,
    },
    /// Any change, in either direction, is a drift.
    Exact,
}

/// The gate's verdict on a pair of snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Fields the policy rejects, one line each (`<row> <field>: a -> b`,
    /// with the relative change under [`Policy::Ceiling`]); the gate
    /// fails when this is nonempty.
    pub failures: Vec<String>,
    /// Fields that shrank under [`Policy::Ceiling`] (informational).
    pub improvements: Vec<String>,
    /// Non-gating observations: wall-clock growth, rows missing from
    /// the new snapshot, and rows only the new snapshot holds (which
    /// stay ungated until the baseline holds them too).
    pub warnings: Vec<String>,
}

/// Compares two snapshots row by row (matched on [`Row::key`]) under
/// `policy`. Wall-clock growth, missing rows and new rows are warnings
/// only.
#[must_use]
pub fn diff<S: ArtifactSnapshot>(old: &S, new: &S, policy: Policy) -> DiffReport {
    let mut report = DiffReport::default();
    let new_rows = new.rows();
    let old_rows = old.rows();
    for old_row in &old_rows {
        let Some(new_row) = new_rows.iter().find(|r| r.key == old_row.key) else {
            report
                .warnings
                .push(format!("{} missing from new snapshot", old_row.key));
            continue;
        };
        for (&(field, old_v), &(_, new_v)) in old_row.fields.iter().zip(&new_row.fields) {
            let line = format!("{} {field}: {old_v} -> {new_v}", old_row.key);
            match policy {
                Policy::Exact => {
                    if new_v != old_v {
                        report.failures.push(line);
                    }
                }
                Policy::Ceiling { tolerance_pct } => {
                    let pct = if old_v > 0 {
                        (new_v as f64 - old_v as f64) / old_v as f64 * 100.0
                    } else {
                        f64::INFINITY
                    };
                    let ceiling = old_v as f64 * (1.0 + tolerance_pct / 100.0);
                    if new_v > old_v && new_v as f64 > ceiling {
                        report.failures.push(format!("{line} ({pct:+.1}%)"));
                    } else if new_v < old_v {
                        report.improvements.push(format!("{line} ({pct:+.1}%)"));
                    }
                }
            }
        }
        if let (Some((field, old_wall)), Some((_, new_wall))) = (old_row.wall, new_row.wall) {
            if new_wall > old_wall {
                report.warnings.push(format!(
                    "{} {field}: {old_wall} -> {new_wall} (wall clock is advisory)",
                    old_row.key
                ));
            }
        }
    }
    for new_row in &new_rows {
        if !old_rows.iter().any(|r| r.key == new_row.key) {
            report
                .warnings
                .push(format!("{} new in this snapshot (ungated)", new_row.key));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::{diff, ArtifactSnapshot, Policy, Row};
    use anonring_sim::json::Value;

    /// A snapshot whose rows are `(key, value)` pairs of one field.
    struct Rows(Vec<(&'static str, u64)>);

    impl ArtifactSnapshot for Rows {
        const KIND: &'static str = "rows";
        const SCHEMA: u64 = 1;
        const BODY: &'static str = "rows";

        fn revision(&self) -> &str {
            "r"
        }

        fn body_items(&self) -> Vec<String> {
            Vec::new()
        }

        fn from_body(_: String, _: &[Value]) -> Result<Self, String> {
            Ok(Rows(Vec::new()))
        }

        fn rows(&self) -> Vec<Row> {
            self.0
                .iter()
                .map(|&(key, value)| Row {
                    key: key.to_string(),
                    fields: vec![("messages", value)],
                    wall: None,
                })
                .collect()
        }
    }

    #[test]
    fn rows_only_the_new_snapshot_holds_are_named_not_gated() {
        let old = Rows(vec![("a n=16", 10)]);
        let new = Rows(vec![("a n=16", 10), ("b n=16", 99), ("a n=64", 40)]);
        for policy in [Policy::Exact, Policy::Ceiling { tolerance_pct: 0.0 }] {
            let report = diff(&old, &new, policy);
            assert!(report.failures.is_empty(), "{report:?}");
            assert_eq!(
                report.warnings,
                [
                    "b n=16 new in this snapshot (ungated)",
                    "a n=64 new in this snapshot (ungated)"
                ],
                "{policy:?}"
            );
        }
        let same = diff(&new, &new, Policy::Exact);
        assert!(same.warnings.is_empty(), "{same:?}");
    }
}
