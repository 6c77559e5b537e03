//! # anonring-anonlint
//!
//! A source-level lint pass enforcing the *anonymity model* of the paper
//! mechanically. The paper's results hold only for identical deterministic
//! processors whose every cost flows through the metered send path; nothing
//! in the type system stops an algorithm from branching on a processor
//! index or bypassing the meter. This crate walks the workspace source with
//! a small hand-rolled lexer ([`lexer`]) and reports violations as named
//! findings. On top of the token pass, a total recursive-descent parser
//! ([`parser`] → [`ast`]) feeds three intraprocedural dataflow analyses
//! ([`dataflow`]): identity-taint, span-dominance, and the hub's
//! critical-section discipline.
//!
//! ## Lint catalog
//!
//! | lint | scope | invariant |
//! |---|---|---|
//! | `anonymity-breach` | `core/src/algorithms`, `net/src` | algorithm and transport-driver code must not read the processor index (the `from_config` index parameter stays unbound) or introspect wiring through the topology API (`neighbor_port`, digests, schedules); `impl … Topology for …` blocks are exempt — a topology *definition* realises wiring, it does not spy on it |
//! | `identity-taint` | `core/src/algorithms` | dataflow tier of the anonymity rule: no value derived from a processor index, a `PortId`, or a wiring accessor may flow into a send payload or a branch condition, even through local variables the denylist cannot see |
//! | `unmetered-send` | `core/src/algorithms`, `sim/src`, `net/src` | all sends route through `Emit`; raw fabric/queue access and `CostMeter::record_send` are reserved to `sim::runtime` (and, net-side, the hub) |
//! | `span-coverage` | `core/src/algorithms` | every algorithm that sends stamps at least one telemetry `Span` |
//! | `span-dominance` | `core/src/algorithms` | dataflow tier of span coverage: every *send site* is chained under `in_span`, preceded by a span establishment on all paths, or followed by one on some path through its function |
//! | `no-unwrap-in-runtime` | `sim/src`, `net/src` | runtime code uses `expect` with an invariant message, never bare `unwrap` |
//! | `lock-discipline` | `net/src/hub*`, `sim/src/profile*` | the S21 invariant: every meter write, causal stamp and trace append in the hub happens inside one lock-guard region per function; the S26 profiler module is held to the same rule so its probes can never grow an unguarded meter write |
//! | `forbid-unsafe` | all | no `unsafe` token anywhere; crate roots carry `#![forbid(unsafe_code)]` |
//! | `malformed-suppression` | all | every `anonlint: allow(…)` names a known lint and gives a `-- reason` |
//! | `stale-suppression` | all | every suppression still suppresses something; a directive whose lint no longer fires on its lines is dead weight and is reported |
//!
//! Test code (`#[cfg(test)]` items) and comments/doc examples are excluded.
//!
//! ## Suppression syntax
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above, naming the lint and justifying itself:
//!
//! ```text
//! // anonlint: allow(no-unwrap-in-runtime) -- capacity checked two lines up
//! let head = queue.pop_front().unwrap();
//! ```
//!
//! `anonlint: allow-file(lint-name) -- reason` at any line suppresses the
//! lint for the whole file. A suppression without a reason (or naming an
//! unknown lint) is itself reported as `malformed-suppression`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod dataflow;
pub mod lexer;
pub mod parser;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Token, TokenKind};

/// The named lints anonlint can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Algorithm code reads the processor index or ring wiring directly.
    AnonymityBreach,
    /// Identity-derived data flows into a send payload or branch condition.
    IdentityTaint,
    /// A send bypasses the `Emit`/`LinkFabric` metered path.
    UnmeteredSend,
    /// An algorithm sends messages but never stamps a telemetry `Span`.
    SpanCoverage,
    /// A send site is not dominated by an `in_span` scope on every path.
    SpanDominance,
    /// Runtime code calls bare `unwrap` instead of `expect("invariant")`.
    NoUnwrapInRuntime,
    /// A hub meter/stamp/trace op runs outside the single lock-guard region.
    LockDiscipline,
    /// An `unsafe` token, or a crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// An `anonlint:` suppression comment that does not parse.
    MalformedSuppression,
    /// A suppression whose lint no longer fires on the lines it covers.
    StaleSuppression,
}

impl Lint {
    /// All lints, in catalog order.
    pub const ALL: [Lint; 10] = [
        Lint::AnonymityBreach,
        Lint::IdentityTaint,
        Lint::UnmeteredSend,
        Lint::SpanCoverage,
        Lint::SpanDominance,
        Lint::NoUnwrapInRuntime,
        Lint::LockDiscipline,
        Lint::ForbidUnsafe,
        Lint::MalformedSuppression,
        Lint::StaleSuppression,
    ];

    /// The lint's kebab-case name, as used in suppressions and baselines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::AnonymityBreach => "anonymity-breach",
            Lint::IdentityTaint => "identity-taint",
            Lint::UnmeteredSend => "unmetered-send",
            Lint::SpanCoverage => "span-coverage",
            Lint::SpanDominance => "span-dominance",
            Lint::NoUnwrapInRuntime => "no-unwrap-in-runtime",
            Lint::LockDiscipline => "lock-discipline",
            Lint::ForbidUnsafe => "forbid-unsafe",
            Lint::MalformedSuppression => "malformed-suppression",
            Lint::StaleSuppression => "stale-suppression",
        }
    }

    /// One line on *why* the invariant matters — printed under findings so
    /// a violation explains the paper-model stake, not just the rule.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Lint::AnonymityBreach => {
                "the paper's bounds assume identical anonymous processors; \
                 naming the index or wiring collapses them"
            }
            Lint::IdentityTaint => {
                "identity leaking through a local into a payload or branch \
                 breaks anonymity just as surely as naming it directly"
            }
            Lint::UnmeteredSend => {
                "every transmitted bit must cross the meter, or the measured \
                 communication complexity understates the algorithm"
            }
            Lint::SpanCoverage => {
                "un-spanned sends make per-phase cost budgets invisible in \
                 telemetry"
            }
            Lint::SpanDominance => {
                "a send reachable outside every span is charged to no phase; \
                 phase accounting must cover all paths"
            }
            Lint::NoUnwrapInRuntime => {
                "runtime panics must name the violated invariant, or field \
                 failures are undebuggable"
            }
            Lint::LockDiscipline => {
                "meter, causal stamps and trace must advance atomically (S21); \
                 split critical sections reorder the observable history"
            }
            Lint::ForbidUnsafe => {
                "the workspace proves its model properties by construction; \
                 unsafe code voids that argument"
            }
            Lint::MalformedSuppression => {
                "an unjustified or unparseable allow silently widens the \
                 trusted surface"
            }
            Lint::StaleSuppression => "a dead allow masks the next real violation at the same spot",
        }
    }

    /// Parses a lint name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which invariant set applies to a file (scopes differ in what the
/// sanctioned API surface is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `crates/core/src/algorithms/**`: paper-algorithm code, the most
    /// restricted surface.
    Algorithms,
    /// `crates/sim/src/**`: the runtime itself; `sim/src/runtime/` is the
    /// sole owner of the raw send path, and the S26 profiler module
    /// (`sim/src/profile*`) obeys the hub lock discipline.
    Runtime,
    /// `crates/net/src/**` plus the serving path in `bench`
    /// (`ringd.rs`, `load.rs`): the real-transport driver; its hub
    /// module is the sole owner of the net-side meter writes, and
    /// everything else obeys the runtime rules (plus the anonymity
    /// denylist, since the driver hosts algorithm processes directly).
    NetDriver,
}

impl Scope {
    /// The lints enforced in this scope.
    #[must_use]
    pub fn lints(self) -> &'static [Lint] {
        match self {
            Scope::Algorithms => &[
                Lint::AnonymityBreach,
                Lint::IdentityTaint,
                Lint::UnmeteredSend,
                Lint::SpanCoverage,
                Lint::SpanDominance,
                Lint::ForbidUnsafe,
            ],
            Scope::Runtime => &[
                Lint::UnmeteredSend,
                Lint::NoUnwrapInRuntime,
                Lint::LockDiscipline,
                Lint::ForbidUnsafe,
            ],
            Scope::NetDriver => &[
                Lint::AnonymityBreach,
                Lint::UnmeteredSend,
                Lint::NoUnwrapInRuntime,
                Lint::LockDiscipline,
                Lint::ForbidUnsafe,
            ],
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (empty when unavailable).
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        write!(f, "\n    = why: {}", self.lint.why())
    }
}

/// Identifiers that read ring wiring or processor identity — off limits to
/// algorithm code, which must see the world only through its local ports.
/// The second row is the port-labelled topology API: `neighbor_port` and
/// the digests reveal global wiring, `active_edges`/`components` reveal
/// the global footprint, `is_active` reveals another processor's
/// schedule, and `local_schedule(i)` is ensemble construction (engines
/// hand each node *its own* schedule; a process must never pull one).
const ANONYMITY_DENYLIST: [&str; 10] = [
    "neighbor",
    "processor_index",
    "with_switched",
    "neighbor_port",
    "wiring_digest",
    "round_digest",
    "active_edges",
    "components",
    "is_active",
    "local_schedule",
];

/// Raw send-path surface reserved to `sim::runtime` — algorithm code
/// touching any of these is constructing or delivering messages outside
/// the metered `Emit` vocabulary. `queue_head` is the fabric's head
/// lookup: it exposes in-flight messages.
const RAW_SEND_SURFACE: [&str; 6] = [
    "LinkFabric",
    "record_send",
    "pop_candidate",
    "push_back",
    "take_due",
    "queue_head",
];

/// Emission vocabulary whose presence marks a file as "this algorithm
/// sends messages" for `span-coverage`.
const SEND_VOCABULARY: [&str; 6] = [
    "send",
    "send_left",
    "send_right",
    "send_both",
    "and_send",
    "push_send",
];

/// Lints `source` (from `file`, repo-relative, under `scope`).
///
/// This is the pure core: no filesystem access, deterministic output
/// (findings in source order).
#[must_use]
pub fn lint_source(file: &str, source: &str, scope: Scope) -> Vec<Finding> {
    let tokens = lex(source);
    let in_test = test_code_mask(&tokens);
    let (suppressions, mut findings) = collect_suppressions(file, &tokens);

    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !in_test[*i] && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
        })
        .collect();

    for lint in scope.lints() {
        match lint {
            Lint::ForbidUnsafe => check_forbid_unsafe(file, &code, &mut findings),
            Lint::NoUnwrapInRuntime => check_no_unwrap(file, &code, &mut findings),
            Lint::UnmeteredSend => check_unmetered_send(file, scope, &code, &mut findings),
            Lint::AnonymityBreach => check_anonymity_breach(file, &code, &mut findings),
            Lint::SpanCoverage => check_span_coverage(file, &code, &mut findings),
            // AST-tier analyses run below; suppression health runs last.
            Lint::IdentityTaint
            | Lint::SpanDominance
            | Lint::LockDiscipline
            | Lint::MalformedSuppression
            | Lint::StaleSuppression => {}
        }
    }

    check_ast_lints(file, scope, &tokens, &in_test, &mut findings);

    // Apply suppressions, tracking which directives earn their keep; a
    // directive that suppresses nothing is itself a finding (and, like
    // malformed-suppression, cannot be suppressed away).
    let mut used = vec![false; suppressions.directives.len()];
    findings.retain(|f| {
        let hits = suppressions.matching(f);
        for &i in &hits {
            used[i] = true;
        }
        hits.is_empty()
    });
    for (i, d) in suppressions.directives.iter().enumerate() {
        if !used[i] {
            findings.push(finding(
                Lint::StaleSuppression,
                file,
                d.line,
                format!(
                    "suppression allows `{}` but that lint does not fire on \
                     the lines it covers; remove the directive",
                    d.lint
                ),
            ));
        }
    }

    findings.sort_by_key(|f| (f.line, f.lint));
    for f in &mut findings {
        f.snippet = snippet_at(source, f.line);
    }
    findings
}

/// Parses the non-test tokens and runs whichever dataflow analyses the
/// scope enables.
fn check_ast_lints(
    file: &str,
    scope: Scope,
    tokens: &[Token],
    in_test: &[bool],
    findings: &mut Vec<Finding>,
) {
    let wants = |l: Lint| scope.lints().contains(&l);
    let lock_applies =
        wants(Lint::LockDiscipline) && (file.contains("/hub") || file.contains("/profile"));
    if !wants(Lint::IdentityTaint) && !wants(Lint::SpanDominance) && !lock_applies {
        return;
    }
    let non_test: Vec<Token> = tokens
        .iter()
        .zip(in_test)
        .filter(|(_, &masked)| !masked)
        .map(|(t, _)| t.clone())
        .collect();
    let ast = parser::parse_tokens(&non_test);

    if wants(Lint::IdentityTaint) {
        for tf in dataflow::identity_taint(&ast, &ANONYMITY_DENYLIST) {
            findings.push(finding(
                Lint::IdentityTaint,
                file,
                tf.line,
                format!(
                    "{} data from {} (line {}) flows into {}",
                    tf.tag.kind.describe(),
                    tf.tag.origin,
                    tf.tag.line,
                    tf.sink
                ),
            ));
        }
    }
    if wants(Lint::SpanDominance) {
        for sf in dataflow::span_dominance(&ast) {
            findings.push(finding(
                Lint::SpanDominance,
                file,
                sf.line,
                format!(
                    "send site `{}` in fn `{}` is not covered by a span on \
                     every path (chain `.in_span(…)` or stamp the tail value)",
                    sf.site, sf.func
                ),
            ));
        }
    }
    if lock_applies {
        for lf in dataflow::lock_discipline(&ast) {
            let message = if lf.outside {
                format!(
                    "`{}` in fn `{}` runs outside any hub lock guard",
                    lf.op, lf.func
                )
            } else {
                format!(
                    "`{}` in fn `{}` runs in a second lock region; all \
                     meter/stamp/trace ops of one fn share one critical section",
                    lf.op, lf.func
                )
            };
            findings.push(finding(Lint::LockDiscipline, file, lf.line, message));
        }
    }
}

/// The source line a finding points at, trimmed and capped.
fn snippet_at(source: &str, line: usize) -> String {
    let raw = source
        .lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim();
    let mut out: String = raw.chars().take(120).collect();
    if raw.chars().count() > 120 {
        out.push('…');
    }
    out
}

/// Marks tokens inside `#[cfg(test)]` items (the attribute, and the item
/// it attaches to, through the matching `;` or closing brace).
fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let attr_end = skip_attr(tokens, i);
            let mut j = attr_end;
            // Further attributes on the same item (`#[cfg(test)] #[derive(..)]`).
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            // The item body: through the matching close of the first brace
            // block, or a top-level `;` before any brace opens.
            let mut depth = 0usize;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    j += 1;
                    break;
                }
                j += 1;
            }
            for m in &mut mask[i..j.min(tokens.len())] {
                *m = true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether tokens at `i` start `#[cfg(test)]` (possibly with whitespace
/// already stripped by the lexer).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let non_comment = |k: usize| -> Option<&Token> {
        tokens
            .get(k)
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    };
    tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && non_comment(i + 1).is_some_and(|t| t.is_punct('['))
        && non_comment(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && non_comment(i + 3).is_some_and(|t| t.is_punct('('))
        && non_comment(i + 4).is_some_and(|t| t.is_ident("test"))
}

/// Returns the index just past the attribute starting at `i` (`#[ … ]`,
/// bracket-balanced).
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // past `#`
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// One well-formed suppression directive.
struct Directive {
    /// The lint it allows.
    lint: Lint,
    /// The comment's own line; a line directive also covers the next line.
    line: usize,
    /// `allow-file(…)` covers the whole file.
    whole_file: bool,
}

/// Parsed suppression directives of one file.
struct Suppressions {
    directives: Vec<Directive>,
}

impl Suppressions {
    /// Indices of every directive that suppresses `finding`. The
    /// suppression-health lints are never themselves suppressible.
    fn matching(&self, finding: &Finding) -> Vec<usize> {
        if matches!(
            finding.lint,
            Lint::MalformedSuppression | Lint::StaleSuppression
        ) {
            return Vec::new();
        }
        self.directives
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.lint == finding.lint
                    && (d.whole_file || finding.line == d.line || finding.line == d.line + 1)
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Scans comment tokens for `anonlint:` directives; malformed ones become
/// findings immediately.
fn collect_suppressions(file: &str, tokens: &[Token]) -> (Suppressions, Vec<Finding>) {
    let mut sup = Suppressions {
        directives: Vec::new(),
    };
    let mut findings = Vec::new();
    for token in tokens {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(directive) = token.text.split("anonlint:").nth(1) else {
            continue;
        };
        match parse_directive(directive.trim()) {
            Ok((lint, whole_file)) => sup.directives.push(Directive {
                lint,
                line: token.line,
                whole_file,
            }),
            Err(why) => findings.push(finding(Lint::MalformedSuppression, file, token.line, why)),
        }
    }
    (sup, findings)
}

/// Parses `allow(lint-name) -- reason` / `allow-file(lint-name) -- reason`.
/// Returns `(lint, is_whole_file)`.
fn parse_directive(directive: &str) -> Result<(Lint, bool), String> {
    let (head, reason) = directive
        .split_once("--")
        .ok_or_else(|| "suppression missing `-- reason`".to_string())?;
    if reason.trim().is_empty() {
        return Err("suppression reason is empty".to_string());
    }
    let head = head.trim();
    let (whole_file, rest) = if let Some(rest) = head.strip_prefix("allow-file(") {
        (true, rest)
    } else if let Some(rest) = head.strip_prefix("allow(") {
        (false, rest)
    } else {
        return Err(format!("expected allow(…) or allow-file(…), got {head:?}"));
    };
    let name = rest
        .strip_suffix(')')
        .ok_or_else(|| "unclosed allow(".to_string())?
        .trim();
    let lint =
        Lint::from_name(name).ok_or_else(|| format!("unknown lint {name:?} in suppression"))?;
    Ok((lint, whole_file))
}

fn finding(lint: Lint, file: &str, line: usize, message: impl Into<String>) -> Finding {
    Finding {
        lint,
        file: file.to_string(),
        line,
        message: message.into(),
        snippet: String::new(),
    }
}

fn check_forbid_unsafe(file: &str, code: &[(usize, &Token)], findings: &mut Vec<Finding>) {
    for (_, t) in code {
        if t.is_ident("unsafe") {
            findings.push(finding(
                Lint::ForbidUnsafe,
                file,
                t.line,
                "`unsafe` is forbidden in this workspace",
            ));
        }
    }
    // Crate roots must pin the guarantee declaratively too.
    if file.ends_with("lib.rs") {
        let has_forbid = code.windows(4).any(|w| {
            w[0].1.is_ident("forbid")
                && w[1].1.is_punct('(')
                && w[2].1.is_ident("unsafe_code")
                && w[3].1.is_punct(')')
        });
        if !has_forbid {
            findings.push(finding(
                Lint::ForbidUnsafe,
                file,
                1,
                "crate root missing `#![forbid(unsafe_code)]`",
            ));
        }
    }
}

fn check_no_unwrap(file: &str, code: &[(usize, &Token)], findings: &mut Vec<Finding>) {
    for (_, t) in code {
        if t.is_ident("unwrap") {
            findings.push(finding(
                Lint::NoUnwrapInRuntime,
                file,
                t.line,
                "bare `unwrap` in runtime code: use `expect(\"<invariant>\")` \
                 or suppress with a justification",
            ));
        }
    }
}

fn check_unmetered_send(
    file: &str,
    scope: Scope,
    code: &[(usize, &Token)],
    findings: &mut Vec<Finding>,
) {
    let surface: &[&str] = match scope {
        // Algorithm code must not even name the raw machinery.
        Scope::Algorithms => &RAW_SEND_SURFACE,
        // Inside sim, only the runtime module owns meter writes; the
        // engines drive `LinkFabric` (which meters internally) but must
        // never account a send themselves.
        Scope::Runtime => {
            if file.contains("/runtime/") {
                return;
            }
            &["record_send"]
        }
        // The hub is the net-side mirror of `sim::runtime`: it alone may
        // write the meter. Workers, transports and the conformance oracle
        // must route every send through it.
        Scope::NetDriver => {
            if file.contains("/hub") {
                return;
            }
            &["record_send", "LinkFabric"]
        }
    };
    for (_, t) in code {
        if surface.iter().any(|s| t.is_ident(s)) {
            findings.push(finding(
                Lint::UnmeteredSend,
                file,
                t.line,
                format!(
                    "`{}` belongs to the metered send path in sim::runtime; \
                     sends must go through `Emit`",
                    t.text
                ),
            ));
        }
    }
}

/// Marks tokens inside `impl … Topology for …` blocks. Implementing the
/// [`Topology`] trait is *defining* wiring (the sanctioned substrate
/// surface, like `sim::runtime` for the meter), so the anonymity denylist
/// does not apply there; everything outside such a block still does.
fn topology_impl_mask(code: &[(usize, &Token)]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !code[i].1.is_ident("impl") {
            i += 1;
            continue;
        }
        // The header runs to the block's `{`; it qualifies when it names
        // the Topology trait with a `for` (a trait impl, not inherent).
        let mut j = i + 1;
        let mut names_topology = false;
        let mut has_for = false;
        while j < code.len() && !code[j].1.is_punct('{') {
            names_topology |= code[j].1.is_ident("Topology");
            has_for |= code[j].1.is_ident("for");
            j += 1;
        }
        if !(names_topology && has_for) || j == code.len() {
            i = j;
            continue;
        }
        // Mask the header and the brace-balanced body.
        let mut depth = 0usize;
        let mut k = j;
        while k < code.len() {
            if code[k].1.is_punct('{') {
                depth += 1;
            } else if code[k].1.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
        for m in &mut mask[i..k] {
            *m = true;
        }
        i = k;
    }
    mask
}

fn check_anonymity_breach(file: &str, code: &[(usize, &Token)], findings: &mut Vec<Finding>) {
    let in_topology_impl = topology_impl_mask(code);
    for (k, (_, t)) in code.iter().enumerate() {
        if in_topology_impl[k] {
            continue;
        }
        if ANONYMITY_DENYLIST.iter().any(|s| t.is_ident(s)) {
            findings.push(finding(
                Lint::AnonymityBreach,
                file,
                t.line,
                format!(
                    "`{}` reads ring wiring or processor identity; algorithm \
                     code sees only its local ports",
                    t.text
                ),
            ));
        }
    }
    // The `from_config(config, |index, input| …)` construction closure: the
    // index parameter exists so engines can build per-processor state, but
    // an *anonymous* algorithm must leave it unbound (`_` / `_foo`).
    for (pos, window) in code.windows(12).enumerate() {
        if !window[0].1.is_ident("from_config") {
            continue;
        }
        let Some(bar) = window.iter().skip(1).position(|(_, t)| t.is_punct('|')) else {
            continue;
        };
        let Some((_, param)) = code.get(pos + 1 + bar + 1) else {
            continue;
        };
        if param.kind == TokenKind::Ident && !param.text.starts_with('_') {
            findings.push(finding(
                Lint::AnonymityBreach,
                file,
                param.line,
                format!(
                    "construction closure binds the processor index as `{}`; \
                     anonymous algorithms must not read it (rename to `_`)",
                    param.text
                ),
            ));
        }
    }
}

fn check_span_coverage(file: &str, code: &[(usize, &Token)], findings: &mut Vec<Finding>) {
    let mut first_send: Option<usize> = None;
    let mut has_span = false;
    for (i, (_, t)) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if SEND_VOCABULARY.contains(&t.text.as_str()) {
            first_send.get_or_insert(t.line);
        }
        // Field-built steps (`step.to_left = Some(..)`) count as sends too.
        if (t.text == "to_left" || t.text == "to_right")
            && code.get(i + 1).is_some_and(|(_, n)| n.is_punct('='))
        {
            first_send.get_or_insert(t.line);
        }
        if t.text == "in_span" || t.text == "set_span" {
            has_span = true;
        }
    }
    if let Some(line) = first_send {
        if !has_span {
            findings.push(finding(
                Lint::SpanCoverage,
                file,
                line,
                "this algorithm sends messages but never stamps a telemetry \
                 `Span` (use `Emit::in_span`); per-phase budgets are invisible",
            ));
        }
    }
}

/// How a [`SCOPE_TABLE`] row matches repo-relative, `/`-separated paths.
/// Deliberately glob-free: a row either owns a directory subtree or names
/// one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMatch {
    /// Every `.rs` file under this directory (the prefix must end at a
    /// path-component boundary: `crates/net/src` matches
    /// `crates/net/src/hub.rs`, not `crates/net/srcery.rs`).
    Prefix(&'static str),
    /// Exactly this file.
    File(&'static str),
}

impl PathMatch {
    /// Whether `path` (repo-relative, `/`-separated) falls under this row.
    #[must_use]
    pub fn matches(self, path: &str) -> bool {
        match self {
            PathMatch::Prefix(p) => path
                .strip_prefix(p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/')),
            PathMatch::File(f) => path == f,
        }
    }
}

/// One row of the scope table.
#[derive(Debug, Clone, Copy)]
pub struct ScopeEntry {
    /// Which paths the row claims.
    pub path: PathMatch,
    /// Invariant set for files under it.
    pub scope: Scope,
}

/// The lint charter as data: which invariant set governs which paths.
/// First match wins, so put narrower rows before wider ones. The two
/// `File` rows are the serving path: it lives in `bench` but drives the
/// net runtime on live jobs, so it carries the net-driver invariants.
pub const SCOPE_TABLE: &[ScopeEntry] = &[
    ScopeEntry {
        path: PathMatch::Prefix("crates/core/src/algorithms"),
        scope: Scope::Algorithms,
    },
    ScopeEntry {
        path: PathMatch::Prefix("crates/sim/src"),
        scope: Scope::Runtime,
    },
    // The S27 cluster subsystem, named explicitly ahead of the net
    // prefix row: these files realise cross-shard wiring and must carry
    // the net-driver invariants even if the prefix row is ever narrowed.
    ScopeEntry {
        path: PathMatch::File("crates/net/src/cluster.rs"),
        scope: Scope::NetDriver,
    },
    ScopeEntry {
        path: PathMatch::File("crates/net/src/manifest.rs"),
        scope: Scope::NetDriver,
    },
    ScopeEntry {
        path: PathMatch::Prefix("crates/net/src"),
        scope: Scope::NetDriver,
    },
    ScopeEntry {
        path: PathMatch::File("crates/bench/src/ringd.rs"),
        scope: Scope::NetDriver,
    },
    ScopeEntry {
        path: PathMatch::File("crates/bench/src/load.rs"),
        scope: Scope::NetDriver,
    },
    ScopeEntry {
        path: PathMatch::File("crates/bench/src/cluster.rs"),
        scope: Scope::NetDriver,
    },
];

/// The scope governing `path`, if any row of [`SCOPE_TABLE`] claims it
/// (first match wins).
#[must_use]
pub fn scope_for(path: &str) -> Option<Scope> {
    SCOPE_TABLE
        .iter()
        .find(|e| e.path.matches(path))
        .map(|e| e.scope)
}

/// Lints every `.rs` file claimed by the [`SCOPE_TABLE`] under
/// `repo_root`. Deterministic: files are visited in sorted path order.
///
/// # Errors
///
/// Propagates filesystem errors (missing roots, unreadable files).
pub fn lint_repo(repo_root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for entry in SCOPE_TABLE {
        match entry.path {
            PathMatch::Prefix(p) => collect_rs_files(&repo_root.join(p), &mut files)?,
            PathMatch::File(f) => files.push(repo_root.join(f)),
        }
    }
    files.sort();
    files.dedup();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(repo_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let source = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &source, scope));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A committed set of grandfathered findings: per `(lint, file)` counts.
/// The lint CLI fails only when a file's count for some lint *exceeds* its
/// baseline (so old debt does not block CI, but new debt does).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<(String, String), u64>,
}

impl Baseline {
    /// An empty baseline: every finding is new.
    #[must_use]
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Parses the baseline format: one `lint-name<TAB>file<TAB>count` per
    /// line; `#` lines and blank lines are comments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(input: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (idx, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(lint), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!(
                    "baseline line {}: expected lint<TAB>file<TAB>count",
                    idx + 1
                ));
            };
            if Lint::from_name(lint).is_none() {
                return Err(format!("baseline line {}: unknown lint {lint:?}", idx + 1));
            }
            let count: u64 = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count {count:?}", idx + 1))?;
            entries.insert((lint.to_string(), file.to_string()), count);
        }
        Ok(Baseline { entries })
    }

    /// Serializes `findings` as a baseline file.
    #[must_use]
    pub fn render(findings: &[Finding]) -> String {
        let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.lint.name().to_string(), f.file.clone()))
                .or_default() += 1;
        }
        let mut out = String::from(
            "# anonlint baseline: grandfathered findings as lint<TAB>file<TAB>count.\n\
             # CI fails when a count grows; shrink freely.\n",
        );
        for ((lint, file), count) in counts {
            out.push_str(&format!("{lint}\t{file}\t{count}\n"));
        }
        out
    }

    /// Splits findings into `(new, grandfathered)` against this baseline,
    /// plus stale entries whose debt has been paid off.
    #[must_use]
    pub fn diff<'f>(
        &self,
        findings: &'f [Finding],
    ) -> (Vec<&'f Finding>, Vec<&'f Finding>, Vec<(String, String)>) {
        let mut used: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut fresh = Vec::new();
        let mut old = Vec::new();
        for f in findings {
            let key = (f.lint.name().to_string(), f.file.clone());
            let budget = self.entries.get(&key).copied().unwrap_or(0);
            let slot = used.entry(key).or_default();
            if *slot < budget {
                *slot += 1;
                old.push(f);
            } else {
                fresh.push(f);
            }
        }
        let stale = self
            .entries
            .iter()
            .filter(|(key, budget)| used.get(*key).copied().unwrap_or(0) < **budget)
            .map(|(key, _)| key.clone())
            .collect();
        (fresh, old, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_algo(src: &str) -> Vec<Finding> {
        lint_source(
            "crates/core/src/algorithms/fixture.rs",
            src,
            Scope::Algorithms,
        )
    }

    fn lint_sim(src: &str) -> Vec<Finding> {
        lint_source("crates/sim/src/fixture.rs", src, Scope::Runtime)
    }

    fn lint_net(src: &str) -> Vec<Finding> {
        lint_source("crates/net/src/fixture.rs", src, Scope::NetDriver)
    }

    fn names(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint.name()).collect()
    }

    #[test]
    fn net_driver_code_must_not_write_the_meter() {
        let src = r"
            pub fn route(&self, meter: &mut CostMeter) {
                meter.record_send(bits);
            }
        ";
        let f = lint_net(src);
        assert_eq!(names(&f), vec!["unmetered-send"], "{f:?}");
    }

    #[test]
    fn the_net_hub_is_exempt_like_sim_runtime() {
        let src =
            "pub fn route(&self) { let mut inner = self.lock(); inner.meter.record_send(bits); }";
        let f = lint_source("crates/net/src/hub.rs", src, Scope::NetDriver);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn net_driver_code_must_not_read_ring_wiring() {
        let src = "pub fn wire(t: &RingTopology) { let x = t.neighbor(0, Port::Left); }";
        let f = lint_net(src);
        assert_eq!(names(&f), vec!["anonymity-breach"], "{f:?}");
        let suppressed = format!("// anonlint: allow(anonymity-breach) -- substrate wiring\n{src}");
        assert!(lint_net(&suppressed).is_empty());
    }

    #[test]
    fn net_driver_scope_keeps_the_runtime_unwrap_rule() {
        let f = lint_net("pub fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(names(&f), vec!["no-unwrap-in-runtime"], "{f:?}");
    }

    #[test]
    fn seeded_anonymity_breach_is_detected() {
        let src = r"
            pub fn run(config: &RingConfig<u8>) -> SyncReport<u8> {
                let mut engine = SyncEngine::from_config(config, |i, &input| {
                    Proc::new(i, input) // branches on the processor index!
                });
                engine.run().unwrap()
            }
        ";
        let f = lint_algo(src);
        assert_eq!(names(&f), vec!["anonymity-breach"], "{f:?}");
        assert!(f[0].message.contains("`i`"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn underscore_index_parameter_is_sanctioned() {
        let src = r#"
            pub fn run(config: &RingConfig<u8>) -> SyncReport<u8> {
                let mut engine = SyncEngine::from_config(config, |_, &input| Proc::new(input));
                engine.run().expect("engine cannot fail on a valid config")
            }
        "#;
        assert_eq!(lint_algo(src), vec![]);
    }

    #[test]
    fn seeded_unmetered_send_is_detected() {
        let src = r"
            fn sneak(&mut self, fabric: &mut LinkFabric<u8>) {
                fabric.queues[0].push_back(message); // bypasses the meter
            }
        ";
        let f = lint_algo(src);
        assert!(names(&f).contains(&"unmetered-send"), "{f:?}");
    }

    #[test]
    fn peeking_at_a_queue_head_is_an_unmetered_send() {
        let f = lint_algo("fn peek(f: &Fabric) -> Option<Candidate> { f.queue_head(0, p) }");
        assert_eq!(names(&f), vec!["unmetered-send"], "{f:?}");
    }

    #[test]
    fn record_send_outside_runtime_module_is_flagged() {
        let f = lint_sim("fn cheat(m: &mut CostMeter) { m.record_send(0, 8); }");
        assert_eq!(names(&f), vec!["unmetered-send"]);
        // … but inside sim/src/runtime it is the sanctioned implementation.
        let ok = lint_source(
            "crates/sim/src/runtime/mailbox.rs",
            "fn send(m: &mut CostMeter) { m.record_send(0, 8); }",
            Scope::Runtime,
        );
        assert_eq!(ok, vec![]);
    }

    #[test]
    fn span_coverage_requires_in_span_when_sending() {
        let bare = "fn step(&mut self) -> Step<u8, u8> { Step::send_left(1) }";
        let f = lint_algo(bare);
        // Both tiers agree: no span anywhere (file-level) and the send
        // site itself is undominated (path-level).
        assert_eq!(names(&f), vec!["span-coverage", "span-dominance"]);
        let spanned =
            "fn step(&mut self) -> Step<u8, u8> { Step::send_left(1).in_span(\"probe\", 0) }";
        assert_eq!(lint_algo(spanned), vec![]);
        let silent = "fn helper() -> u64 { 42 }";
        assert_eq!(lint_algo(silent), vec![]);
    }

    #[test]
    fn field_built_sends_count_for_span_coverage() {
        let src = "fn step(&mut self) { step.to_right = Some(Msg::Token); }";
        assert_eq!(
            names(&lint_algo(src)),
            vec!["span-coverage", "span-dominance"]
        );
    }

    #[test]
    fn unwrap_in_runtime_is_flagged_but_not_in_tests_or_docs() {
        let src = r#"
            /// ```
            /// engine.run().unwrap(); // doc example: fine
            /// ```
            fn hot_path(q: &mut Queue) { let head = q.pop().unwrap(); }

            #[cfg(test)]
            mod tests {
                #[test]
                fn probe() { build().unwrap(); }
            }
        "#;
        let f = lint_sim(src);
        assert_eq!(names(&f), vec!["no-unwrap-in-runtime"]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn option_unwrap_path_form_is_flagged_too() {
        let f = lint_sim("fn f(v: Vec<Option<u8>>) { v.into_iter().map(Option::unwrap); }");
        assert_eq!(names(&f), vec!["no-unwrap-in-runtime"]);
    }

    #[test]
    fn unsafe_is_always_a_finding() {
        let f = lint_sim("fn f() { unsafe { core::hint::unreachable_unchecked() } }");
        assert!(names(&f).contains(&"forbid-unsafe"));
    }

    #[test]
    fn crate_roots_must_forbid_unsafe_declaratively() {
        let f = lint_source("crates/sim/src/lib.rs", "pub mod runtime;", Scope::Runtime);
        assert!(names(&f).contains(&"forbid-unsafe"), "{f:?}");
        let ok = lint_source(
            "crates/sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod runtime;",
            Scope::Runtime,
        );
        assert_eq!(ok, vec![]);
    }

    #[test]
    fn suppressions_require_a_reason_and_a_known_lint() {
        let justified = r#"
            // anonlint: allow(no-unwrap-in-runtime) -- head checked by caller
            fn f(q: &mut Queue) { q.pop().unwrap(); }
        "#;
        assert_eq!(lint_sim(justified), vec![]);

        let trailing = "fn f(q: &mut Queue) { q.pop().unwrap(); } \
                        // anonlint: allow(no-unwrap-in-runtime) -- head checked above";
        assert_eq!(lint_sim(trailing), vec![]);

        let unjustified = r#"
            // anonlint: allow(no-unwrap-in-runtime)
            fn f(q: &mut Queue) { q.pop().unwrap(); }
        "#;
        let f = lint_sim(unjustified);
        assert_eq!(
            names(&f),
            vec!["malformed-suppression", "no-unwrap-in-runtime"],
            "{f:?}"
        );

        let unknown = "// anonlint: allow(made-up-lint) -- because\nfn f() {}";
        assert_eq!(names(&lint_sim(unknown)), vec!["malformed-suppression"]);
    }

    #[test]
    fn file_level_suppression_covers_every_occurrence() {
        let src = r#"
            //! anonlint: allow-file(no-unwrap-in-runtime) -- shim crate, test-only surface
            fn a(q: &mut Queue) { q.pop().unwrap(); }
            fn b(q: &mut Queue) { q.pop().unwrap(); }
        "#;
        assert_eq!(lint_sim(src), vec![]);
    }

    #[test]
    fn suppression_does_not_leak_past_the_next_line() {
        let src = r#"
            // anonlint: allow(no-unwrap-in-runtime) -- only the next line
            fn a(q: &mut Queue) { q.pop().unwrap(); }
            fn b(q: &mut Queue) { q.pop().unwrap(); }
        "#;
        let f = lint_sim(src);
        assert_eq!(names(&f), vec!["no-unwrap-in-runtime"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn anonymity_denylist_catches_topology_introspection() {
        let f =
            lint_algo("fn peek(t: &RingTopology) { let (to, port) = t.neighbor(0, Port::Left); }");
        assert_eq!(names(&f), vec!["anonymity-breach"]);
    }

    #[test]
    fn anonymity_denylist_covers_the_port_topology_api() {
        for probe in [
            "fn peek(t: &dyn Topology) { let (to, p) = t.neighbor_port(0, PortId::LEFT); }",
            "fn peek(t: &GraphTopology) { let d = t.wiring_digest(); }",
            "fn peek(t: &DynamicTopology) { let d = t.round_digest(3); }",
            "fn peek(t: &DynamicTopology) { let e = t.active_edges(0); }",
            "fn peek(t: &GraphTopology) { let c = t.components(); }",
            "fn peek(t: &dyn Topology) { let a = t.is_active(0, 1, PortId::LEFT); }",
            "fn grab(t: &DynamicTopology) { let s = t.local_schedule(7); }",
        ] {
            let f = lint_algo(probe);
            assert_eq!(names(&f), vec!["anonymity-breach"], "{probe}");
        }
    }

    #[test]
    fn topology_trait_impls_are_sanctioned_wiring_definitions() {
        let src = r"
            impl Topology for Wheel {
                fn neighbor_port(&self, i: usize, p: PortId) -> (usize, PortId) {
                    self.inner.neighbor_port(i, p)
                }
                fn is_active(&self, r: u64, i: usize, p: PortId) -> bool {
                    self.inner.is_active(r, i, p)
                }
            }
        ";
        assert_eq!(lint_algo(src), vec![]);
        // …but an inherent impl (no `for`) gets no exemption.
        let inherent = r"
            impl Sneaky {
                fn peek(&self, t: &dyn Topology) -> bool { t.is_active(0, 0, PortId::LEFT) }
            }
        ";
        assert_eq!(names(&lint_algo(inherent)), vec!["anonymity-breach"]);
    }

    #[test]
    fn baseline_grandfathers_exact_counts_and_flags_growth() {
        let findings = vec![
            finding(Lint::NoUnwrapInRuntime, "a.rs", 3, "x"),
            finding(Lint::NoUnwrapInRuntime, "a.rs", 9, "y"),
            finding(Lint::SpanCoverage, "b.rs", 1, "z"),
        ];
        let baseline = Baseline::parse("no-unwrap-in-runtime\ta.rs\t1\n").unwrap();
        let (fresh, old, stale) = baseline.diff(&findings);
        assert_eq!(fresh.len(), 2, "one unwrap over budget + uncovered span");
        assert_eq!(old.len(), 1);
        assert!(stale.is_empty());

        // Round trip: render → parse covers everything.
        let full = Baseline::parse(&Baseline::render(&findings)).unwrap();
        let (fresh, old, stale) = full.diff(&findings);
        assert!(fresh.is_empty());
        assert_eq!(old.len(), 3);
        assert!(stale.is_empty());

        // Paid-off debt shows up as stale.
        let (_, _, stale) = full.diff(&findings[..1]);
        assert!(!stale.is_empty());
    }

    #[test]
    fn identity_taint_catches_flows_the_denylist_cannot_see() {
        let src = r#"
            fn step(&mut self, from: PortId) -> Step<Msg> {
                let who = from;
                Step::send(from, Msg::Claim(who)).in_span("claim", 0)
            }
        "#;
        let f = lint_algo(src);
        assert_eq!(names(&f), vec!["identity-taint"], "{f:?}");
        assert!(f[0].message.contains("port-identity"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn identity_taint_flags_wiring_dependent_branches() {
        let src = r"
            //! anonlint: allow-file(anonymity-breach) -- fixture reads wiring deliberately
            fn peek(&mut self, t: &RingTopology) {
                let d = t.wiring_digest();
                if d == 0 { self.halt(); }
            }
        ";
        let f = lint_algo(src);
        assert_eq!(names(&f), vec!["identity-taint"], "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("wiring"), "{}", f[0].message);
    }

    #[test]
    fn span_dominance_distinguishes_covered_and_bare_paths() {
        let src = r#"
            fn covered(&mut self) -> Step<u8> {
                let mut step = Step::idle();
                step.to_left = Some(Msg::Probe);
                step.in_span("probe", self.phase)
            }
            fn bare(&mut self) -> Step<u8> {
                Step::send_right(Msg::Probe)
            }
        "#;
        let f = lint_algo(src);
        assert_eq!(names(&f), vec!["span-dominance"], "{f:?}");
        assert!(f[0].message.contains("`bare`"), "{}", f[0].message);
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn hub_ops_outside_the_lock_guard_are_flagged() {
        let src = "pub fn sneak(&self) { self.inner.meter.record_send(8); }";
        let f = lint_source("crates/net/src/hub.rs", src, Scope::NetDriver);
        assert_eq!(names(&f), vec!["lock-discipline"], "{f:?}");
        assert!(f[0].message.contains("outside"), "{}", f[0].message);
    }

    #[test]
    fn hub_ops_split_across_two_lock_regions_are_flagged() {
        let src = r"
            pub fn split(&self) {
                { let mut a = self.lock(); a.meter.record_send(8); }
                { let mut b = self.lock(); b.events.push(ev); }
            }
        ";
        let f = lint_source("crates/net/src/hub.rs", src, Scope::NetDriver);
        assert_eq!(names(&f), vec!["lock-discipline"], "{f:?}");
        assert!(
            f[0].message.contains("second lock region"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn stale_suppressions_are_reported() {
        let src = r"
            // anonlint: allow(no-unwrap-in-runtime) -- nothing left to allow
            fn tidy(q: &mut Queue) -> Option<u8> { q.pop() }
        ";
        let f = lint_sim(src);
        assert_eq!(names(&f), vec!["stale-suppression"], "{f:?}");
        assert_eq!(f[0].line, 2);

        // A stale directive cannot be excused by another suppression.
        let doubled = r"
            // anonlint: allow-file(stale-suppression) -- futile
            // anonlint: allow(no-unwrap-in-runtime) -- nothing left to allow
            fn tidy(q: &mut Queue) -> Option<u8> { q.pop() }
        ";
        let f = lint_sim(doubled);
        assert_eq!(
            names(&f),
            vec!["stale-suppression", "stale-suppression"],
            "{f:?}"
        );
    }

    #[test]
    fn scope_table_claims_paths_at_component_boundaries() {
        assert_eq!(
            scope_for("crates/core/src/algorithms/leader.rs"),
            Some(Scope::Algorithms)
        );
        assert_eq!(
            scope_for("crates/sim/src/runtime/mailbox.rs"),
            Some(Scope::Runtime)
        );
        assert_eq!(scope_for("crates/net/src/hub.rs"), Some(Scope::NetDriver));
        // The serving-path rows claim exactly their files, nothing else.
        assert_eq!(
            scope_for("crates/bench/src/ringd.rs"),
            Some(Scope::NetDriver)
        );
        assert_eq!(
            scope_for("crates/bench/src/load.rs"),
            Some(Scope::NetDriver)
        );
        assert_eq!(scope_for("crates/bench/src/report.rs"), None);
        // Prefixes stop at path-component boundaries.
        assert_eq!(scope_for("crates/net/srcery.rs"), None);
        assert_eq!(scope_for("crates/core/src/algorithms_old/x.rs"), None);
    }

    #[test]
    fn findings_carry_snippet_and_why() {
        let f = lint_sim("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(f[0].snippet, "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        let shown = f[0].to_string();
        assert!(shown.contains("| fn f"), "{shown}");
        assert!(shown.contains("= why:"), "{shown}");
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(Baseline::parse("not-a-lint\ta.rs\t1\n").is_err());
        assert!(Baseline::parse("no-unwrap-in-runtime a.rs 1\n").is_err());
        assert!(Baseline::parse("no-unwrap-in-runtime\ta.rs\tmany\n").is_err());
        assert!(Baseline::parse("# comment\n\n").unwrap().entries.is_empty());
    }
}
