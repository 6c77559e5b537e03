//! Phase spans: algorithm-level annotations on the event stream.
//!
//! The paper's bounds are *per-phase* statements — `O(n)` messages per
//! Figure 2 elimination round, `≤ 4n` per Hirschberg–Sinclair phase,
//! `n(n−1)` for the single §4.1 distribution wave — so the telemetry layer
//! needs to know which phase each send belongs to. Algorithms attach a
//! [`Span`] to an emission via [`crate::runtime::Emit::in_span`]; the
//! engines stamp it onto every [`crate::runtime::SendEvent`] that emission
//! produces, and [`crate::telemetry::Recording::phase_profile`] aggregates
//! messages-per-(phase, round) from the stream.
//!
//! Spans are deliberately tiny (`&'static str` + `u64`, `Copy`): attaching
//! one costs nothing on the send path and nothing at all when no observer
//! cares.

/// A phase/round annotation carried by an emission and stamped onto each
/// of its sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Algorithm phase name (e.g. `"labels"`, `"collect"`, `"probe"`).
    /// Static so emissions stay `Copy`-friendly and allocation-free.
    pub phase: &'static str,
    /// Round/iteration index within the phase (0-based).
    pub round: u64,
}

impl Span {
    /// A span for round `round` of `phase`.
    #[must_use]
    pub const fn new(phase: &'static str, round: u64) -> Span {
        Span { phase, round }
    }
}

impl core::fmt::Display for Span {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}#{}", self.phase, self.round)
    }
}

#[cfg(test)]
mod tests {
    use super::Span;

    #[test]
    fn spans_are_ordered_by_phase_then_round() {
        let a = Span::new("collect", 0);
        let b = Span::new("collect", 3);
        let c = Span::new("labels", 0);
        assert!(a < b && b < c);
        assert_eq!(b.to_string(), "collect#3");
    }
}
