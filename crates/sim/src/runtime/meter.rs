//! The single cost-accounting layer.
//!
//! Every number in `SyncReport` and `AsyncReport` — and therefore every
//! EXPERIMENTS table — comes from one `CostMeter`, so the paper's message,
//! bit and time complexities are defined in exactly one place.
//!
//! The meter keeps totals only: the paper's costs are totals (§2,
//! Theorem 5.1), and a run's silent stretches cost it nothing here. A
//! per-cycle or per-epoch breakdown is read off the event stream instead
//! ([`crate::telemetry::Recording::per_time_activity`]).

/// Accumulates the costs of one run.
///
/// "Time" is the model's notion of it: the **send cycle** in the
/// synchronous model, the **arrival epoch** (sender's event epoch + 1,
/// Theorem 5.1's bookkeeping) in the asynchronous model. The engine passes
/// the appropriate value to [`CostMeter::record_send`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostMeter {
    /// Total messages sent (the paper's message complexity).
    pub messages: u64,
    /// Total bits sent (the paper's bit complexity), summing
    /// [`crate::Message::bit_len`] over every send.
    pub bits: u64,
    /// Deliveries performed (async model only; includes drops).
    pub deliveries: u64,
    /// Messages that reached an already-halted processor and were
    /// discarded.
    pub dropped: u64,
    /// Highest time index of any send.
    pub max_time: u64,
}

impl CostMeter {
    /// A zeroed meter.
    #[must_use]
    pub fn new() -> CostMeter {
        CostMeter::default()
    }

    /// Accounts one sent message of `bits` length at time index `time`.
    pub fn record_send(&mut self, time: u64, bits: usize) {
        self.messages += 1;
        self.bits += bits as u64;
        self.max_time = self.max_time.max(time);
    }

    /// Accounts one delivery (async model; called for drops too).
    pub fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Accounts one message discarded at a halted processor.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::CostMeter;

    #[test]
    fn sends_add_to_the_totals() {
        let mut m = CostMeter::new();
        m.record_send(1, 8);
        m.record_send(1, 8);
        m.record_send(3, 2);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 18);
        assert_eq!(m.max_time, 3);
    }

    #[test]
    fn max_time_is_the_latest_send_in_any_order() {
        let mut m = CostMeter::new();
        m.record_send(5, 1);
        m.record_send(2, 1);
        assert_eq!(m.max_time, 5, "an earlier send does not lower max_time");
        assert_eq!(
            m,
            CostMeter {
                messages: 2,
                bits: 2,
                max_time: 5,
                ..CostMeter::new()
            }
        );
    }

    #[test]
    fn drops_and_deliveries_are_independent_tallies() {
        let mut m = CostMeter::new();
        m.record_delivery();
        m.record_drop();
        m.record_delivery();
        assert_eq!((m.deliveries, m.dropped), (2, 1));
        assert_eq!(m.messages, 0);
    }
}
