//! The shared send/halt vocabulary: one [`Emit`] trait providing the
//! constructor helpers, implemented by the sync model's [`Step`] and the
//! async model's [`Actions`]; [`PortActions`] is the general-topology
//! emission both engines execute internally.

use crate::port::{Port, PortId};
use crate::runtime::span::Span;

/// What a synchronous processor does in one cycle: at most one message per
/// port, and possibly halting with an output. Messages emitted in the
/// halting step are still delivered (the paper's AND algorithm "forwards it
/// and halts").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step<M, O> {
    /// Message to send on the local left port.
    pub to_left: Option<M>,
    /// Message to send on the local right port.
    pub to_right: Option<M>,
    /// `Some(output)` to halt at the end of this cycle.
    pub halt: Option<O>,
    /// Phase annotation stamped onto this cycle's sends (telemetry only;
    /// no effect on execution).
    pub span: Option<Span>,
}

/// What an asynchronous processor does in response to an event: any number
/// of sends plus an optional halt. Sends are delivered in the order listed
/// (per link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Actions<M, O> {
    /// Messages to send, in order.
    pub sends: Vec<(Port, M)>,
    /// `Some(output)` to halt after this event.
    pub halt: Option<O>,
    /// Phase annotation stamped onto this event's sends (telemetry only;
    /// no effect on execution).
    pub span: Option<Span>,
}

/// What a general-topology processor does in response to one step or
/// event: sends addressed by [`PortId`], plus an optional halt and span.
///
/// Both engines execute this form internally; the ring-era [`Step`] and
/// [`Actions`] convert into it losslessly (`Left` ↦ port 0, `Right` ↦
/// port 1), so ring algorithms compile to exactly the emissions they
/// always produced. Processors written directly against the general API
/// (for example the dynamic-broadcast family) construct it with the
/// inherent builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortActions<M, O> {
    /// Messages to send, in order, addressed by local port.
    pub sends: Vec<(PortId, M)>,
    /// `Some(output)` to halt after this emission.
    pub halt: Option<O>,
    /// Phase annotation stamped onto this emission's sends (telemetry
    /// only; no effect on execution).
    pub span: Option<Span>,
}

impl<M, O> PortActions<M, O> {
    /// Do nothing: no sends, keep running.
    #[must_use]
    pub fn idle() -> Self {
        PortActions {
            sends: Vec::new(),
            halt: None,
            span: None,
        }
    }

    /// Send `msg` on local port `port`.
    #[must_use]
    pub fn send(port: PortId, msg: M) -> Self {
        Self::idle().and_send(port, msg)
    }

    /// Send a copy of `msg` on every port in `ports`, in order.
    #[must_use]
    pub fn send_each(ports: &[PortId], msg: M) -> Self
    where
        M: Clone,
    {
        let mut this = Self::idle();
        for &port in ports {
            this.sends.push((port, msg.clone()));
        }
        this
    }

    /// Halt with `output`, sending nothing.
    #[must_use]
    pub fn halt(output: O) -> Self {
        let mut this = Self::idle();
        this.halt = Some(output);
        this
    }

    /// Adds a send to this emission.
    #[must_use]
    pub fn and_send(mut self, port: PortId, msg: M) -> Self {
        self.sends.push((port, msg));
        self
    }

    /// Adds a halt to this emission (sends still happen).
    #[must_use]
    pub fn and_halt(mut self, output: O) -> Self {
        self.halt = Some(output);
        self
    }

    /// Annotates this emission's sends as belonging to round `round` of
    /// `phase`.
    #[must_use]
    pub fn in_span(mut self, phase: &'static str, round: u64) -> Self {
        self.span = Some(Span::new(phase, round));
        self
    }
}

impl<M, O> From<Step<M, O>> for PortActions<M, O> {
    fn from(step: Step<M, O>) -> PortActions<M, O> {
        let mut sends = Vec::new();
        if let Some(m) = step.to_left {
            sends.push((PortId::LEFT, m));
        }
        if let Some(m) = step.to_right {
            sends.push((PortId::RIGHT, m));
        }
        PortActions {
            sends,
            halt: step.halt,
            span: step.span,
        }
    }
}

impl<M, O> From<Actions<M, O>> for PortActions<M, O> {
    fn from(actions: Actions<M, O>) -> PortActions<M, O> {
        PortActions {
            sends: actions
                .sends
                .into_iter()
                .map(|(port, m)| (PortId::from(port), m))
                .collect(),
            halt: actions.halt,
            span: actions.span,
        }
    }
}

/// Constructors shared by every emission type ([`Step`], [`Actions`]).
///
/// Implementors provide the three primitives ([`Emit::idle`],
/// [`Emit::push_send`], [`Emit::set_halt`]); the builder vocabulary the
/// algorithms use is defined once on top of them.
pub trait Emit<M, O>: Sized {
    /// Do nothing: no sends, keep running.
    #[must_use]
    fn idle() -> Self;

    /// Appends a send of `msg` on `port`.
    ///
    /// For [`Step`] this fills the per-port slot (at most one message per
    /// port per cycle — the synchronous model's constraint); for
    /// [`Actions`] it appends to the ordered send list.
    fn push_send(&mut self, port: Port, msg: M);

    /// Marks this emission as halting with `output`.
    fn set_halt(&mut self, output: O);

    /// Attaches a phase [`Span`] to this emission; the engines stamp it
    /// onto every send the emission produces. Purely observational.
    fn set_span(&mut self, span: Span);

    /// Send `msg` on `port`.
    #[must_use]
    fn send(port: Port, msg: M) -> Self {
        Self::idle().and_send(port, msg)
    }

    /// Send `msg` on the left port only.
    #[must_use]
    fn send_left(msg: M) -> Self {
        Self::send(Port::Left, msg)
    }

    /// Send `msg` on the right port only.
    #[must_use]
    fn send_right(msg: M) -> Self {
        Self::send(Port::Right, msg)
    }

    /// Send on both ports (left first).
    #[must_use]
    fn send_both(left: M, right: M) -> Self {
        Self::send(Port::Left, left).and_send(Port::Right, right)
    }

    /// Halt with `output`, sending nothing.
    #[must_use]
    fn halt(output: O) -> Self {
        let mut this = Self::idle();
        this.set_halt(output);
        this
    }

    /// Adds a send to this emission.
    #[must_use]
    fn and_send(mut self, port: Port, msg: M) -> Self {
        self.push_send(port, msg);
        self
    }

    /// Adds a halt to this emission (sends still happen).
    #[must_use]
    fn and_halt(mut self, output: O) -> Self {
        self.set_halt(output);
        self
    }

    /// Annotates this emission's sends as belonging to round `round` of
    /// `phase` — the telemetry layer's messages-per-phase accounting hook.
    #[must_use]
    fn in_span(mut self, phase: &'static str, round: u64) -> Self {
        self.set_span(Span::new(phase, round));
        self
    }
}

impl<M, O> Emit<M, O> for Step<M, O> {
    fn idle() -> Self {
        Step {
            to_left: None,
            to_right: None,
            halt: None,
            span: None,
        }
    }

    fn push_send(&mut self, port: Port, msg: M) {
        let slot = match port {
            Port::Left => &mut self.to_left,
            Port::Right => &mut self.to_right,
        };
        debug_assert!(
            slot.is_none(),
            "synchronous step: at most one message per port per cycle"
        );
        *slot = Some(msg);
    }

    fn set_halt(&mut self, output: O) {
        self.halt = Some(output);
    }

    fn set_span(&mut self, span: Span) {
        self.span = Some(span);
    }
}

impl<M, O> Emit<M, O> for Actions<M, O> {
    fn idle() -> Self {
        Actions {
            sends: Vec::new(),
            halt: None,
            span: None,
        }
    }

    fn push_send(&mut self, port: Port, msg: M) {
        self.sends.push((port, msg));
    }

    fn set_halt(&mut self, output: O) {
        self.halt = Some(output);
    }

    fn set_span(&mut self, span: Span) {
        self.span = Some(span);
    }
}

#[cfg(test)]
mod tests {
    use super::{Actions, Emit, Step};
    use crate::port::Port;

    #[test]
    fn step_and_actions_share_the_constructor_vocabulary() {
        let step: Step<u8, ()> = Step::send_both(1, 2);
        assert_eq!(step.to_left, Some(1));
        assert_eq!(step.to_right, Some(2));
        assert!(step.halt.is_none());

        let actions: Actions<u8, ()> = Actions::send_both(1, 2);
        assert_eq!(actions.sends, vec![(Port::Left, 1), (Port::Right, 2)]);
        assert!(actions.halt.is_none());
    }

    #[test]
    fn halting_composes_with_sends() {
        let step: Step<u8, u8> = Step::send_left(3).and_halt(9);
        assert_eq!(
            (step.to_left, step.to_right, step.halt),
            (Some(3), None, Some(9))
        );

        let actions: Actions<u8, u8> = Actions::halt(9).and_send(Port::Right, 3);
        assert_eq!(actions.sends, vec![(Port::Right, 3)]);
        assert_eq!(actions.halt, Some(9));
    }

    #[test]
    fn spans_attach_to_both_emission_types() {
        use crate::runtime::span::Span;
        let step: Step<u8, ()> = Step::send_left(1).in_span("labels", 2);
        assert_eq!(step.span, Some(Span::new("labels", 2)));
        let actions: Actions<u8, ()> = Actions::idle().in_span("probe", 0);
        assert_eq!(actions.span, Some(Span::new("probe", 0)));
        let plain: Step<u8, ()> = Step::idle();
        assert_eq!(plain.span, None);
    }

    #[test]
    fn ring_emissions_lower_to_port_actions() {
        use crate::port::PortId;
        use crate::runtime::actions::PortActions;

        let step: Step<u8, u8> = Step::send_both(1, 2).and_halt(9);
        let lowered = PortActions::from(step);
        assert_eq!(lowered.sends, vec![(PortId::LEFT, 1), (PortId::RIGHT, 2)]);
        assert_eq!(lowered.halt, Some(9));

        let actions: Actions<u8, ()> = Actions::send(Port::Right, 7).and_send(Port::Left, 8);
        let lowered = PortActions::from(actions);
        assert_eq!(lowered.sends, vec![(PortId::RIGHT, 7), (PortId::LEFT, 8)]);

        let general: PortActions<u8, u8> =
            PortActions::send_each(&[PortId::new(0), PortId::new(2)], 5).and_halt(1);
        assert_eq!(
            general.sends,
            vec![(PortId::new(0), 5), (PortId::new(2), 5)]
        );
        assert_eq!(PortActions::<u8, u8>::halt(3).halt, Some(3));
        assert!(PortActions::<u8, ()>::idle().sends.is_empty());
        let spanned: PortActions<u8, ()> = PortActions::idle().in_span("flood", 2);
        assert!(spanned.span.is_some());
    }

    #[test]
    fn actions_preserve_send_order_across_repeated_ports() {
        let actions: Actions<u8, ()> = Actions::send(Port::Right, 1)
            .and_send(Port::Right, 2)
            .and_send(Port::Left, 3);
        assert_eq!(
            actions.sends,
            vec![(Port::Right, 1), (Port::Right, 2), (Port::Left, 3)]
        );
    }
}
