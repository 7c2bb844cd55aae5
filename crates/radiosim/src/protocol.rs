//! The per-node protocol automaton interface.

use sinr_geometry::NodeId;

/// What a node does in a slot: transmit a message or listen.
///
/// The radio is half-duplex — a transmitting node receives nothing in the
/// same slot, matching the paper's model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Broadcast `M` this slot (delivery decided by the interference model).
    Transmit(M),
    /// Stay silent and listen.
    Listen,
}

impl<M> Action<M> {
    /// Whether this action is a transmission.
    pub fn is_transmit(&self) -> bool {
        matches!(self, Action::Transmit(_))
    }
}

/// Read-only per-slot context handed to the protocol callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCtx {
    /// This node's identifier.
    pub id: NodeId,
    /// The global synchronized slot number.
    pub global_slot: u64,
    /// Slots elapsed since this node woke up (0 in its first active slot).
    ///
    /// The MW algorithm is written against local time — all its intervals
    /// ("for ⌈ηΔ ln n⌉ time slots…") start at wake-up.
    pub local_slot: u64,
}

/// The randomness available to a protocol inside a slot.
///
/// Protocols draw through this trait (rather than a concrete RNG) so the
/// engine can hand each node an independently seeded generator and tests can
/// substitute deterministic sequences.
pub trait SlotRng {
    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool;
    /// A uniform draw from `[0, 1)`.
    fn uniform(&mut self) -> f64;
    /// A uniform integer draw from `0..bound` (`bound ≥ 1`).
    fn pick(&mut self, bound: u64) -> u64;
}

/// A [`SlotRng`] backed by any [`sinr_rng::Rng`].
#[derive(Debug)]
pub struct RandSlotRng<R>(pub R);

impl<R: sinr_rng::Rng> SlotRng for RandSlotRng<R> {
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.0.random::<f64>() < p
        }
    }

    fn uniform(&mut self) -> f64 {
        self.0.random::<f64>()
    }

    fn pick(&mut self, bound: u64) -> u64 {
        assert!(bound >= 1, "pick bound must be at least 1");
        self.0.random_range(0..bound)
    }
}

/// A protocol's promise about its next slots (see [`Protocol::quiet`]).
///
/// Each of the next `slots` slots in which the node heeds nothing, or
/// [absorbs](Protocol::absorb) what it heeds, is a *quiet slot*. In a
/// quiet slot `begin_slot` makes exactly one `chance(coin)` draw — none
/// when `coin ≤ 0`, exactly as [`RandSlotRng::chance`] — and transmits
/// iff that draw succeeds; the node stays active and keeps its `is_done`
/// answer; and a quiet slot in which it listens changes the node only in
/// the way [`Protocol::skip_quiet`] applies for `k` such slots at once,
/// plus what it absorbed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// The send probability of every quiet slot.
    pub coin: f64,
    /// How many slots the promise covers (`u64::MAX`: unbounded).
    pub slots: u64,
}

/// A node's protocol automaton.
///
/// Driven by the [`Simulator`](crate::Simulator): once per slot (while the
/// node is awake) it is asked for an [`Action`], the engine resolves all
/// transmissions through the interference model, and the slot's receptions
/// are delivered back via [`Protocol::end_slot`].
///
/// Protocols have *no* access to the topology — like the paper's nodes,
/// they learn about neighbors only through received messages.
///
/// Protocols are plain single-threaded automata: the engine steps every
/// node on the calling thread, in ascending id order, so neither the
/// protocol nor its messages need to be `Send` or `Sync`.
///
/// # Parked nodes
///
/// A protocol that promises quiet slots ([`Protocol::quiet`]) lets the
/// engine *park* the node: its coins are drawn ahead on a copy of its
/// generator, and the engine skips it until its first transmission or
/// the end of the promise. On waking, the engine brings the real
/// generator past the skipped coins and applies [`Protocol::skip_quiet`].
/// At the slot the coins were drawn ahead to it restores the copy the
/// draw-ahead left there; earlier — a woken receiver, the end of a call,
/// or a promise that a reception shortened — it replays the skipped
/// coins. Either way callbacks, generator streams and statistics are
/// exactly those of a node visited every slot. `run`, `run_observed`,
/// `run_recorded` and `step` catch every parked node up before they
/// return. An observer *inside* a run sees a parked node as of its last
/// real slot, plus what it absorbed, so it should read only state that
/// quiet slots leave unchanged.
///
/// A parked node that the interference model grants receptions has one
/// of three outcomes, decided before anything is copied or caught up:
///
/// 1. **Ignore.** It [heeds](Protocol::heeds) none of them: it stays
///    parked and no callback runs. A node that was [deaf](Protocol::deaf)
///    when it parked is not even asked: its receptions are counted, and
///    the delivery pass does not visit it.
/// 2. **Absorb.** It heeds one, and [`Protocol::absorb`] takes the
///    receptions in: it stays parked with its due slot and drawn-ahead
///    coins, and no slot callback runs.
/// 3. **Wake.** It heeds one and does not absorb them: it is caught up,
///    runs this slot's `begin_slot` (a quiet listen) and `end_slot`, and
///    parks again if it promises quiet slots.
pub trait Protocol {
    /// The message type broadcast by this protocol.
    type Message: Clone;

    /// Called once, in the slot the node wakes up, before its first
    /// `begin_slot`.
    fn on_wake(&mut self, _ctx: &NodeCtx) {}

    /// Decides this slot's action. Called exactly once per slot while the
    /// node is awake and not yet done.
    ///
    /// Generic over the RNG so the engine's hot loop monomorphizes to the
    /// concrete `RandSlotRng<&mut StdRng>` — no indirect call per awake
    /// node per slot. `?Sized` keeps `&mut dyn SlotRng` working for tests
    /// that substitute scripted sequences.
    fn begin_slot<R: SlotRng + ?Sized>(
        &mut self,
        ctx: &NodeCtx,
        rng: &mut R,
    ) -> Action<Self::Message>;

    /// Consumes this slot's receptions: `(sender, message)` pairs, empty if
    /// nothing was decoded (or the node transmitted). Called after every
    /// `begin_slot`, in the same slot, while the node is active.
    fn end_slot(&mut self, ctx: &NodeCtx, received: &[(NodeId, Self::Message)]);

    /// Whether the node has irrevocably produced its output. Done nodes
    /// may keep participating (the MW color classes `C_i` keep transmitting
    /// after deciding); the engine uses this only for termination detection
    /// and timing statistics.
    ///
    /// Like all protocol state, the answer may change only inside
    /// `on_wake`, `begin_slot` or `end_slot` (quiet slots keep it, see
    /// [`Quiet`]), so the engine polls it only in a slot in which the
    /// node had one of those callbacks.
    fn is_done(&self) -> bool;

    /// Whether the node still needs slots at all. Defaults to `true`;
    /// protocols whose terminal states are silent can return `false` to let
    /// the engine skip them entirely.
    fn is_active(&self) -> bool {
        true
    }

    /// How the node's next slots go while it hears nothing it heeds (see
    /// [`Quiet`]), asked after every `end_slot`. Defaults to `None`: no
    /// promise, so the engine visits the node every slot.
    fn quiet(&self) -> Option<Quiet> {
        None
    }

    /// Whether `end_slot` could act on `msg` from `sender`. Returning
    /// `false` promises that `end_slot` would ignore the message: with it
    /// the call does exactly what it does without it. May read only state
    /// that quiet slots leave unchanged, because the engine asks a parked
    /// node before catching it up. Defaults to `true`.
    fn heeds(&self, _sender: NodeId, _msg: &Self::Message) -> bool {
        true
    }

    /// Whether the node heeds nothing at all. Returning `true` promises
    /// that [`Protocol::heeds`] returns `false` for every sender and
    /// message until the node's next `begin_slot` or `end_slot`: the
    /// engine asks when it parks the node, and then counts the
    /// receptions granted to it without visiting it. May read only state
    /// that quiet slots leave unchanged. Defaults to `false`.
    fn deaf(&self) -> bool {
        false
    }

    /// Applies `slots` quiet slots in which the node listened and heard
    /// nothing it heeds, at once (see [`Quiet`]). The engine has already
    /// made their `chance` draws. Defaults to doing nothing.
    fn skip_quiet(&mut self, _slots: u64) {}

    /// Takes in this slot's `received` messages while the node stays
    /// parked, and returns whether it did. The engine asks a parked node
    /// that heeds one of its receptions, in a quiet slot before its due
    /// slot, before it would wake the node. `ctx` is this slot's context,
    /// and `lag` is the number of quiet slots before this one that the
    /// node has not yet applied (the slot minus its sync slot). Defaults
    /// to `false`.
    ///
    /// Returning `true` promises that absorbing, then
    /// `skip_quiet(lag + 1 + k)`, leaves the node exactly as catching up
    /// `lag` slots with `skip_quiet(lag)`, running this slot as a quiet
    /// listen (`begin_slot`, then `end_slot(ctx, received)`), then
    /// `skip_quiet(k)` would, for every `k` the promise still covers. Its
    /// quiet promise must then end at the same slot with the same coin,
    /// since the node keeps its due slot, its sync slot and its
    /// drawn-ahead generator. The node is read as of its sync slot, so
    /// state that quiet slots change is `lag` slots behind; the
    /// countdowns [`Protocol::skip_quiet`] applies are still owed.
    ///
    /// Returning `false` promises that the call changed nothing; the
    /// engine then wakes the node and runs the slot.
    fn absorb(&mut self, _ctx: &NodeCtx, _lag: u64, _received: &[(NodeId, Self::Message)]) -> bool {
        false
    }

    /// A hint that the engine will soon deliver receptions to the node:
    /// it may [prefetch](crate::prefetch) heap data that its `heeds`,
    /// `absorb` or `end_slot` will then read. The engine asks only in the
    /// delivery pass it picks for node arrays of at least
    /// [`PREFETCH_MIN_NODE_BYTES`](crate::PREFETCH_MIN_NODE_BYTES), a few
    /// receivers ahead in the slot's reception table, parked or sleeping
    /// receivers included. It must leave the node as it was. Defaults to
    /// doing nothing.
    fn prefetch(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_rng::rngs::StdRng;
    use sinr_rng::SeedableRng;

    #[test]
    fn action_is_transmit() {
        assert!(Action::Transmit(5u32).is_transmit());
        assert!(!Action::<u32>::Listen.is_transmit());
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut rng = RandSlotRng(StdRng::seed_from_u64(0));
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
            assert!(!rng.chance(-0.5));
            assert!(rng.chance(1.5));
        }
    }

    #[test]
    fn chance_probability_is_roughly_respected() {
        let mut rng = RandSlotRng(StdRng::seed_from_u64(42));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = RandSlotRng(StdRng::seed_from_u64(7));
        for _ in 0..1000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn pick_respects_bound() {
        let mut rng = RandSlotRng(StdRng::seed_from_u64(9));
        for _ in 0..1000 {
            assert!(rng.pick(7) < 7);
        }
        assert_eq!(rng.pick(1), 0);
    }
}
