//! Timing wrappers around the engine's plug-in points.
//!
//! Each wrapper forwards to the component it wraps and times every call with
//! [`Instant`]. The engine applies a handler's actions after the handler
//! returns, so the wrapped intervals never nest: protocol handlers, network
//! `decide` and adversary callbacks are disjoint slices of the run's wall
//! time, and what is left over belongs to the engine and its scheduler.
//!
//! Wrappers keep plain local counters on the hot path and add them to the
//! shared [`LayerTally`] when dropped. The engine drops its components when
//! [`Simulation::run`](bft_simulator::sim_core::engine::Simulation::run)
//! returns, so the tally is complete by then.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bft_simulator::prelude::*;
use rand::rngs::SmallRng;

/// Calls into one layer and the host time spent inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Host nanoseconds spent inside the calls.
    pub nanos: u64,
}

impl Span {
    fn add(&mut self, other: Span) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    #[inline]
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// What the wrappers of one traced run measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTally {
    /// `Protocol::init`, `on_message` and `on_timer` (crates/protocols).
    pub protocols: Span,
    /// `NetworkModel::decide` (core::network and crates/net).
    pub net: Span,
    /// Messages the network model dropped.
    pub net_drops: u64,
    /// Deliveries that waited behind earlier traffic on their link.
    pub net_queued: u64,
    /// `Adversary::init`, `attack` and `on_timer` (crates/attacks).
    pub attacks: Span,
    /// Messages the adversary dropped.
    pub attack_drops: u64,
}

impl LayerTally {
    fn merge(&mut self, other: &LayerTally) {
        self.protocols.add(other.protocols);
        self.net.add(other.net);
        self.net_drops += other.net_drops;
        self.net_queued += other.net_queued;
        self.attacks.add(other.attacks);
        self.attack_drops += other.attack_drops;
    }
}

/// The tally the wrappers of one run add to as they are dropped.
#[derive(Debug, Clone, Default)]
pub struct SharedTally(Arc<Mutex<LayerTally>>);

impl SharedTally {
    /// A fresh, empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// What every dropped wrapper has added so far.
    pub fn snapshot(&self) -> LayerTally {
        *self
            .0
            .lock()
            .expect("a wrapper panicked while adding its tally")
    }

    fn flush(&self, local: &LayerTally) {
        // Drop must not panic: a poisoned tally is recovered, since every
        // update adds whole counters.
        let mut shared = self.0.lock().unwrap_or_else(|e| e.into_inner());
        shared.merge(local);
    }

    /// Wraps a protocol factory so that every node it creates is timed.
    pub fn protocols<F: ProtocolFactory + 'static>(
        &self,
        inner: F,
    ) -> impl Fn(NodeId) -> Box<dyn Protocol> + 'static {
        let tally = self.clone();
        move |id| {
            Box::new(TimedProtocol {
                inner: inner.create(id),
                local: LayerTally::default(),
                tally: tally.clone(),
            })
        }
    }

    /// Wraps a network model.
    pub fn network<N: NetworkModel>(&self, inner: N) -> TimedNetwork<N> {
        TimedNetwork {
            inner,
            local: LayerTally::default(),
            tally: self.clone(),
        }
    }

    /// Wraps an adversary.
    pub fn adversary<A: Adversary>(&self, inner: A) -> TimedAdversary<A> {
        TimedAdversary {
            inner,
            local: LayerTally::default(),
            tally: self.clone(),
        }
    }
}

/// A protocol instance whose handlers are timed.
pub struct TimedProtocol {
    inner: Box<dyn Protocol>,
    local: LayerTally,
    tally: SharedTally,
}

impl core::fmt::Debug for TimedProtocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TimedProtocol")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl Protocol for TimedProtocol {
    fn init(&mut self, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        self.local.protocols.time(|| inner.init(ctx));
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        self.local.protocols.time(|| inner.on_message(msg, ctx));
    }

    fn on_timer(&mut self, timer: &Timer, ctx: &mut Context<'_>) {
        let inner = &mut self.inner;
        self.local.protocols.time(|| inner.on_timer(timer, ctx));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TimedProtocol {
    fn drop(&mut self) {
        self.tally.flush(&self.local);
    }
}

/// A network model whose `decide` calls are timed.
pub struct TimedNetwork<N: NetworkModel> {
    inner: N,
    local: LayerTally,
    tally: SharedTally,
}

impl<N: NetworkModel> NetworkModel for TimedNetwork<N> {
    fn decide(
        &mut self,
        src: NodeId,
        dst: NodeId,
        now: SimTime,
        wire_bytes: u64,
        rng: &mut SmallRng,
    ) -> LinkDecision {
        let inner = &mut self.inner;
        let decision = self
            .local
            .net
            .time(|| inner.decide(src, dst, now, wire_bytes, rng));
        match decision.delivery() {
            None => self.local.net_drops += 1,
            Some(d) if d.queued > SimDuration::ZERO => self.local.net_queued += 1,
            Some(_) => {}
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<N: NetworkModel> Drop for TimedNetwork<N> {
    fn drop(&mut self) {
        self.tally.flush(&self.local);
    }
}

/// An adversary whose callbacks are timed.
pub struct TimedAdversary<A: Adversary> {
    inner: A,
    local: LayerTally,
    tally: SharedTally,
}

impl<A: Adversary> Adversary for TimedAdversary<A> {
    fn init(&mut self, api: &mut AdversaryApi<'_>) {
        let inner = &mut self.inner;
        self.local.attacks.time(|| inner.init(api));
    }

    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        api: &mut AdversaryApi<'_>,
    ) -> Fate {
        let inner = &mut self.inner;
        let fate = self.local.attacks.time(|| inner.attack(msg, proposed, api));
        if fate == Fate::Drop {
            self.local.attack_drops += 1;
        }
        fate
    }

    fn on_timer(&mut self, tag: u64, api: &mut AdversaryApi<'_>) {
        let inner = &mut self.inner;
        self.local.attacks.time(|| inner.on_timer(tag, api));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<A: Adversary> Drop for TimedAdversary<A> {
    fn drop(&mut self) {
        self.tally.flush(&self.local);
    }
}
