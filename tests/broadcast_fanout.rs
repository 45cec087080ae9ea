//! Broadcast fan-out invariants of the zero-clone message hot path:
//!
//! 1. all `n − 1` destinations of one broadcast share the *same* payload
//!    allocation (`Arc::ptr_eq`), i.e. fan-out performs refcount bumps, not
//!    deep clones;
//! 2. an adversary mutating one destination's payload gets a private
//!    copy-on-write clone — the other destinations are unaffected;
//! 3. a recorded [`DeliverySchedule`] survives a JSON save/load cycle
//!    byte-identically and replays to the same decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bft_sim_core::json::Json;
use bft_sim_core::payload::Payload;
use bft_simulator::prelude::*;

#[derive(Debug)]
struct Ballot {
    round: u64,
    /// Deep clones of this run's ballots. Each run owns its counter, so
    /// tests running in parallel never see each other's clones.
    clones: Arc<AtomicU64>,
}

// Manual Clone so every deep copy of a broadcast payload is counted; the
// refcount bumps of the Arc fan-out never pass through here.
impl Clone for Ballot {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Ballot {
            round: self.round,
            clones: Arc::clone(&self.clones),
        }
    }
}

/// Round 0: every node broadcasts one `Ballot`; a node decides after its
/// first delivery.
#[derive(Debug, Clone)]
struct OneShotBroadcast {
    clones: Arc<AtomicU64>,
}

impl Protocol for OneShotBroadcast {
    fn init(&mut self, ctx: &mut Context<'_>) {
        ctx.broadcast(Ballot {
            round: 7,
            clones: Arc::clone(&self.clones),
        });
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Context<'_>) {
        if let Some(ballot) = msg.downcast_ref::<Ballot>() {
            ctx.decide(Value::new(ballot.round));
        }
    }

    fn on_timer(&mut self, _timer: &Timer, _ctx: &mut Context<'_>) {}

    fn name(&self) -> &'static str {
        "one-shot-broadcast"
    }
}

/// Builds every node of one run around the run's shared clone counter.
#[derive(Debug, Clone, Default)]
struct Factory {
    clones: Arc<AtomicU64>,
}

impl ProtocolFactory for Factory {
    fn create(&self, _node: NodeId) -> Box<dyn Protocol> {
        Box::new(OneShotBroadcast {
            clones: Arc::clone(&self.clones),
        })
    }
}

/// Per source node, the `(destination, payload allocation)` pairs its
/// broadcasts produced, in routing order.
type ObservedFanOut = Vec<Vec<(NodeId, Arc<dyn Payload>)>>;

/// Observes every routed message and collects, per source, the payload
/// allocation pointers the destinations received. Optionally mutates the
/// copy bound for one destination.
struct FanOutObserver {
    per_src: Arc<Mutex<ObservedFanOut>>,
    mutate_dst: Option<NodeId>,
}

impl Adversary for FanOutObserver {
    fn attack(
        &mut self,
        msg: &mut Message,
        proposed: SimDuration,
        _api: &mut AdversaryApi<'_>,
    ) -> Fate {
        if self.mutate_dst == Some(msg.dst()) {
            if let Some(ballot) = msg.downcast_mut::<Ballot>() {
                ballot.round = 99;
            }
        }
        let mut per_src = self.per_src.lock().unwrap();
        let src = msg.src().index();
        if per_src.len() <= src {
            per_src.resize_with(src + 1, Vec::new);
        }
        per_src[src].push((
            msg.dst(),
            Arc::clone(
                msg.payload_arc()
                    .expect("broadcast payloads are Arc-backed"),
            ),
        ));
        Fate::Deliver(proposed)
    }
}

/// Runs one broadcast round; also returns how many times the run
/// deep-cloned a `Ballot`.
fn run_observed(n: usize, mutate_dst: Option<NodeId>) -> (RunResult, ObservedFanOut, u64) {
    let per_src = Arc::new(Mutex::new(Vec::new()));
    let factory = Factory::default();
    let clones = Arc::clone(&factory.clones);
    let result = SimulationBuilder::new(RunConfig::new(n).with_seed(3))
        .network(ConstantNetwork::new(SimDuration::from_millis(10.0)))
        .adversary(FanOutObserver {
            per_src: Arc::clone(&per_src),
            mutate_dst,
        })
        .protocols(factory)
        .build()
        .unwrap()
        .run();
    let observed = per_src.lock().unwrap().clone();
    (result, observed, clones.load(Ordering::SeqCst))
}

#[test]
fn broadcast_peers_share_one_payload_allocation() {
    let n = 7;
    let (result, observed, clones) = run_observed(n, None);
    assert!(result.is_clean());
    // Every node broadcast once to its n − 1 peers…
    assert_eq!(observed.len(), n);
    for (src, seen) in observed.iter().enumerate() {
        assert_eq!(seen.len(), n - 1, "node {src} fan-out size");
        // …and all destination copies alias the same allocation.
        let (_, first) = &seen[0];
        for (dst, arc) in seen {
            assert!(
                Arc::ptr_eq(first, arc),
                "node {src} -> {dst}: payload was deep-cloned on fan-out"
            );
        }
    }
    // O(1) payload allocations per broadcast means zero deep clones here.
    assert_eq!(clones, 0, "broadcast fan-out deep-cloned a payload");
}

#[test]
fn adversary_mutation_is_copy_on_write() {
    let n = 5;
    let target = NodeId::new(2);
    let (result, observed, _) = run_observed(n, Some(target));
    // The forged ballot makes the target disagree with everyone else — the
    // safety checker must notice, which also proves the mutation landed.
    assert!(result.safety_violation.is_some());
    for (src, seen) in observed.iter().enumerate() {
        let tampered: Vec<_> = seen.iter().filter(|(dst, _)| *dst == target).collect();
        let intact: Vec<_> = seen.iter().filter(|(dst, _)| *dst != target).collect();
        let round = |arc: &Arc<dyn Payload>| {
            (**arc)
                .as_any()
                .downcast_ref::<Ballot>()
                .map(|b| b.round)
                .unwrap()
        };
        for (dst, arc) in &intact {
            assert_eq!(round(arc), 7, "node {src} -> {dst} was tampered");
        }
        if NodeId::new(src as u32) == target {
            // The target never broadcasts to itself, so nothing to tamper.
            assert!(tampered.is_empty());
            continue;
        }
        assert_eq!(tampered.len(), 1, "node {src}");
        // The mutated copy no longer aliases the shared payload, and it
        // alone carries the forged round.
        let (_, tampered_arc) = tampered[0];
        for (_, arc) in &intact {
            assert!(
                !Arc::ptr_eq(tampered_arc, arc),
                "node {src}: mutation aliased an honest destination"
            );
        }
        assert_eq!(round(tampered_arc), 99, "node {src}");
    }
    // The target nodes decided the forged value, everyone else the real one.
    for (node, seq) in result.decided.iter().enumerate() {
        let expected = if NodeId::new(node as u32) == target {
            99
        } else {
            7
        };
        assert_eq!(seq[0].1, Value::new(expected), "node {node}");
    }
}

#[test]
fn recorded_schedule_replays_byte_identically() {
    let n = 6;
    let build = |schedule: Option<DeliverySchedule>| {
        let builder = SimulationBuilder::new(RunConfig::new(n).with_seed(11))
            .network(ConstantNetwork::new(SimDuration::from_millis(25.0)))
            .protocols(Factory::default());
        match schedule {
            None => builder,
            Some(s) => builder.replay_schedule(s),
        }
        .build()
        .unwrap()
    };
    let (original, schedule) = build(None).run_recorded();
    assert!(original.is_clean());
    assert_eq!(schedule.len() as u64, original.honest_messages);

    // Save/load the schedule as JSON: byte-identical re-serialisation.
    let text = schedule.to_json().dump_pretty();
    let loaded = DeliverySchedule::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(loaded, schedule);
    assert_eq!(loaded.to_json().dump_pretty(), text);

    // Replaying the loaded schedule reproduces the run exactly.
    let replayed = build(Some(loaded)).run();
    Validator::check_replay(&original, &replayed).unwrap();
    assert_eq!(replayed.honest_messages, original.honest_messages);
    assert_eq!(replayed.broadcasts, original.broadcasts);
}
