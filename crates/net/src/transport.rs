//! The transport abstraction: how envelopes travel along grid edges.
//!
//! Every cell owns one [`Mailbox`]: a mutex-guarded envelope queue that its
//! neighbors' links append to and that the cell's worker drains once per
//! exchange by swapping in a buffer it keeps, so delivery allocates nothing
//! once the buffers have grown to a round's traffic. The runtime does not
//! write to mailboxes directly; every directed edge `(from, to)` gets an
//! [`EdgeLink`] into `to`'s mailbox from the configured [`Transport`]:
//!
//! * [`PerfectTransport`] — the synchrony assumption of the paper taken at
//!   face value: every message arrives, exactly once, within its exchange.
//! * [`ChaosTransport`] — a seeded adversary that drops, duplicates, delays
//!   (into a later exchange, where the round tag makes receivers discard
//!   the straggler), and reorders announcement traffic per edge.
//! * [`LinkFaultTransport`] — scripted link faults: wraps any inner
//!   transport and silently suppresses announcements on the directed edges
//!   a [`PartitionSchedule`] cuts for that round, so split-brain episodes
//!   compose with message chaos.
//!
//! # Determinism
//!
//! Each edge owns a private [`SmallRng`] seeded from
//! `(seed, from, to)`, and fault decisions consume only that stream in the
//! sending node's program order. Thread interleaving therefore cannot
//! change which messages are dropped: two runs with the same seed make
//! byte-identical fault decisions.
//!
//! # What chaos never touches
//!
//! [`Message::Transfer`] and [`Message::MoveDone`] are exempt. A transfer
//! *is* the entity: dropping it would destroy the entity, duplicating it
//! would clone the entity — violations of the model (the paper's Move
//! function relocates entities; it cannot lose them), not interesting
//! network weather. The announcement exchanges are precisely the traffic
//! whose loss the protocol is specified to tolerate (footnote 1: silence
//! reads as `∞`/`⊥`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cellflow_core::PartitionSchedule;
use cellflow_grid::CellId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::message::{Envelope, Message};

/// One cell's inbox: the envelopes its neighbors' links delivered since
/// the cell last drained it.
///
/// Links append under the lock; the owning worker drains it by swapping
/// the queue for an empty buffer it keeps, so both vectors keep their
/// capacity from exchange to exchange. The round barrier fences every
/// exchange's sends from its drains, so the lock is only ever contended by
/// neighbors sending from different workers.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<Vec<Envelope>>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Appends one envelope.
    pub fn deliver(&self, env: Envelope) {
        self.lock().push(env);
    }

    /// Moves every queued envelope into `buf`, in delivery order, and
    /// leaves `buf`'s previous allocation queued in its place. `buf` should
    /// be empty: whatever it held is queued again.
    pub(crate) fn swap(&self, buf: &mut Vec<Envelope>) {
        std::mem::swap(&mut *self.lock(), buf);
    }

    // A panic while holding the lock cannot leave the queue half-written
    // (`push` either happens or not), so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, Vec<Envelope>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A directed edge's sending endpoint, as seen by one cell.
///
/// Messages queue with [`EdgeLink::send`] and hit the wire at
/// [`EdgeLink::flush`], called once per exchange right before the node
/// enters the exchange's barrier — the point after which receivers drain.
pub trait EdgeLink: Send {
    /// Queues one envelope for the current exchange.
    fn send(&mut self, env: Envelope);

    /// Delivers the exchange's queued traffic (applying any faults).
    fn flush(&mut self);
}

/// A factory of [`EdgeLink`]s — the deployment's network fabric.
pub trait Transport: Sync {
    /// Creates the link for the directed edge `from → to`, delivering into
    /// `to`'s mailbox `inbox`.
    fn link(&self, from: CellId, to: CellId, inbox: Arc<Mailbox>) -> Box<dyn EdgeLink>;
}

// Fabrics compose by reference: a wrapper like `LinkFaultTransport` can sit
// over a borrowed `&dyn Transport` without taking ownership of it.
impl<T: Transport + ?Sized> Transport for &T {
    fn link(&self, from: CellId, to: CellId, inbox: Arc<Mailbox>) -> Box<dyn EdgeLink> {
        (**self).link(from, to, inbox)
    }
}

/// The faithful fabric: immediate, exactly-once, in-order delivery.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectTransport;

struct PerfectLink {
    inbox: Arc<Mailbox>,
}

impl EdgeLink for PerfectLink {
    fn send(&mut self, env: Envelope) {
        self.inbox.deliver(env);
    }

    fn flush(&mut self) {}
}

impl Transport for PerfectTransport {
    fn link(&self, _from: CellId, _to: CellId, inbox: Arc<Mailbox>) -> Box<dyn EdgeLink> {
        Box::new(PerfectLink { inbox })
    }
}

/// Fault rates and seed for a [`ChaosTransport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the per-edge fault streams.
    pub seed: u64,
    /// Probability an announcement is dropped outright.
    pub drop_rate: f64,
    /// Probability an announcement is held back and delivered during a
    /// later exchange (where the round/variant filter discards it — the
    /// mechanically-honest version of a message "too late to matter").
    pub delay_rate: f64,
    /// Probability a delivered announcement is sent twice.
    pub dup_rate: f64,
    /// Probability a flush's queued messages are emitted in reversed order.
    pub reorder_rate: f64,
    /// Chaos applies only to rounds `< until_round` (`None` = all rounds).
    /// A quiet tail lets stabilization measurements run on a calm network.
    pub until_round: Option<u64>,
}

impl ChaosConfig {
    /// A configuration with every rate zero (useful as a base to tweak).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_rate: 0.0,
            delay_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            until_round: None,
        }
    }

    /// `true` if no fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.dup_rate == 0.0
            && self.reorder_rate == 0.0
    }

    /// `true` if drops and delays are impossible (duplication and
    /// reordering alone are absorbed by the receivers' keyed drains, so
    /// such runs stay bit-identical to the reference).
    pub fn is_lossless(&self) -> bool {
        self.drop_rate == 0.0 && self.delay_rate == 0.0
    }

    fn active(&self, round: u64) -> bool {
        match self.until_round {
            Some(limit) => round < limit,
            None => true,
        }
    }
}

/// Tallies of the faults a [`ChaosTransport`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Announcements dropped.
    pub dropped: u64,
    /// Announcements delivered twice.
    pub duplicated: u64,
    /// Announcements delivered one exchange late (read as silence).
    pub delayed: u64,
    /// Flushes whose queue was emitted reversed.
    pub reordered: u64,
}

#[derive(Default)]
struct StatsCells {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
}

/// The adversarial fabric. Create per run; collect the tally with
/// [`ChaosTransport::stats`] after the run completes.
pub struct ChaosTransport {
    config: ChaosConfig,
    stats: Arc<StatsCells>,
}

impl ChaosTransport {
    /// A fabric injecting faults per `config`.
    pub fn new(config: ChaosConfig) -> ChaosTransport {
        ChaosTransport {
            config,
            stats: Arc::new(StatsCells::default()),
        }
    }

    /// The injected-fault tally so far (complete once all links are done).
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            dropped: self.stats.dropped.load(Ordering::Relaxed),
            duplicated: self.stats.duplicated.load(Ordering::Relaxed),
            delayed: self.stats.delayed.load(Ordering::Relaxed),
            reordered: self.stats.reordered.load(Ordering::Relaxed),
        }
    }
}

// Per-edge seed derivation: splitmix of the run seed and the directed
// edge's endpoints, shared via `cellflow_core::hash` (stream-pinned there
// against this module's historical private copy).
use cellflow_core::hash::edge_seed;

struct ChaosLink {
    inbox: Arc<Mailbox>,
    rng: SmallRng,
    config: ChaosConfig,
    stats: Arc<StatsCells>,
    /// Messages queued since the last flush.
    queue: Vec<Envelope>,
    /// Messages held back by a delay fault, delivered (stale) next flush.
    held: Vec<Envelope>,
}

fn is_exempt(msg: &Message) -> bool {
    matches!(msg, Message::Transfer { .. } | Message::MoveDone { .. })
}

impl EdgeLink for ChaosLink {
    fn send(&mut self, env: Envelope) {
        self.queue.push(env);
    }

    fn flush(&mut self) {
        if self.held.is_empty() && self.queue.is_empty() {
            return;
        }
        let mut inbox = self.inbox.lock();
        // Stragglers from the previous exchange go out first; their round
        // and variant no longer match what the receiver drains for, so they
        // are read as silence — exactly footnote 1's "no timely response".
        inbox.append(&mut self.held);
        // One exchange's queue shares one round, so a quiet round draws no
        // reorder fault at all.
        if self.queue.len() > 1
            && self.config.active(self.queue[0].round)
            && self.rng.gen_bool(self.config.reorder_rate)
        {
            self.queue.reverse();
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
        }
        for env in self.queue.drain(..) {
            if is_exempt(&env.msg) || !self.config.active(env.round) {
                inbox.push(env);
                continue;
            }
            if self.rng.gen_bool(self.config.drop_rate) {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.rng.gen_bool(self.config.delay_rate) {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                self.held.push(env);
                continue;
            }
            if self.rng.gen_bool(self.config.dup_rate) {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                inbox.push(env.clone());
            }
            inbox.push(env);
        }
    }
}

impl Transport for ChaosTransport {
    fn link(&self, from: CellId, to: CellId, inbox: Arc<Mailbox>) -> Box<dyn EdgeLink> {
        Box::new(ChaosLink {
            inbox,
            rng: SmallRng::seed_from_u64(edge_seed(self.config.seed, from, to)),
            config: self.config,
            stats: self.stats.clone(),
            queue: Vec::new(),
            held: Vec::new(),
        })
    }
}

/// Tally of the traffic a [`LinkFaultTransport`] suppressed on cut edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Announcements silently dropped because their directed edge was cut.
    pub suppressed: u64,
}

/// Scripted link faults as a composable fabric: wraps any inner
/// [`Transport`] and silently suppresses announcement traffic on the
/// directed edges a [`PartitionSchedule`] cuts for the envelope's round.
///
/// Cuts are *directed*: `A → B` dead while `B → A` lives is expressible,
/// which is how asymmetric link failures and split-brain episodes are
/// scripted. Entity transfers and `MoveDone` stay exempt for the same
/// reason they are exempt from chaos — a cut cannot destroy an entity, and
/// the runtime never moves one onto a cut edge anyway (the grant
/// announcement that would authorize the move is itself suppressed, so the
/// sender reads `⊥` and stays put). Partitioned cells therefore keep
/// running on footnote-1 silence instead of deadlocking.
pub struct LinkFaultTransport<T> {
    inner: T,
    schedule: Arc<PartitionSchedule>,
    suppressed: Arc<AtomicU64>,
}

impl<T: Transport> LinkFaultTransport<T> {
    /// Wraps `inner`, cutting edges per `schedule` (rounds past the
    /// schedule's horizon read as healed).
    pub fn new(inner: T, schedule: PartitionSchedule) -> LinkFaultTransport<T> {
        LinkFaultTransport {
            inner,
            schedule: Arc::new(schedule),
            suppressed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The suppression tally so far (complete once all links are done).
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            suppressed: self.suppressed.load(Ordering::Relaxed),
        }
    }
}

struct LinkFaultLink {
    inner: Box<dyn EdgeLink>,
    from: CellId,
    to: CellId,
    schedule: Arc<PartitionSchedule>,
    suppressed: Arc<AtomicU64>,
}

impl EdgeLink for LinkFaultLink {
    fn send(&mut self, env: Envelope) {
        if !is_exempt(&env.msg) && self.schedule.is_cut(env.round, self.from, self.to) {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.send(env);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

impl<T: Transport> Transport for LinkFaultTransport<T> {
    fn link(&self, from: CellId, to: CellId, inbox: Arc<Mailbox>) -> Box<dyn EdgeLink> {
        Box::new(LinkFaultLink {
            inner: self.inner.link(from, to, inbox),
            from,
            to,
            schedule: self.schedule.clone(),
            suppressed: self.suppressed.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_routing::Dist;

    fn mailbox() -> Arc<Mailbox> {
        Arc::new(Mailbox::new())
    }

    /// Everything `inbox` holds, in delivery order.
    fn drain(inbox: &Mailbox) -> Vec<Envelope> {
        let mut buf = Vec::new();
        inbox.swap(&mut buf);
        buf
    }

    fn announce(round: u64) -> Envelope {
        Envelope {
            round,
            cause: 0,
            msg: Message::DistAnnounce {
                from: CellId::new(0, 0),
                dist: Dist::Finite(3),
            },
        }
    }

    fn transfer(round: u64) -> Envelope {
        Envelope {
            round,
            cause: 0,
            msg: Message::Transfer {
                from: CellId::new(0, 0),
                entity: cellflow_core::EntityId(1),
                pos: CellId::new(0, 1).center(),
            },
        }
    }

    #[test]
    fn perfect_link_delivers_immediately() {
        let inbox = mailbox();
        let mut link = PerfectTransport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        link.send(announce(0));
        assert_eq!(drain(&inbox).len(), 1);
    }

    #[test]
    fn chaos_drops_at_rate_one_but_never_transfers() {
        let transport = ChaosTransport::new(ChaosConfig {
            drop_rate: 1.0,
            ..ChaosConfig::quiet(42)
        });
        let inbox = mailbox();
        let mut link = transport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        for round in 0..10 {
            link.send(announce(round));
            link.send(transfer(round));
            link.flush();
        }
        let received = drain(&inbox);
        assert_eq!(received.len(), 10, "transfers are exempt from chaos");
        assert!(received
            .iter()
            .all(|e| matches!(e.msg, Message::Transfer { .. })));
        assert_eq!(transport.stats().dropped, 10);
    }

    #[test]
    fn delayed_messages_arrive_stale_next_flush() {
        let transport = ChaosTransport::new(ChaosConfig {
            delay_rate: 1.0,
            ..ChaosConfig::quiet(7)
        });
        let inbox = mailbox();
        let mut link = transport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        link.send(announce(0));
        link.flush();
        assert_eq!(drain(&inbox).len(), 0, "held back");
        link.flush();
        let late = drain(&inbox);
        assert_eq!(late.len(), 1, "straggler delivered exactly once");
        assert_eq!(late[0].round, 0, "still tagged with its original round");
        assert_eq!(transport.stats().delayed, 1);
    }

    #[test]
    fn duplication_doubles_delivery() {
        let transport = ChaosTransport::new(ChaosConfig {
            dup_rate: 1.0,
            ..ChaosConfig::quiet(9)
        });
        let inbox = mailbox();
        let mut link = transport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        link.send(announce(0));
        link.flush();
        assert_eq!(drain(&inbox).len(), 2);
        assert_eq!(transport.stats().duplicated, 1);
    }

    #[test]
    fn until_round_quiets_the_tail() {
        let transport = ChaosTransport::new(ChaosConfig {
            drop_rate: 1.0,
            until_round: Some(5),
            ..ChaosConfig::quiet(3)
        });
        let inbox = mailbox();
        let mut link = transport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        for round in 0..10 {
            link.send(announce(round));
            link.flush();
        }
        assert_eq!(drain(&inbox).len(), 5, "rounds 5..10 fly clean");
        assert_eq!(transport.stats().dropped, 5);

        // Reordering stops with the rest of the chaos: only the five
        // active rounds' two-envelope flushes are reversed.
        let transport = ChaosTransport::new(ChaosConfig {
            reorder_rate: 1.0,
            until_round: Some(5),
            ..ChaosConfig::quiet(3)
        });
        let inbox = mailbox();
        let mut link = transport.link(CellId::new(0, 0), CellId::new(0, 1), inbox.clone());
        for round in 0..10 {
            link.send(transfer(round));
            link.send(announce(round));
            link.flush();
        }
        let received = drain(&inbox);
        assert_eq!(received.len(), 20);
        for (round, pair) in received.chunks(2).enumerate() {
            let reversed = matches!(pair[0].msg, Message::DistAnnounce { .. });
            assert_eq!(reversed, round < 5, "round {round}");
        }
        assert_eq!(transport.stats().reordered, 5);
    }

    #[test]
    fn mailbox_swaps_keep_order_and_buffers() {
        let inbox = Mailbox::new();
        let mut buf = Vec::with_capacity(8);
        let spare = buf.as_ptr();
        for round in 0..3 {
            inbox.deliver(announce(round));
        }
        inbox.swap(&mut buf);
        let rounds: Vec<u64> = buf.iter().map(|e| e.round).collect();
        assert_eq!(rounds, [0, 1, 2], "delivery order survives the swap");
        buf.clear();
        // The drained buffer goes back in as the next queue, and the next
        // swap returns the spare: no exchange allocates a fresh vector.
        inbox.deliver(announce(3));
        inbox.swap(&mut buf);
        assert_eq!(buf.as_ptr(), spare);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn link_faults_cut_one_direction_but_never_transfers() {
        use cellflow_core::PartitionPlan;
        use cellflow_grid::GridDims;

        let a = CellId::new(0, 0);
        let b = CellId::new(0, 1);
        let plan = PartitionPlan::for_grid(GridDims::square(2)).cut(a, b, 2, Some(5));
        let transport = LinkFaultTransport::new(PerfectTransport, plan.expand(10));

        let inbox = mailbox();
        let mut cut_link = transport.link(a, b, inbox.clone());
        let back_inbox = mailbox();
        let mut open_link = transport.link(b, a, back_inbox.clone());
        for round in 0..10 {
            cut_link.send(announce(round));
            cut_link.send(transfer(round));
            cut_link.flush();
            open_link.send(announce(round));
            open_link.flush();
        }
        let received = drain(&inbox);
        // Announcements vanish during rounds 2..5; transfers always pass.
        let announces = received
            .iter()
            .filter(|e| matches!(e.msg, Message::DistAnnounce { .. }))
            .count();
        assert_eq!(announces, 7);
        assert_eq!(received.len(), 17);
        assert_eq!(drain(&back_inbox).len(), 10, "the reverse edge is open");
        assert_eq!(transport.stats(), LinkStats { suppressed: 3 });
    }

    #[test]
    fn link_faults_compose_over_chaos() {
        use cellflow_core::PartitionPlan;
        use cellflow_grid::GridDims;

        let a = CellId::new(0, 0);
        let b = CellId::new(0, 1);
        let plan = PartitionPlan::for_grid(GridDims::square(2)).cut(a, b, 0, Some(5));
        let chaos = ChaosTransport::new(ChaosConfig {
            dup_rate: 1.0,
            ..ChaosConfig::quiet(3)
        });
        // Composition by reference: the chaos fabric is merely borrowed.
        let transport = LinkFaultTransport::new(&chaos, plan.expand(10));
        let inbox = mailbox();
        let mut link = transport.link(a, b, inbox.clone());
        for round in 0..10 {
            link.send(announce(round));
            link.flush();
        }
        // Rounds 0..5 are cut before chaos sees them; 5..10 get duplicated.
        assert_eq!(drain(&inbox).len(), 10);
        assert_eq!(transport.stats().suppressed, 5);
        assert_eq!(chaos.stats().duplicated, 5);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let transport = ChaosTransport::new(ChaosConfig {
                drop_rate: 0.5,
                ..ChaosConfig::quiet(seed)
            });
            let inbox = mailbox();
            let mut link = transport.link(CellId::new(1, 2), CellId::new(1, 3), inbox.clone());
            for round in 0..100 {
                link.send(announce(round));
                link.flush();
            }
            drain(&inbox)
                .into_iter()
                .map(|e| e.round)
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds differ somewhere");
    }
}
