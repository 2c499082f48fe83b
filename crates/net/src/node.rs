//! The per-cell node: one cell's state plus the protocol logic, expressed
//! over *received messages* instead of shared-variable reads.

use cellflow_core::kernel::{self, Step};
use cellflow_core::{CellState, Corruption, EntityId, SystemConfig};
use cellflow_geom::{Dir, Point};
use cellflow_grid::CellId;
use cellflow_routing::{route_update, Dist};

/// The most neighbors a grid cell has: one per direction.
pub(crate) const MAX_DEGREE: usize = Dir::ALL.len();

/// One cell of the message-passing deployment.
///
/// Owns its [`CellState`] exclusively; every method consumes the messages of
/// one exchange (one slot per neighbor, in [`CellNode::neighbors`] order — an
/// empty slot is the paper's "no timely response" and reads as `∞`/`⊥`) and
/// advances the local state exactly as the corresponding phase of the
/// shared-variable reference would. The runtime fills the slots from the
/// cell's mailbox; the unit tests below drive them directly.
pub struct CellNode {
    id: CellId,
    neighbors: Vec<CellId>,
    is_target: bool,
    is_source: bool,
    source_rank: u64,
    source_seq: u64,
    round: u64,
    state: CellState,
    config: SystemConfig,
    /// Entities consumed by this node (only ever nonzero on the target).
    pub consumed: u64,
    /// Entities inserted by this node (only ever nonzero on sources).
    pub inserted: u64,
}

impl CellNode {
    /// Creates the node for `id` under `config`, in the initial state.
    pub fn new(id: CellId, config: &SystemConfig) -> CellNode {
        let is_target = id == config.target();
        let source_rank = config
            .sources()
            .iter()
            .position(|&s| s == id)
            .map(|k| k as u64);
        CellNode {
            id,
            neighbors: config.dims().neighbors(id).collect(),
            is_target,
            is_source: source_rank.is_some(),
            source_rank: source_rank.unwrap_or(0),
            source_seq: 0,
            round: 0,
            state: if is_target {
                CellState::initial_target()
            } else {
                CellState::initial()
            },
            config: config.clone(),
            consumed: 0,
            inserted: 0,
        }
    }

    /// This node's cell identifier.
    pub fn id(&self) -> CellId {
        self.id
    }

    /// The node's current protocol state.
    pub fn state(&self) -> &CellState {
        &self.state
    }

    /// The neighbors this node exchanges messages with.
    pub fn neighbors(&self) -> &[CellId] {
        &self.neighbors
    }

    /// Crash this node: it stops sending and pins `dist = ∞` (the `fail`
    /// transition executed locally).
    pub fn fail(&mut self) {
        self.state.failed = true;
        self.state.dist = Dist::Infinity;
        self.state.next = None;
        self.state.signal = None;
    }

    /// Recover this node; the target re-anchors its distance at 0.
    pub fn recover(&mut self) {
        self.state.failed = false;
        if self.is_target {
            self.state.dist = Dist::Finite(0);
        }
    }

    /// `true` while crashed (a crashed node sends nothing).
    pub fn is_failed(&self) -> bool {
        self.state.failed
    }

    /// Applies a transient state corruption locally — the deployment's
    /// enactment of [`FaultKind::Corrupt`], bit-identical to the reference
    /// system's [`System::corrupt`] because both delegate to
    /// [`Corruption::apply`] on the same [`CellState`].
    ///
    /// [`FaultKind::Corrupt`]: cellflow_core::FaultKind::Corrupt
    /// [`System::corrupt`]: cellflow_core::System::corrupt
    pub fn corrupt(&mut self, corruption: Corruption) {
        corruption.apply(&self.config, self.id, &mut self.state);
    }

    /// Exchange 1 payload: the `dist` this node broadcasts, or `None` when
    /// crashed (silence).
    pub fn announce_dist(&self) -> Option<Dist> {
        (!self.state.failed).then_some(self.state.dist)
    }

    /// `Route` over the received distance announcements, one slot per
    /// neighbor. Silent neighbors read as `∞` (footnote 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one slot per neighbor.
    pub fn route_step(&mut self, dists: &[Option<Dist>]) {
        assert_eq!(dists.len(), self.neighbors.len(), "one slot per neighbor");
        if self.state.failed || self.is_target {
            return;
        }
        let (dist, next) = route_update(
            self.neighbors
                .iter()
                .zip(dists)
                .map(|(&n, d)| (n, d.unwrap_or(Dist::Infinity))),
            self.config.dist_cap(),
        );
        self.state.dist = dist;
        self.state.next = next;
    }

    /// Exchange 2 payload: `(next, Members ≠ ∅)`, or silence when crashed.
    pub fn announce_route(&self) -> Option<(Option<CellId>, bool)> {
        (!self.state.failed).then_some((self.state.next, !self.state.members.is_empty()))
    }

    /// `Signal` over the received route announcements, one slot per
    /// neighbor.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one slot per neighbor.
    pub fn signal_step(&mut self, routes: &[Option<(Option<CellId>, bool)>]) {
        assert_eq!(routes.len(), self.neighbors.len(), "one slot per neighbor");
        if self.state.failed {
            return;
        }
        // `NEPrev`: the nonempty neighbors routing through this cell, in
        // set order. The set is rebuilt only when it changed, so a steady
        // round allocates nothing.
        let mut cands = [self.id; MAX_DEGREE];
        let mut cn = 0;
        for (&n, route) in self.neighbors.iter().zip(routes) {
            if *route == Some((Some(self.id), true)) {
                cands[cn] = n;
                cn += 1;
            }
        }
        cands[..cn].sort_unstable();
        let ne_prev = &mut self.state.ne_prev;
        if !ne_prev.iter().eq(&cands[..cn]) {
            ne_prev.clear();
            ne_prev.extend(&cands[..cn]);
        }
        let (id, params) = (self.id, self.config.params());
        let members = &self.state.members;
        let (signal, token) = kernel::signal(
            self.config.token_policy(),
            id,
            self.round,
            self.state.token,
            &cands[..cn],
            |dir| kernel::gap_free(params, dir, id.boundary(dir), members.values()),
        );
        self.state.token = token;
        self.state.signal = signal;
    }

    /// Exchange 3 payload: the freshly computed `signal`, or silence.
    pub fn announce_signal(&self) -> Option<Option<CellId>> {
        (!self.state.failed).then_some(self.state.signal)
    }

    /// `Move` over the received signal announcements, one slot per
    /// neighbor: translate members if permitted; crossing entities are
    /// appended to `outgoing` as `(neighbor, id, snapped position)` transfer
    /// messages (already in the receiver's frame), or consumed if this
    /// node's `next` is the target.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one slot per neighbor.
    pub fn move_step(
        &mut self,
        signals: &[Option<Option<CellId>>],
        outgoing: &mut Vec<(CellId, EntityId, Point)>,
    ) {
        assert_eq!(signals.len(), self.neighbors.len(), "one slot per neighbor");
        if self.state.failed || self.state.members.is_empty() {
            return;
        }
        let Some(nx) = self.state.next else {
            return;
        };
        // A crashed neighbor sent nothing: its stale signal reads as ⊥.
        let granted = self
            .neighbors
            .iter()
            .position(|&n| n == nx)
            .is_some_and(|at| signals[at] == Some(Some(self.id)));
        if !granted {
            return;
        }
        let dir = self.id.dir_to(nx).expect("next is a neighbor");
        let params = self.config.params();
        let edge = self.id.boundary(dir);
        let to_target = nx == self.config.target();
        let consumed = &mut self.consumed;
        // Ascending id order, as the reference `Move` visits members.
        self.state
            .members
            .retain(|&eid, pos| match kernel::advance(params, dir, edge, *pos) {
                Step::Stay(at) => {
                    *pos = at;
                    true
                }
                Step::Cross(_) if to_target => {
                    *consumed += 1;
                    false
                }
                Step::Cross(at) => {
                    outgoing.push((nx, eid, at));
                    false
                }
            });
    }

    /// Incorporates entities that crossed into this cell this round.
    pub fn receive_transfers<I: IntoIterator<Item = (EntityId, Point)>>(&mut self, transfers: I) {
        for (eid, pos) in transfers {
            self.state.members.insert(eid, pos);
        }
    }

    /// Source insertion (end of `Move`): at most one entity per round, at the
    /// configured policy's placement, with an identifier from this source's
    /// private pool (`rank << 32 | seq` — a real deployment cannot share a
    /// counter; with a single source this coincides with the reference's
    /// sequential ids).
    pub fn source_step(&mut self) {
        if !self.is_source || self.state.failed {
            return;
        }
        let placement =
            self.config
                .source_policy()
                .placement(self.config.params(), self.id, &self.state);
        if let Some(pos) = placement {
            let eid = EntityId((self.source_rank << 32) | self.source_seq);
            self.source_seq += 1;
            self.state.members.insert(eid, pos);
            self.inserted += 1;
        }
    }

    /// Marks the end of the round (advances the local round counter used by
    /// the randomized token policy).
    pub fn finish_round(&mut self) {
        self.round += 1;
    }

    /// Captures everything a re-spawned cell needs to impersonate this
    /// node: the protocol state plus the private counters (source pool
    /// position, consumed/inserted tallies).
    ///
    /// Taken at the moment of a hard crash — after [`CellNode::fail`], so
    /// the checkpointed state is the *failed* state, exactly what the
    /// paper's failure model says survives a crash (members frozen, flag
    /// set, `dist = ∞`).
    pub fn checkpoint(&self) -> NodeCheckpoint {
        NodeCheckpoint {
            state: self.state.clone(),
            source_seq: self.source_seq,
            consumed: self.consumed,
            inserted: self.inserted,
        }
    }

    /// Rebuilds the node for `id` from a checkpoint, resuming at
    /// `resume_round` (the round the re-spawned cell participates in
    /// first; the internal round counter feeds the token policy, so it must
    /// match the global round, not the crash round).
    pub fn restore(
        id: CellId,
        config: &SystemConfig,
        checkpoint: NodeCheckpoint,
        resume_round: u64,
    ) -> CellNode {
        let mut node = CellNode::new(id, config);
        node.state = checkpoint.state;
        node.source_seq = checkpoint.source_seq;
        node.consumed = checkpoint.consumed;
        node.inserted = checkpoint.inserted;
        node.round = resume_round;
        node
    }
}

/// A crashed node's preserved identity — see [`CellNode::checkpoint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeCheckpoint {
    state: CellState,
    source_seq: u64,
    consumed: u64,
    inserted: u64,
}

impl NodeCheckpoint {
    /// Assembles a checkpoint from its parts — the decode half of a durable
    /// snapshot store; the encode half reads the accessors below.
    pub fn new(state: CellState, source_seq: u64, consumed: u64, inserted: u64) -> NodeCheckpoint {
        NodeCheckpoint {
            state,
            source_seq,
            consumed,
            inserted,
        }
    }

    /// The checkpointed protocol state.
    pub fn state(&self) -> &CellState {
        &self.state
    }

    /// The source pool position at checkpoint time.
    pub fn source_seq(&self) -> u64 {
        self.source_seq
    }

    /// Entities consumed up to checkpoint time.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Entities inserted up to checkpoint time.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellflow_core::Params;
    use cellflow_grid::GridDims;

    fn config() -> SystemConfig {
        SystemConfig::new(
            GridDims::new(3, 1),
            CellId::new(2, 0),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
    }

    /// One slot per neighbor of `node`, filled from `heard` (`(sender,
    /// payload)` pairs); the other neighbors stay silent.
    fn slots<T: Copy>(node: &CellNode, heard: &[(CellId, T)]) -> Vec<Option<T>> {
        node.neighbors()
            .iter()
            .map(|n| heard.iter().find(|(from, _)| from == n).map(|&(_, p)| p))
            .collect()
    }

    #[test]
    fn route_step_treats_silence_as_infinity() {
        let cfg = config();
        let mut node = CellNode::new(CellId::new(1, 0), &cfg);
        // Only the target responded.
        let dists = slots(&node, &[(CellId::new(2, 0), Dist::Finite(0))]);
        node.route_step(&dists);
        assert_eq!(node.state().dist, Dist::Finite(1));
        assert_eq!(node.state().next, Some(CellId::new(2, 0)));
        // Nobody responded at all: both neighbors read ∞.
        let mut node = CellNode::new(CellId::new(1, 0), &cfg);
        node.route_step(&[None, None]);
        assert_eq!(node.state().dist, Dist::Infinity);
        assert_eq!(node.state().next, None);
    }

    #[test]
    fn failed_node_is_silent_and_inert() {
        let cfg = config();
        let mut node = CellNode::new(CellId::new(1, 0), &cfg);
        node.fail();
        assert!(node.is_failed());
        assert_eq!(node.announce_dist(), None);
        assert_eq!(node.announce_route(), None);
        assert_eq!(node.announce_signal(), None);
        let dists = slots(&node, &[(CellId::new(2, 0), Dist::Finite(0))]);
        node.route_step(&dists);
        assert_eq!(
            node.state().dist,
            Dist::Infinity,
            "crashed: Route is a no-op"
        );
        node.recover();
        assert!(!node.is_failed());
    }

    #[test]
    fn target_recovery_reanchors() {
        let cfg = config();
        let mut target = CellNode::new(CellId::new(2, 0), &cfg);
        target.fail();
        assert_eq!(target.state().dist, Dist::Infinity);
        target.recover();
        assert_eq!(target.state().dist, Dist::Finite(0));
    }

    #[test]
    fn signal_grants_and_rotates_from_messages() {
        let cfg = config();
        let mut mid = CellNode::new(CellId::new(1, 0), &cfg);
        // Upstream neighbor routes through us and is nonempty.
        let routes = slots(
            &mid,
            &[
                (CellId::new(0, 0), (Some(CellId::new(1, 0)), true)),
                (CellId::new(2, 0), (None, false)),
            ],
        );
        mid.signal_step(&routes);
        assert_eq!(mid.state().signal, Some(CellId::new(0, 0)));
        assert_eq!(mid.state().token, Some(CellId::new(0, 0)));
        assert_eq!(mid.state().ne_prev.len(), 1);
    }

    #[test]
    fn move_step_emits_snapped_transfers() {
        let cfg = config();
        let mut src = CellNode::new(CellId::new(0, 0), &cfg);
        src.route_step(&slots(&src, &[(CellId::new(1, 0), Dist::Finite(1))]));
        // Seed an entity near the east boundary.
        src.state.members.insert(
            EntityId(0),
            Point::new(
                cellflow_geom::Fixed::from_milli(850),
                cellflow_geom::Fixed::HALF,
            ),
        );
        let signals = slots(&src, &[(CellId::new(1, 0), Some(CellId::new(0, 0)))]);
        let mut out = Vec::new();
        src.move_step(&signals, &mut out);
        assert_eq!(out.len(), 1);
        let (to, eid, pos) = out[0];
        assert_eq!(to, CellId::new(1, 0));
        assert_eq!(eid, EntityId(0));
        assert_eq!(pos.x, cellflow_geom::Fixed::from_milli(1_125));
        assert!(src.state().members.is_empty());
        // The receiver incorporates it verbatim.
        let mut mid = CellNode::new(CellId::new(1, 0), &cfg);
        mid.receive_transfers([(eid, pos)]);
        assert_eq!(mid.state().members[&eid], pos);
    }

    #[test]
    fn consumption_happens_at_the_sender() {
        let cfg = config();
        let mut mid = CellNode::new(CellId::new(1, 0), &cfg);
        mid.route_step(&slots(&mid, &[(CellId::new(2, 0), Dist::Finite(0))]));
        mid.state.members.insert(
            EntityId(3),
            Point::new(
                cellflow_geom::Fixed::from_milli(1_850),
                cellflow_geom::Fixed::HALF,
            ),
        );
        let signals = slots(&mid, &[(CellId::new(2, 0), Some(CellId::new(1, 0)))]);
        let mut out = Vec::new();
        mid.move_step(&signals, &mut out);
        assert!(out.is_empty(), "target-bound entities are not forwarded");
        assert_eq!(mid.consumed, 1);
        assert!(mid.state().members.is_empty());
    }

    #[test]
    fn source_mints_from_private_pool() {
        let cfg = SystemConfig::new(
            GridDims::new(3, 1),
            CellId::new(2, 0),
            Params::from_milli(250, 50, 200).unwrap(),
        )
        .unwrap()
        .with_source(CellId::new(0, 0))
        .with_source(CellId::new(1, 0));
        let mut second = CellNode::new(CellId::new(1, 0), &cfg);
        second.source_step();
        assert_eq!(second.inserted, 1);
        let id = *second.state().members.keys().next().unwrap();
        assert_eq!(id, EntityId(1 << 32), "rank-1 pool");
        // Crashed sources do nothing.
        second.fail();
        second.source_step();
        assert_eq!(second.inserted, 1);
    }
}
