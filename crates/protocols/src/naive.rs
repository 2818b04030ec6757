//! The impossible claimants: protocols that *claim* all four properties —
//! multi-object write transactions (W) **and** one-round (R), one-value
//! (V), non-blocking (N) read-only transactions.
//!
//! Theorem 1 says no such causally consistent protocol exists, so these
//! are exactly the protocols the theorem machinery in `cbf-core` attacks:
//! the adversary finds a schedule in which a fast ROT returns a mixed
//! snapshot, which the checker rejects.
//!
//! The family is parameterized by the number of **write coordination
//! phases** `P`:
//!
//! * `P = 1` ([`NaiveFast`]): servers apply writes the moment they
//!   arrive; the visibility window between the two servers is
//!   macroscopic.
//! * `P = 2` ([`NaiveTwoPhase`]): writes are buffered at phase 1 and made
//!   visible by the phase-2 (commit) message — atomic commitment. The
//!   window shrinks to the gap between the two phase-2 deliveries.
//! * any `P`: servers buffer through `P−1` phases and apply on the final
//!   one. More coordination keeps narrowing the window — and the
//!   adversary keeps finding it. This is the paper's induction made
//!   tangible: measured by `cbf-core`, a claimant with `P ≥ 2` phases
//!   yields `2P − 3` forced messages and is caught at induction step
//!   `k = 2P − 2` (one-phase dies immediately at `k = 1`).
//!
//! Reads are genuinely fast: one round, one value per stored object,
//! served in the receiving step.

use crate::common::{Completed, ProtocolNode, Tally, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::HashMap;

/// The message alphabet shared by every phase count.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: start a read-only transaction at a client.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: start a write-only transaction at a client.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → server: read these keys (all stored at that server).
    ReadReq { id: TxId, keys: Vec<Key> },
    /// Server → client: the values. One value per requested key — in the
    /// paper's two-object deployment, exactly one value per message.
    ReadResp { id: TxId, reads: Vec<(Key, Value)> },
    /// Client → server: coordination phase `round` of a write
    /// transaction. Phase 1 carries the writes; later phases reference
    /// them. The final phase makes the writes visible.
    Phase {
        id: TxId,
        round: u8,
        writes: Vec<(Key, Value)>,
    },
    /// Server → client: phase `round` acknowledged.
    PhaseAck { id: TxId, round: u8 },
    /// Server → server: decoy gossip (GOSSIP variants only) — real
    /// communication, zero protection.
    Gossip,
}

/// In-flight read at a client: `(values so far, responses outstanding,
/// invoked_at)`.
type PendingRead = (Vec<(Key, Value)>, usize, u64);

/// Client state machine.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    rots: HashMap<TxId, PendingRead>,
    /// In-flight writes: the tally of the servers participating in the
    /// write (restarted every phase), the phase it counts, invoked_at.
    wtxs: HashMap<TxId, (Tally, u8, u64)>,
    completed: HashMap<TxId, Completed>,
}

/// Server state machine: a last-writer-wins single-version store plus a
/// buffer of writes still in their coordination phases.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    store: HashMap<Key, Value>,
    buffered: HashMap<TxId, Vec<(Key, Value)>>,
}

/// A node of the naive claimant family with `P` write phases. When
/// `GOSSIP` is set, servers additionally send a decoy gossip message to
/// their sibling after applying a write — communication that exists but
/// carries no protection. It exercises Lemma 3's *claim 2* machinery:
/// the induction finds forced messages, yet the written values become
/// visible at some `C_k`, and the contradictory execution `δ` catches
/// the protocol there instead.
#[derive(Clone, Debug)]
pub enum NaiveNode<const P: u8, const GOSSIP: bool = false> {
    /// A client.
    Client(ClientState),
    /// A server.
    Server(ServerState),
}

/// Apply-on-arrival claimant (one phase).
pub type NaiveFast = NaiveNode<1>;
/// Apply-on-arrival claimant whose servers gossip after applying: the
/// claim-2 (δ-execution) test subject.
pub type NaiveChatty = NaiveNode<1, true>;
/// Atomic-commitment claimant (two phases).
pub type NaiveTwoPhase = NaiveNode<2>;
/// A three-phase claimant, for the induction sweep.
pub type NaiveThreePhase = NaiveNode<3>;
/// A four-phase claimant, for the induction sweep.
pub type NaiveFourPhase = NaiveNode<4>;

impl<const P: u8, const GOSSIP: bool> NaiveNode<P, GOSSIP> {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    let groups = c.topo.group_by_primary(&keys);
                    let awaiting = groups.len();
                    for (server, ks) in groups {
                        ctx.send(server, Msg::ReadReq { id, keys: ks });
                    }
                    c.rots.insert(id, (Vec::new(), awaiting, ctx.now()));
                }
                Msg::InvokeWtx { id, writes } => {
                    // Phase 1 carries the writes to every server storing
                    // one of the written keys (all replicas).
                    let mut per_server: std::collections::BTreeMap<ProcessId, Vec<(Key, Value)>> =
                        Default::default();
                    for &(k, v) in &writes {
                        for r in c.topo.replicas(k) {
                            per_server.entry(r).or_default().push((k, v));
                        }
                    }
                    let tally = Tally::new(per_server.keys().copied());
                    for (server, ws) in per_server {
                        ctx.send(
                            server,
                            Msg::Phase {
                                id,
                                round: 1,
                                writes: ws,
                            },
                        );
                    }
                    c.wtxs.insert(id, (tally, 1, ctx.now()));
                }
                Msg::ReadResp { id, reads } => {
                    let now = ctx.now();
                    if let Some((got, awaiting, _)) = c.rots.get_mut(&id) {
                        got.extend(reads);
                        *awaiting -= 1;
                        if *awaiting == 0 {
                            let Some((mut reads, _, invoked_at)) = c.rots.remove(&id) else {
                                continue;
                            };
                            reads.sort_by_key(|(k, _)| *k);
                            c.completed
                                .insert(id, Completed::read(id, reads, invoked_at, now));
                        }
                    }
                }
                Msg::PhaseAck { id, round } => {
                    let Some((tally, phase, _)) = c.wtxs.get_mut(&id) else {
                        continue;
                    };
                    // An ack of an earlier phase is stale; a repeat counts
                    // once.
                    if round != *phase || !tally.answer(env.from, 0) {
                        continue;
                    }
                    if *phase < P {
                        // Next coordination phase.
                        *phase += 1;
                        tally.restart();
                        let round = *phase;
                        for server in tally.participants() {
                            ctx.send(
                                server,
                                Msg::Phase {
                                    id,
                                    round,
                                    writes: Vec::new(),
                                },
                            );
                        }
                    } else {
                        let Some((.., invoked_at)) = c.wtxs.remove(&id) else {
                            continue;
                        };
                        c.completed
                            .insert(id, Completed::write(id, invoked_at, ctx.now()));
                    }
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::ReadReq { id, keys } => {
                    let reads: Vec<(Key, Value)> = keys
                        .iter()
                        .map(|k| (*k, s.store.get(k).copied().unwrap_or(Value::BOTTOM)))
                        .collect();
                    ctx.send(env.from, Msg::ReadResp { id, reads });
                }
                Msg::Phase { id, round, writes } => {
                    if round == 1 {
                        s.buffered.insert(id, writes);
                    }
                    if round == P {
                        // Final phase: the writes become visible.
                        if let Some(ws) = s.buffered.remove(&id) {
                            for (k, v) in ws {
                                s.store.insert(k, v);
                            }
                        }
                        if GOSSIP {
                            // Decoy chatter to every sibling server.
                            let me = ctx.me();
                            for i in 0..s.topo.num_servers {
                                let srv = ProcessId(i);
                                if srv != me {
                                    ctx.send(srv, Msg::Gossip);
                                }
                            }
                        }
                    }
                    ctx.send(env.from, Msg::PhaseAck { id, round });
                }
                _ => {}
            }
        }
    }
}

impl<const P: u8, const GOSSIP: bool> Actor for NaiveNode<P, GOSSIP> {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            NaiveNode::Client(c) => Self::client_step(c, ctx),
            NaiveNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl<const P: u8, const GOSSIP: bool> ProtocolNode for NaiveNode<P, GOSSIP> {
    const NAME: &'static str = match (P, GOSSIP) {
        (1, false) => "naive-fast",
        (2, false) => "naive-2pc",
        (3, false) => "naive-3pc",
        (4, false) => "naive-4pc",
        (1, true) => "naive-chatty",
        _ => "naive-npc",
    };
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, _id: ProcessId) -> Self {
        NaiveNode::Server(ServerState {
            topo: topo.clone(),
            store: HashMap::new(),
            buffered: HashMap::new(),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        NaiveNode::Client(ClientState {
            topo: topo.clone(),
            rots: HashMap::new(),
            wtxs: HashMap::new(),
            completed: HashMap::new(),
        })
    }

    fn rot_invoke(id: TxId, keys: Vec<Key>) -> Msg {
        Msg::InvokeRot { id, keys }
    }

    fn wtx_invoke(id: TxId, writes: Vec<(Key, Value)>) -> Msg {
        Msg::InvokeWtx { id, writes }
    }

    fn completed(&self, id: TxId) -> Option<&Completed> {
        match self {
            NaiveNode::Client(c) => c.completed.get(&id),
            NaiveNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            NaiveNode::Client(c) => c.completed.remove(&id),
            NaiveNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::ReadResp { reads, .. } => crate::common::max_values_per_object(
                reads
                    .iter()
                    .filter(|(_, v)| !v.is_bottom())
                    .map(|&(k, _)| k),
            ),
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::ReadReq { .. } | Msg::Phase { .. })
    }
}

crate::wire_enum!(Msg as "naive::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => ReadReq { id, keys },
    3 => ReadResp { id, reads },
    4 => Phase { id, round, writes },
    5 => PhaseAck { id, round },
    6 => Gossip,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::ClientId;

    fn minimal<const P: u8>() -> Cluster<NaiveNode<P>> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn naive_fast_round_trip() {
        let mut c = minimal::<1>();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        assert_eq!(w.audit.objects, 2);
        assert_eq!(w.audit.rounds, 1);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads.len(), 2);
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
    }

    #[test]
    fn naive_fast_claims_all_fast_properties_under_friendly_schedules() {
        let mut c = minimal::<1>();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        for i in 0..10 {
            c.read_tx(ClientId(1 + (i % 3)), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.fast_rots(), "profile: {p:?}");
        assert!(p.multi_write_supported);
        assert!(p.claims_the_impossible());
        // And under friendly schedules the history even checks out.
        assert!(c.check().is_ok());
    }

    #[test]
    fn phase_counts_drive_write_rounds() {
        // P phases ⇒ P client rounds for a write.
        let w1 = minimal::<1>()
            .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
            .unwrap();
        assert_eq!(w1.audit.rounds, 1);
        let w2 = minimal::<2>()
            .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
            .unwrap();
        assert_eq!(w2.audit.rounds, 2);
        let w4 = minimal::<4>()
            .write_tx_auto(ClientId(0), &[Key(0), Key(1)])
            .unwrap();
        assert_eq!(w4.audit.rounds, 4);
    }

    #[test]
    fn buffered_writes_stay_invisible_until_the_last_phase() {
        let mut c = minimal::<3>();
        let writer = c.topo.client_pid(ClientId(0));
        let id = c.alloc_tx();
        let (v0, v1) = (c.alloc_value(), c.alloc_value());
        c.world.inject(
            writer,
            Msg::InvokeWtx {
                id,
                writes: vec![(Key(0), v0), (Key(1), v1)],
            },
        );
        // Two phases' worth of traffic ≈ 2 rounds × 2 hops × 50 µs; the
        // third (visibility) phase is sent at 200 µs and still in flight
        // at 220 µs — freeze it there.
        c.world.run_for(220 * cbf_sim::MICROS);
        c.world.hold(writer, ProcessId(0));
        c.world.hold(writer, ProcessId(1));
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, Value::BOTTOM);
        // Release the final phase: the writes become visible.
        c.world.release(writer, ProcessId(0));
        c.world.release(writer, ProcessId(1));
        c.world.run_until_within(cbf_sim::SECONDS, |w| {
            w.actor(writer).completed(id).is_some()
        });
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads, vec![(Key(0), v0), (Key(1), v1)]);
    }

    #[test]
    fn reading_before_any_write_returns_bottom() {
        let mut c = minimal::<1>();
        let r = c.read_tx(ClientId(0), &[Key(0)]).unwrap();
        assert_eq!(r.reads, vec![(Key(0), Value::BOTTOM)]);
        // ⊥ is not a written value: zero values in the message.
        assert_eq!(r.audit.max_values_per_msg, 0);
    }

    #[test]
    fn adversarial_interleaving_breaks_naive_fast() {
        // The violation the theorem predicts, by hand: hold the write to
        // p1, let the write to p0 land, read both keys.
        let mut c = minimal::<1>();
        // Causal setup: writer reads initial values first.
        c.write(ClientId(0), Key(0), Value(101)).unwrap();
        c.write(ClientId(0), Key(1), Value(102)).unwrap();
        let writer = ClientId(2);
        let setup = c.read_tx(writer, &[Key(0), Key(1)]).unwrap();
        assert_eq!(
            setup.reads,
            vec![(Key(0), Value(101)), (Key(1), Value(102))]
        );

        // Freeze the writer→p1 link, then issue the multi-write.
        let wpid = c.topo.client_pid(writer);
        c.world.hold(wpid, ProcessId(1));
        let id = c.alloc_tx();
        c.world.inject(
            wpid,
            Msg::InvokeWtx {
                id,
                writes: vec![(Key(0), Value(201)), (Key(1), Value(202))],
            },
        );
        // p0 applies its half; p1 never hears.
        c.world.run_for(cbf_sim::MILLIS);

        // A fresh client reads both keys: mixed snapshot.
        let r = c.read_tx(ClientId(3), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads, vec![(Key(0), Value(201)), (Key(1), Value(102))]);

        // Record the incomplete write in the history for the checker
        // (the paper's Lemma 1 orders it via the writer's earlier read).
        let mut h = c.history().clone();
        h.push(cbf_model::history::TxRecord {
            id,
            client: writer,
            reads: vec![],
            writes: vec![(Key(0), Value(201)), (Key(1), Value(202))],
            invoked_at: 0,
            completed_at: 0,
        });
        assert!(!cbf_model::check_causal(&h).is_ok());
    }

    #[test]
    fn two_phase_commits_atomically_per_server() {
        let mut c = minimal::<2>();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        assert_eq!(w.audit.rounds, 2);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.audit.rounds, 1);
        assert!(r.audit.is_fast());
        assert_eq!(r.reads[0].1, w.writes[0].1);
    }

    #[test]
    fn partially_replicated_naive_fast_serves_reads_from_primary() {
        let topo = Topology::partially_replicated(3, 4, 3, 2);
        let mut c: Cluster<NaiveFast> = Cluster::new(topo);
        let w = c
            .write_tx(ClientId(0), &[(Key(0), Value(7)), (Key(2), Value(8))])
            .unwrap();
        // Key 0 lives on servers {0,1}; key 2 on {2,0}: 3 distinct servers.
        assert_eq!(w.audit.rounds, 1);
        let r = c.read_tx(ClientId(1), &[Key(0), Key(2)]).unwrap();
        assert_eq!(r.reads, vec![(Key(0), Value(7)), (Key(2), Value(8))]);
    }
}
