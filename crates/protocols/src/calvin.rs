//! Calvin [Thomson et al., SIGMOD 2012]: deterministic transaction
//! sequencing — strict serializability **without two-phase commit**.
//!
//! Table 1 row: R = 2, V = 1, blocking, W, strict serializability.
//!
//! Calvin's architecture is genuinely different from everything else in
//! this workspace: a **sequencer** assigns every transaction (reads
//! included) a global sequence number, and every server executes the
//! transactions that touch its shard **in sequence order**. Agreement on
//! the order replaces commit-time coordination; the price is that a
//! server cannot answer a read until execution has reached the read's
//! slot — if an earlier transaction's input has not arrived, the read
//! **blocks** behind it (Table 1's N = no).
//!
//! Faithful-in-the-properties simplifications (per DESIGN.md): a single
//! sequencer server (server 0) stands in for Calvin's replicated
//! sequencing layer, and transactions carry their inputs in the
//! dispatch, so multi-shard writes apply independently — atomicity
//! falls out of determinism, exactly as in Calvin.

use crate::common::{Completed, Gather, ProtocolNode, Topology};
use cbf_model::{ConsistencyLevel, Key, TxId, Value};
use cbf_sim::{Actor, Ctx, ProcessId};
use std::collections::HashMap;

/// Calvin message alphabet.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // fields are self-describing
pub enum Msg {
    /// Injection: read-only transaction.
    InvokeRot { id: TxId, keys: Vec<Key> },
    /// Injection: write-only transaction.
    InvokeWtx { id: TxId, writes: Vec<(Key, Value)> },
    /// Client → sequencer: order this transaction (round 1).
    SeqReq {
        id: TxId,
        reads: Vec<Key>,
        writes: Vec<(Key, Value)>,
    },
    /// Sequencer → client: your global slot.
    SeqResp { id: TxId, slot: u64 },
    /// Sequencer → server: the transaction at `slot` (only the parts
    /// touching that server's shard).
    Dispatch {
        id: TxId,
        slot: u64,
        reads: Vec<Key>,
        writes: Vec<(Key, Value)>,
        client: ProcessId,
    },
    /// Server → client: this shard's read results for the slot (round 2's
    /// response; empty `reads` for pure writes doubles as the ack).
    ShardResp { id: TxId, reads: Vec<(Key, Value)> },
}

/// Calvin client.
#[derive(Clone, Debug)]
pub struct ClientState {
    topo: Topology,
    /// In-flight transactions (a write gathers empty acks), each beside
    /// whether it is read-only.
    pending: HashMap<TxId, (Gather<Value>, bool)>,
    completed: HashMap<TxId, Completed>,
}

/// A dispatched transaction waiting in a server's input queue.
#[derive(Clone, Debug)]
struct QueuedTx {
    id: TxId,
    reads: Vec<Key>,
    writes: Vec<(Key, Value)>,
    client: ProcessId,
}

/// Calvin server: shard store + in-order execution queue; server 0 also
/// runs the sequencer.
#[derive(Clone, Debug)]
pub struct ServerState {
    topo: Topology,
    me: ProcessId,
    store: HashMap<Key, Value>,
    /// Dispatched-but-not-yet-executed transactions, keyed by slot.
    queue: HashMap<u64, QueuedTx>,
    /// The next slot this server will execute.
    next_slot: u64,
    /// Sequencer only: the next slot to hand out.
    seq_counter: u64,
    /// Sequencer only: slots relevant to each server (so followers know
    /// which slots to skip). Simplification: every slot is dispatched to
    /// every involved server, and servers are told about every slot —
    /// uninvolved ones receive an empty dispatch.
    _reserved: (),
}

/// A Calvin node.
#[derive(Clone, Debug)]
pub enum CalvinNode {
    /// A client.
    Client(ClientState),
    /// A server (server 0 doubles as the sequencer).
    Server(ServerState),
}

const SEQUENCER: ProcessId = ProcessId(0);

impl CalvinNode {
    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id, keys } => {
                    ctx.send(
                        SEQUENCER,
                        Msg::SeqReq {
                            id,
                            reads: keys.clone(),
                            writes: Vec::new(),
                        },
                    );
                    let awaiting = c.topo.group_by_primary(&keys).len();
                    c.pending
                        .insert(id, (Gather::new(keys, awaiting, ctx.now()), true));
                }
                Msg::InvokeWtx { id, writes } => {
                    let keys: Vec<Key> = writes.iter().map(|&(k, _)| k).collect();
                    let awaiting = c.topo.group_by_primary(&keys).len();
                    ctx.send(
                        SEQUENCER,
                        Msg::SeqReq {
                            id,
                            reads: Vec::new(),
                            writes,
                        },
                    );
                    c.pending
                        .insert(id, (Gather::new(keys, awaiting, ctx.now()), false));
                }
                Msg::SeqResp { .. } => {
                    // Round 1 complete; the dispatches are on their way to
                    // the shards. Nothing to do but wait for round 2.
                }
                Msg::ShardResp { id, reads } => {
                    let Some((p, _)) = c.pending.get_mut(&id) else {
                        continue;
                    };
                    for (k, v) in reads {
                        p.got.insert(k, v);
                    }
                    if p.arrived() {
                        let Some((p, is_read)) = c.pending.remove(&id) else {
                            continue;
                        };
                        let done = if is_read {
                            p.finish(id, ctx.now(), |_, v| v.copied().unwrap_or(Value::BOTTOM))
                        } else {
                            Completed::write(id, p.invoked_at, ctx.now())
                        };
                        c.completed.insert(id, done);
                    }
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::SeqReq { id, reads, writes } => {
                    debug_assert_eq!(s.me, SEQUENCER, "only the sequencer orders");
                    let slot = s.seq_counter;
                    s.seq_counter += 1;
                    ctx.send(env.from, Msg::SeqResp { id, slot });
                    // Dispatch the slot to EVERY server: involved servers
                    // get their shard's piece, the rest an empty marker
                    // (so their execution cursor can advance).
                    for srv in s.topo.servers() {
                        let shard_reads: Vec<Key> = reads
                            .iter()
                            .copied()
                            .filter(|&k| s.topo.primary(k) == srv)
                            .collect();
                        let shard_writes: Vec<(Key, Value)> = writes
                            .iter()
                            .copied()
                            .filter(|&(k, _)| s.topo.primary(k) == srv)
                            .collect();
                        ctx.send(
                            srv,
                            Msg::Dispatch {
                                id,
                                slot,
                                reads: shard_reads,
                                writes: shard_writes,
                                client: env.from,
                            },
                        );
                    }
                }
                Msg::Dispatch {
                    id,
                    slot,
                    reads,
                    writes,
                    client,
                } => {
                    s.queue.insert(
                        slot,
                        QueuedTx {
                            id,
                            reads,
                            writes,
                            client,
                        },
                    );
                    Self::execute_ready(s, ctx);
                }
                _ => {}
            }
        }
    }

    /// Execute queued transactions strictly in slot order; stop at the
    /// first gap — that wait is Calvin's blocking.
    fn execute_ready(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        while let Some(tx) = s.queue.remove(&s.next_slot) {
            s.next_slot += 1;
            let involved = !tx.reads.is_empty() || !tx.writes.is_empty();
            for (k, v) in &tx.writes {
                s.store.insert(*k, *v);
            }
            if involved {
                let reads: Vec<(Key, Value)> = tx
                    .reads
                    .iter()
                    .map(|k| (*k, s.store.get(k).copied().unwrap_or(Value::BOTTOM)))
                    .collect();
                ctx.send(tx.client, Msg::ShardResp { id: tx.id, reads });
            }
        }
    }
}

impl Actor for CalvinNode {
    type Msg = Msg;
    fn step(&mut self, ctx: &mut Ctx<Msg>) {
        match self {
            CalvinNode::Client(c) => Self::client_step(c, ctx),
            CalvinNode::Server(s) => Self::server_step(s, ctx),
        }
    }
}

impl ProtocolNode for CalvinNode {
    const NAME: &'static str = "Calvin";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::StrictSerializable;
    const SUPPORTS_MULTI_WRITE: bool = true;

    fn server(topo: &Topology, id: ProcessId) -> Self {
        CalvinNode::Server(ServerState {
            topo: topo.clone(),
            me: id,
            store: HashMap::new(),
            queue: HashMap::new(),
            next_slot: 0,
            seq_counter: 0,
            _reserved: (),
        })
    }

    fn client(topo: &Topology, _id: ProcessId) -> Self {
        CalvinNode::Client(ClientState {
            topo: topo.clone(),
            pending: HashMap::new(),
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
            CalvinNode::Client(c) => c.completed.get(&id),
            CalvinNode::Server(_) => None,
        }
    }

    fn take_completed(&mut self, id: TxId) -> Option<Completed> {
        match self {
            CalvinNode::Client(c) => c.completed.remove(&id),
            CalvinNode::Server(_) => None,
        }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::ShardResp { reads, .. } => crate::common::max_values_per_object(
                reads
                    .iter()
                    .filter(|(_, v)| !v.is_bottom())
                    .map(|&(k, _)| k),
            ),
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::SeqReq { .. })
    }
}

crate::wire_enum!(Msg as "calvin::Msg" {
    0 => InvokeRot { id, keys },
    1 => InvokeWtx { id, writes },
    2 => SeqReq { id, reads, writes },
    3 => SeqResp { id, slot },
    4 => Dispatch { id, slot, reads, writes, client },
    5 => ShardResp { id, reads },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Cluster;
    use cbf_model::{check_causal, check_read_atomicity, ClientId};

    fn minimal() -> Cluster<CalvinNode> {
        Cluster::new(Topology::minimal(4))
    }

    #[test]
    fn sequenced_write_then_read() {
        let mut c = minimal();
        let w = c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        assert_eq!(r.reads[0].1, w.writes[0].1);
        assert_eq!(r.reads[1].1, w.writes[1].1);
        assert!(c.check().is_ok());
    }

    #[test]
    fn reads_are_two_rounds_through_the_sequencer() {
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        let r = c.read_tx(ClientId(1), &[Key(0), Key(1)]).unwrap();
        // Round 1 = sequencer request; round 2 responses come from the
        // shards via the dispatch, so the audit sees a single client
        // round but multi-hop latency. Calvin's paper counts 2 rounds
        // (client→sequencer→shards→client); the audit's client-step
        // metric sees 1 send step plus the sequencer path in latency.
        assert_eq!(r.audit.rounds, 1, "{:?}", r.audit);
        // Latency: client→seq (50µs) + seq→shard (50µs) + shard→client
        // (50µs) = 150 µs ≥ the 2-hop (100 µs) fast-read floor.
        assert!(r.audit.latency >= 150 * cbf_sim::MICROS, "{:?}", r.audit);
        assert!(r.audit.max_values_per_msg <= 1);
    }

    #[test]
    fn execution_blocks_behind_sequence_gaps() {
        // Freeze the dispatch of an earlier write to p1; a later read's
        // slot cannot execute there until the gap fills — blocking.
        let mut c = minimal();
        c.write_tx_auto(ClientId(0), &[Key(0), Key(1)]).unwrap();
        // Freeze sequencer→p1 (dispatches). The sequencer is p0.
        c.world.hold(ProcessId(0), ProcessId(1));
        // A write gets slot n but p1 never hears of it...
        let wpid = c.topo.client_pid(ClientId(0));
        let id = c.alloc_tx();
        let (v0, v1) = (c.alloc_value(), c.alloc_value());
        c.world.inject(
            wpid,
            Msg::InvokeWtx {
                id,
                writes: vec![(Key(0), v0), (Key(1), v1)],
            },
        );
        c.world.run_for(cbf_sim::MILLIS);
        // ...so a subsequent read of X1 parks behind the gap until the
        // link heals.
        let rpid = c.topo.client_pid(ClientId(1));
        let rot = c.alloc_tx();
        c.world.inject(
            rpid,
            Msg::InvokeRot {
                id: rot,
                keys: vec![Key(0), Key(1)],
            },
        );
        c.world.run_for(5 * cbf_sim::MILLIS);
        assert!(
            c.world.actor(rpid).completed(rot).is_none(),
            "the read must be stuck behind the sequence gap"
        );
        c.world.release(ProcessId(0), ProcessId(1));
        c.world
            .run_until_within(cbf_sim::SECONDS, |w| w.actor(rpid).completed(rot).is_some());
        let done = c.world.actor_mut(rpid).take_completed(rot).unwrap();
        // Deterministic execution: the read sees the full write.
        assert_eq!(done.reads, vec![(Key(0), v0), (Key(1), v1)]);
    }

    #[test]
    fn determinism_gives_atomicity_without_2pc() {
        for seed in 0..5u64 {
            let mut c = minimal();
            for i in 0..10u32 {
                let cl = ClientId(i % 4);
                if i % 2 == 0 {
                    c.write_tx_auto(cl, &[Key(0), Key(1)]).unwrap();
                } else {
                    c.read_tx(cl, &[Key(0), Key(1)]).unwrap();
                }
            }
            c.world.run_chaotic(seed, 200_000);
            assert!(check_causal(c.history()).is_ok(), "seed {seed}");
            assert!(check_read_atomicity(c.history()).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn profile_matches_the_table_row() {
        let mut c = minimal();
        for i in 0..8u32 {
            c.write_tx_auto(ClientId(i % 4), &[Key(0), Key(1)]).unwrap();
            c.read_tx(ClientId((i + 1) % 4), &[Key(0), Key(1)]).unwrap();
        }
        let p = c.profile();
        assert!(p.multi_write_supported);
        assert!(p.max_values <= 1);
        assert!(c.check().is_ok());
    }
}
