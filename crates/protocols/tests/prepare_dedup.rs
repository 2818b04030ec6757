//! A duplicated prepare response must not end a two-phase commit early.
//!
//! Every write fan-out counts its participants' answers, and the same
//! participant answering twice (a duplicated message) is still one
//! answer. If it counted twice, a Wren-style coordinator would commit at
//! a timestamp that never saw the other participant's proposal and ack
//! the client, and a RAMP client would send `Commit` to a shard that has
//! not prepared, which then acks a write it never applied.
//!
//! Each test steps single nodes by hand (`Ctx::standalone`) in the
//! paper's minimal deployment: servers 0 and 1 own keys 0 and 1, client
//! 2 writes both, so every write has two participants.

use cbf_model::{Key, TxId, Value};
use cbf_protocols::common::ProtocolNode;
use cbf_protocols::{cure, naive, occult, pinned, ramp, wren, NaiveTwoPhase, Topology};
use cbf_sim::{Ctx, Envelope, MsgId, ProcessId};

const ID: TxId = TxId(7);
const CLIENT: ProcessId = ProcessId(2);
const S0: ProcessId = ProcessId(0);
const S1: ProcessId = ProcessId(1);

fn writes() -> Vec<(Key, Value)> {
    vec![(Key(0), Value(10)), (Key(1), Value(11))]
}

/// Deliver `inbox` to `node` (process `me`) in one step and return what
/// it sent, in send order.
fn step<N: ProtocolNode>(
    node: &mut N,
    me: ProcessId,
    inbox: Vec<(ProcessId, N::Msg)>,
) -> Vec<(ProcessId, N::Msg)> {
    let inbox = inbox
        .into_iter()
        .enumerate()
        .map(|(i, (from, msg))| Envelope {
            from,
            id: MsgId(i as u64),
            msg,
        })
        .collect();
    let mut ctx = Ctx::standalone(me, 1_000, inbox);
    node.step(&mut ctx);
    ctx.into_outputs().0
}

/// A coordinator (server 0) with a write over both servers in 2PC: the
/// same participant's prepare response twice sends nothing; the other
/// participant's response then commits at the larger proposal, to both
/// participants, and acks the client.
macro_rules! coordinator_ignores_a_duplicated_prepare_response {
    ($test:ident, $node:ty, $m:ident) => {
        #[test]
        fn $test() {
            use $m::Msg;
            let topo = Topology::minimal(1);
            let mut coord = <$node as ProtocolNode>::server(&topo, S0);
            let req = Msg::WtxReq {
                id: ID,
                writes: writes(),
                dep_ts: 0,
            };
            let prepares = step(&mut coord, S0, vec![(CLIENT, req)]);
            let targets: Vec<ProcessId> = prepares.iter().map(|&(to, _)| to).collect();
            assert_eq!(targets, [S0, S1], "one prepare per participant");

            let dup = || {
                (
                    S1,
                    Msg::PrepareResp {
                        id: ID,
                        proposed: 9,
                    },
                )
            };
            let sent = step(&mut coord, S0, vec![dup()]);
            assert!(
                sent.is_empty(),
                "one of two participants answered: {sent:?}"
            );
            let sent = step(&mut coord, S0, vec![dup()]);
            assert!(
                sent.is_empty(),
                "a duplicated response is not the last: {sent:?}"
            );

            let last = (
                S0,
                Msg::PrepareResp {
                    id: ID,
                    proposed: 4,
                },
            );
            let sent = step(&mut coord, S0, vec![last]);
            assert_eq!(sent.len(), 3, "{sent:?}");
            for (to, msg) in &sent[..2] {
                assert!(
                    matches!(msg, Msg::Commit { id: ID, ts: 9 }),
                    "commit at the max proposal: {to:?} {msg:?}"
                );
            }
            assert_eq!([sent[0].0, sent[1].0], [S0, S1]);
            assert_eq!(sent[2].0, CLIENT);
            assert!(
                matches!(sent[2].1, Msg::WtxAck { id: ID, ts: 9 }),
                "{sent:?}"
            );

            let late = step(&mut coord, S0, vec![dup()]);
            assert!(
                late.is_empty(),
                "a decided 2PC ignores late answers: {late:?}"
            );
        }
    };
}

coordinator_ignores_a_duplicated_prepare_response!(wren_coordinator, wren::WrenNode, wren);
coordinator_ignores_a_duplicated_prepare_response!(cure_coordinator, cure::CureNode, cure);
coordinator_ignores_a_duplicated_prepare_response!(occult_coordinator, occult::OccultNode, occult);
coordinator_ignores_a_duplicated_prepare_response!(pinned_coordinator, pinned::PinnedNode, pinned);

#[test]
fn ramp_client_commits_only_after_every_shard_prepared() {
    use ramp::Msg;
    let topo = Topology::minimal(1);
    let mut client = ramp::RampNode::client(&topo, CLIENT);
    let invoke = ramp::RampNode::wtx_invoke(ID, writes());
    let prepares = step(&mut client, CLIENT, vec![(CLIENT, invoke)]);
    let targets: Vec<ProcessId> = prepares.iter().map(|&(to, _)| to).collect();
    assert_eq!(targets, [S0, S1]);

    let ack = |from| (from, Msg::PrepareAck { id: ID });
    let sent = step(&mut client, CLIENT, vec![ack(S1), ack(S1)]);
    assert!(sent.is_empty(), "shard 0 has not prepared: {sent:?}");

    let sent = step(&mut client, CLIENT, vec![ack(S0)]);
    let commits: Vec<ProcessId> = sent
        .iter()
        .filter(|(_, m)| matches!(m, Msg::Commit { id: ID, .. }))
        .map(|&(to, _)| to)
        .collect();
    assert_eq!(commits, [S0, S1], "{sent:?}");

    // The commit phase counts its own acks: a late prepare ack is not one.
    let commit_ack = |from| (from, Msg::CommitAck { id: ID });
    step(
        &mut client,
        CLIENT,
        vec![ack(S1), commit_ack(S1), commit_ack(S1)],
    );
    assert!(client.completed(ID).is_none(), "shard 0 has not committed");
    step(&mut client, CLIENT, vec![commit_ack(S0)]);
    assert!(client.completed(ID).is_some());
}

#[test]
fn naive_client_advances_a_round_only_when_every_server_acked_it() {
    use naive::Msg;
    let topo = Topology::minimal(1);
    let mut client = NaiveTwoPhase::client(&topo, CLIENT);
    let invoke = NaiveTwoPhase::wtx_invoke(ID, writes());
    let phase1 = step(&mut client, CLIENT, vec![(CLIENT, invoke)]);
    assert_eq!(phase1.len(), 2);

    let ack = |from, round| (from, Msg::PhaseAck { id: ID, round });
    let sent = step(&mut client, CLIENT, vec![ack(S1, 1), ack(S1, 1)]);
    assert!(sent.is_empty(), "server 0 has not acked round 1: {sent:?}");

    let sent = step(&mut client, CLIENT, vec![ack(S0, 1)]);
    let round2: Vec<ProcessId> = sent
        .iter()
        .filter(|(_, m)| matches!(m, Msg::Phase { round: 2, .. }))
        .map(|&(to, _)| to)
        .collect();
    assert_eq!(round2, [S0, S1], "{sent:?}");

    step(&mut client, CLIENT, vec![ack(S1, 2), ack(S1, 2)]);
    assert!(
        client.completed(ID).is_none(),
        "server 0 has not acked round 2"
    );
    step(&mut client, CLIENT, vec![ack(S0, 2)]);
    assert!(client.completed(ID).is_some());
}
