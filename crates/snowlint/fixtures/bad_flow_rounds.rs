//! Known-bad fixture: a protocol linked to a one-round Table 1 row
//! whose handler graph performs two — the `Read1Resp` arm fires a
//! second server-bound request before completing. Never compiled —
//! lexed by `tests/fixtures.rs` as
//! `crates/protocols/src/bad_flow_rounds.rs`; `flow-rounds` must fire
//! on the extra-round send site, not the `const NAME` line.

pub enum Msg {
    InvokeRot { id: u64 },
    Read1 { id: u64 },
    Read1Resp { id: u64, vals: Vec<u64> },
    Read2 { id: u64 },
    Read2Resp { id: u64, vals: Vec<u64> },
}

pub struct BadFlowRoundsNode;

impl ProtocolNode for BadFlowRoundsNode {
    const NAME: &'static str = "BAD-FLOW-ROUNDS";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id } => {
                    ctx.send(c.topo.primary(id), Msg::Read1 { id });
                }
                Msg::Read1Resp { id, .. } => {
                    ctx.send(c.topo.primary(id), Msg::Read2 { id }); // line: extra-round
                }
                Msg::Read2Resp { id, .. } => {
                    c.completed.insert(id);
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Read1 { id } => {
                    ctx.send(env.from, Msg::Read1Resp { id, vals: s.read(id) });
                }
                Msg::Read2 { id } => {
                    ctx.send(env.from, Msg::Read2Resp { id, vals: s.read(id) });
                }
                _ => {}
            }
        }
    }

    fn rot_invoke(id: TxId, keys: Vec<Key>) -> Msg {
        Msg::InvokeRot { id }
    }

    fn msg_values(msg: &Msg) -> u32 {
        match msg {
            Msg::Read2Resp { .. } => 1,
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::Read1 { .. } | Msg::Read2 { .. })
    }
}
