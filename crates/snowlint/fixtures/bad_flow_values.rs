//! Known-bad fixture: a protocol linked to a one-value Table 1 row
//! whose read path accumulates two — each of the two rounds returns a
//! committed version. Never compiled — lexed by `tests/fixtures.rs` as
//! `crates/protocols/src/bad_flow_values.rs`; `flow-values` must fire
//! on the send of the version *beyond* the row's budget (the second
//! value reply), not the `const NAME` line.

pub enum Msg {
    InvokeRot { id: u64 },
    ReadA { id: u64 },
    RespA { id: u64, val: u64 },
    ReadB { id: u64 },
    RespB { id: u64, val: u64 },
}

pub struct BadFlowValuesNode;

impl ProtocolNode for BadFlowValuesNode {
    const NAME: &'static str = "BAD-FLOW-VALUES";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id } => {
                    ctx.send(c.topo.primary(id), Msg::ReadA { id });
                }
                Msg::RespA { id, .. } => {
                    ctx.send(c.topo.primary(id), Msg::ReadB { id });
                }
                Msg::RespB { id, .. } => {
                    c.completed.insert(id);
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::ReadA { id } => {
                    ctx.send(env.from, Msg::RespA { id, val: s.newest(id) });
                }
                Msg::ReadB { id } => {
                    ctx.send(env.from, Msg::RespB { id, val: s.stable(id) }); // line: second-version
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
            Msg::RespA { .. } => 1,
            Msg::RespB { .. } => 1,
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::ReadA { .. } | Msg::ReadB { .. })
    }
}
