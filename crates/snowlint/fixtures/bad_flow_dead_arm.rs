//! Known-bad fixture: a protocol with a handler arm for a message
//! variant no code path emits, times, or injects — a leftover from a
//! removed invalidation scheme. Never compiled — lexed by
//! `tests/fixtures.rs` as `crates/protocols/src/bad_flow_dead_arm.rs`;
//! `flow-dead-arm` must fire on the dead arm's pattern line.

pub enum Msg {
    InvokeRot { id: u64 },
    Read { id: u64 },
    ReadResp { id: u64, vals: Vec<u64> },
    Invalidate { id: u64 },
}

pub struct BadFlowDeadArmNode;

impl ProtocolNode for BadFlowDeadArmNode {
    const NAME: &'static str = "BAD-FLOW-DEAD-ARM";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id } => {
                    ctx.send(c.topo.primary(id), Msg::Read { id });
                }
                Msg::ReadResp { id, .. } => {
                    c.completed.insert(id);
                }
                Msg::Invalidate { id } => { // line: dead-arm
                    c.cache.remove(&id);
                }
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Read { id } => {
                    ctx.send(env.from, Msg::ReadResp { id, vals: s.read(id) });
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
            Msg::ReadResp { .. } => 1,
            _ => 0,
        }
    }

    fn msg_is_request(msg: &Msg) -> bool {
        matches!(msg, Msg::Read { .. })
    }
}
