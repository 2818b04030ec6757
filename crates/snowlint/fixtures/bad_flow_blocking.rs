//! Known-bad fixture: a protocol linked to a non-blocking Table 1 row
//! that parks requests server-side — the read arm stashes the client pid
//! and a drain helper replies to the *stored* pid once the version is
//! ready. Never compiled — lexed by `tests/fixtures.rs` as
//! `crates/protocols/src/bad_flow_blocking.rs`; `flow-blocking` must
//! fire on the deferred reply site inside the drain helper.

pub enum Msg {
    InvokeRot { id: u64 },
    Read { id: u64 },
    ReadResp { id: u64, vals: Vec<u64> },
}

pub struct BadFlowBlockingNode;

impl ProtocolNode for BadFlowBlockingNode {
    const NAME: &'static str = "BAD-FLOW-BLOCKING";
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
                _ => {}
            }
        }
    }

    fn server_step(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::Read { id } => {
                    s.waiting.push(Pending { id, client: env.from });
                    drain_ready(s, ctx);
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

/// Re-drive parked reads whose snapshot became stable. Replying to a
/// stored pid instead of `env.from` is exactly what snowflow calls
/// blocking: the response can be deferred past the activation.
fn drain_ready(s: &mut ServerState, ctx: &mut Ctx<Msg>) {
    let mut still = Vec::new();
    for r in s.waiting.drain(..) {
        if s.store.stable(r.id) {
            ctx.send(r.client, Msg::ReadResp { id: r.id, vals: s.store.read(r.id) }); // line: deferred-reply
        } else {
            still.push(r);
        }
    }
    s.waiting = still;
}
