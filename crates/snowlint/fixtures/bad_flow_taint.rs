//! Known-bad fixture: a protocol whose handler reaches ambient
//! randomness through a two-deep call chain — `client_step` calls
//! `backoff_jitter`, which calls `seed_from_os`, which touches
//! `thread_rng`. Never compiled — lexed by `tests/fixtures.rs` as
//! `crates/protocols/src/bad_flow_taint.rs`; `flow-taint` must fire on
//! the source token itself, with the call chain in the message.

pub enum Msg {
    InvokeRot { id: u64 },
    Read { id: u64 },
    ReadResp { id: u64, vals: Vec<u64> },
}

pub struct BadFlowTaintNode;

impl ProtocolNode for BadFlowTaintNode {
    const NAME: &'static str = "BAD-FLOW-TAINT";
    const CONSISTENCY: ConsistencyLevel = ConsistencyLevel::Causal;
    const SUPPORTS_MULTI_WRITE: bool = false;

    fn client_step(c: &mut ClientState, ctx: &mut Ctx<Msg>) {
        for env in ctx.recv() {
            match env.msg {
                Msg::InvokeRot { id } => {
                    let _pause = backoff_jitter(c.attempts);
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

fn backoff_jitter(attempts: u32) -> u64 {
    seed_from_os() % (1 << attempts.min(8))
}

fn seed_from_os() -> u64 {
    let mut rng = thread_rng(); // line: taint-source
    rng.next_u64()
}
