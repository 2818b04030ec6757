//! Known-bad fixture: a shared "helper" under `crates/protocols/src/common/`
//! that finishes a read-only transaction for its caller: it records the
//! completion, sends the follow-up and arms a retry timer — three effects
//! the flow pass, which closes handlers over their own module only, never
//! sees. Never compiled — lexed by `tests/fixtures.rs` as
//! `crates/protocols/src/common/bad_common_effect.rs`; `flow-common-effect`
//! must fire on each marked line and nowhere in the `#[cfg(test)]` items.

pub fn finish_and_follow_up(c: &mut ClientState, ctx: &mut Ctx<Msg>, id: TxId) {
    let done = Completed::write(id, 0, ctx.now());
    c.completed.insert(id, done); // line: completion
    ctx.send(c.topo.primary(Key(0)), Msg::ReadReq { id }); // line: send
    ctx.set_timer(c.topo.retry_after, Msg::RetryTick { id, attempt: 0 }); // line: timer
}

/// A documented helper may *say* `ctx.send(..)` without doing it.
pub fn pure(id: TxId) -> TxId {
    let _text = "ctx.send(server, Msg::ReadReq { id })";
    id
}

#[cfg(test)]
fn scripted_reply(ctx: &mut Ctx<Msg>, id: TxId) {
    ctx.send(ProcessId(0), Msg::ReadReq { id });
}

#[cfg(test)]
mod tests {
    fn actor_step(completed: &mut Vec<Completed>, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(1, Msg::Kick);
        completed.insert(0, Completed::write(TxId(0), 0, 1));
    }
}
