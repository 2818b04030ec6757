//! Replay a recorded real-socket run through the deterministic
//! simulator and diff the outcomes.
//!
//! The recording names deliveries by `(link, seq)`, never by content:
//! the replay world re-derives every network message by re-executing
//! the (identical) actors, so the simulator acts as an *oracle* for the
//! socket runtime. If the real run's causal history differs from the
//! replay's — a codec bug altered a payload, a connection delivered
//! out of order, an actor consulted ambient state the model forbids —
//! the diff fails, loudly.
//!
//! This module is the only place in the crate allowed to touch `World`
//! (snowlint's `sim-in-net-hot-path` rule pins that): the hot path must
//! not be able to lean on simulator machinery, or the runtime would not
//! be a second implementation at all.
//!
//! ## Soundness caveats (see DESIGN §2.13)
//!
//! Timer fires and workload injections are replayed from their recorded
//! *bytes*: a timer's payload is re-decoded, not re-derived, so a codec
//! bug in a timer-only message class could in principle cancel out.
//! Network messages — everything that crosses a link — have no such
//! blind spot.

use crate::record::{Recording, StepInput};
use crate::NetError;
use cbf_model::{History, TxRecord};
use cbf_protocols::common::{ProtocolNode, Topology, Wire};
use cbf_sim::{LatencyModel, ProcessId, SimConfig, World};
use std::collections::HashMap;

/// What one replay produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Steps replayed across all processes.
    pub steps: usize,
    /// Digest of the replay world's trace — the run's
    /// fingerprint. Replaying the same recording twice must produce the
    /// same digest (checked by [`replay_and_diff`]).
    pub digest: u64,
}

/// Replay `recording` through a fresh simulator world and rebuild the
/// history the real run reported. Returns the replay's report and
/// history; fails with [`NetError::Divergence`] if the recorded order
/// references messages the replayed actors never sent, or a completion
/// the replayed clients never produced.
pub fn replay<N: ProtocolNode>(
    topo: &Topology,
    recording: &Recording,
    net_history: &History,
) -> Result<(ReplayReport, History), NetError>
where
    N::Msg: Wire,
{
    recording.check_no_aliasing().map_err(NetError::Recording)?;

    // Same actor order as the real deployment: servers, then clients.
    let mut actors = Vec::new();
    for pid in topo.servers() {
        actors.push(N::server(topo, pid));
    }
    for pid in topo.clients() {
        actors.push(N::client(topo, pid));
    }
    let mut world = World::new(
        actors,
        LatencyModel::constant_default(),
        SimConfig::default(),
    );

    // Greedy merge of the per-process logs: repeatedly execute any
    // process's next recorded step whose delivered messages all exist
    // in flight (i.e. their senders have already been replayed).
    // Executing an executable step never disables another — each link's
    // messages are consumed in seq order by exactly one log — so any
    // greedy order reaches the same final state; a full pass with no
    // executable step means the recorded order references messages the
    // replayed actors never sent: divergence.
    let mut cursors = vec![0usize; recording.logs.len()];
    let mut replayed: HashMap<(ProcessId, ProcessId), u64> = HashMap::new();
    let mut need = Vec::new();
    let mut steps = 0usize;
    loop {
        let mut progressed = false;
        let mut exhausted = true;
        for (li, log) in recording.logs.iter().enumerate() {
            let Some(step) = log.steps.get(cursors[li]) else {
                continue;
            };
            exhausted = false;
            if !step_executable(&world, log.pid, &step.inputs, &replayed, &mut need) {
                continue;
            }
            for input in &step.inputs {
                match input {
                    StepInput::Deliver { from, seq } => {
                        world.deliver_next_on(*from, log.pid).ok_or_else(|| {
                            NetError::Divergence(format!(
                                "replay: link {from:?}→{:?} empty at recorded seq {seq}",
                                log.pid
                            ))
                        })?;
                        *replayed.entry((*from, log.pid)).or_insert(0) += 1;
                    }
                    StepInput::Timer { bytes } | StepInput::Inject { bytes } => {
                        let msg = N::Msg::from_bytes(bytes).map_err(|e| {
                            NetError::Recording(format!(
                                "recorded self-delivery at {:?} undecodable: {e}",
                                log.pid
                            ))
                        })?;
                        world.inject_no_step(log.pid, msg);
                    }
                }
            }
            world.step_now_at(log.pid, step.now);
            cursors[li] += 1;
            steps += 1;
            progressed = true;
        }
        if exhausted {
            break;
        }
        if !progressed {
            let stuck: Vec<String> = recording
                .logs
                .iter()
                .enumerate()
                .filter(|(li, log)| cursors[*li] < log.steps.len())
                .map(|(li, log)| {
                    format!(
                        "{:?} at step {}/{}: {:?}",
                        log.pid,
                        cursors[li],
                        log.steps.len(),
                        log.steps[cursors[li]].inputs
                    )
                })
                .collect();
            return Err(NetError::Divergence(format!(
                "replay stuck — recorded deliveries reference messages the replayed \
                 actors never sent:\n  {}",
                stuck.join("\n  ")
            )));
        }
    }

    // Rebuild the history in the real run's completion order, asking
    // the replayed clients for each transaction's outcome.
    let mut history = History::new();
    for tx in net_history.transactions() {
        let pid = topo.client_pid(tx.client);
        let c = world.actor_mut(pid).take_completed(tx.id).ok_or_else(|| {
            NetError::Divergence(format!(
                "replayed client {:?} never completed {:?}",
                tx.client, tx.id
            ))
        })?;
        history.push(TxRecord {
            id: tx.id,
            client: tx.client,
            reads: c.reads,
            writes: tx.writes.clone(),
            invoked_at: c.invoked_at,
            completed_at: c.completed_at,
        });
    }

    let digest = world.trace.digest();
    Ok((ReplayReport { steps, digest }, history))
}

/// All of a step's recorded deliveries are satisfiable right now: per
/// link, the seqs continue the replayed count and that many messages
/// are actually in flight. `need` is scratch space reused across
/// attempts: the step's senders and how many messages it takes from
/// each.
fn step_executable<A: cbf_sim::Actor>(
    world: &World<A>,
    pid: ProcessId,
    inputs: &[StepInput],
    replayed: &HashMap<(ProcessId, ProcessId), u64>,
    need: &mut Vec<(ProcessId, u64)>,
) -> bool {
    need.clear();
    for input in inputs {
        if let StepInput::Deliver { from, seq } = *input {
            let already = replayed.get(&(from, pid)).copied().unwrap_or(0);
            let k = match need.iter().position(|&(f, _)| f == from) {
                Some(k) => k,
                None => {
                    need.push((from, 0));
                    need.len() - 1
                }
            };
            if seq != already + need[k].1 {
                // check_no_aliasing guarantees this cannot happen for a
                // well-formed recording; treat defensively as blocked.
                return false;
            }
            need[k].1 += 1;
        }
    }
    need.iter()
        .all(|&(from, n)| world.in_flight_count_on(from, pid) as u64 >= n)
}

/// The full oracle check: replay twice, demand identical digests
/// (replay determinism), and demand the replayed history matches the
/// real run's bit for bit. Returns the report on success.
pub fn replay_and_diff<N: ProtocolNode>(
    topo: &Topology,
    recording: &Recording,
    net_history: &History,
) -> Result<ReplayReport, NetError>
where
    N::Msg: Wire,
{
    let (report, history) = replay::<N>(topo, recording, net_history)?;
    let (report2, _) = replay::<N>(topo, recording, net_history)?;
    if report != report2 {
        return Err(NetError::Divergence(format!(
            "replay is not deterministic: {report:?} vs {report2:?}"
        )));
    }
    let real = net_history.transactions();
    let sim = history.transactions();
    if real.len() != sim.len() {
        return Err(NetError::Divergence(format!(
            "history length {} (real) vs {} (replay)",
            real.len(),
            sim.len()
        )));
    }
    for (i, (r, s)) in real.iter().zip(sim.iter()).enumerate() {
        if r != s {
            return Err(NetError::Divergence(format!(
                "history diverges at transaction {i}:\n  real:   {r:?}\n  replay: {s:?}"
            )));
        }
    }
    Ok(report)
}
