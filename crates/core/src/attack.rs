//! The contradictory execution `γ` (Figure 3), generic over protocols.
//!
//! The paper builds `γ` by splicing `σ_old` (Construction 1: server
//! `p_i` answers the reader *before* the write makes progress), `β_new`
//! (the write-only transaction runs to visibility), and `σ_new`
//! (Construction 2: the other server answers *after*). The paper needs
//! indistinguishability arguments because a hypothetical protocol might
//! misbehave; operationally, the splice is just an adversarial schedule:
//!
//! 1. the reader's fast ROT starts; only `p_i` (and the reader) run, so
//!    `p_i`'s one-value response — final the moment it is sent, by the
//!    fast-ROT properties — departs carrying the *old* world;
//! 2. the reader is frozen; `cw` and the servers run solo until the
//!    written values are visible (minimal progress);
//! 3. everything is released: the remaining servers answer with the
//!    *new* world and the reader completes.
//!
//! If the protocol really had fast ROTs + multi-object writes + causal
//! consistency, step 3 would hand the reader the forbidden mixed
//! snapshot — the Lemma 1 contradiction. Running this against the whole
//! design space shows each system's escape hatch: COPS-SNOW never
//! reaches step 3 with a torn pair (old-reader blacklists), Wren reads a
//! sealed snapshot, Eiger spends extra rounds, Spanner blocks in step 1,
//! COPS-RW repairs the tear from fat payloads — and the naive claimants
//! are caught red-handed.

use crate::setup::TheoremSetup;
use crate::visibility::fast_visible;
use cbf_model::history::TxRecord;
use cbf_model::{check_causal, Key, RotAudit, TxId, Value, Violation};
use cbf_protocols::common::cluster::audit_rot;
use cbf_protocols::{Completed, ProtocolNode};
use cbf_sim::{ProcessId, Time, MILLIS};

/// What the spliced execution produced.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// The server scheduled to answer first (the paper's `p_i`).
    pub first_server: ProcessId,
    /// What the reader's ROT returned.
    pub reads: Vec<(Key, Value)>,
    /// The initial values (`x_in`), keyed like `reads`.
    pub old: Vec<Value>,
    /// The values written by `Tw`.
    pub new: Vec<Value>,
    /// Causal-consistency violations of the final history (empty ⇒ the
    /// protocol survived this schedule).
    pub violations: Vec<Violation>,
    /// Trace-measured audit of the reader's ROT under the attack.
    pub audit: RotAudit,
}

impl AttackOutcome {
    /// Did the attack produce the forbidden mixed snapshot?
    pub fn caught(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Classify the reader's snapshot: all-old, all-new, or mixed
    /// (Lemma 1 allows only the first two).
    pub fn snapshot_kind(&self) -> SnapshotKind {
        let is_old = self.reads.iter().zip(&self.old).all(|(&(_, v), &o)| v == o);
        let is_new = self.reads.iter().zip(&self.new).all(|(&(_, v), &n)| v == n);
        match (is_old, is_new) {
            (true, _) => SnapshotKind::AllOld,
            (_, true) => SnapshotKind::AllNew,
            _ => SnapshotKind::Mixed,
        }
    }
}

/// The three possible shapes of the reader's snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Every key returned its initial value — legal (Construction 1).
    AllOld,
    /// Every key returned the new value — legal (Construction 2).
    AllNew,
    /// The forbidden mix of Lemma 1.
    Mixed,
}

/// Errors the attack itself can hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttackError {
    /// `Tw` never became visible while the reader was frozen — the
    /// protocol violates minimal progress for write-only transactions
    /// (the *other* horn of the theorem).
    NoProgress,
    /// The reader's ROT never completed after release.
    ReaderStuck,
}

/// Phase-B budget: how long the write-only transaction may take to
/// become visible (covers stabilization-based protocols).
const VISIBILITY_BUDGET: Time = 400 * MILLIS;
const VISIBILITY_SLICE: Time = 10 * MILLIS;
/// Phase-A budget (reader + first server only).
const PHASE_A: Time = 20 * MILLIS;
/// Phase-C budget (full release).
const PHASE_C: Time = 400 * MILLIS;

/// Run the spliced execution `γ` from the *current* configuration of
/// `setup` (normally `C0`, or a later `C_{k-1}` during the induction).
/// `Tw` may already be in flight (`tw` = its id and values) from a
/// previous induction step; if `tw` is `None` a fresh `Tw` writing every
/// key is injected.
pub fn mixed_snapshot_attack<N: ProtocolNode>(
    setup: &TheoremSetup<N>,
    first_server: ProcessId,
    tw: Option<(TxId, Vec<Value>)>,
) -> Result<AttackOutcome, AttackError> {
    splice(setup, first_server, tw).map(|(outcome, _, _)| outcome)
}

/// Render the first `limit` events of `γ` from `first_server` as a
/// space-time excerpt (Figure 3). The splice is deterministic, so this
/// is the execution [`mixed_snapshot_attack`] judged.
pub fn attack_excerpt<N: ProtocolNode>(
    setup: &TheoremSetup<N>,
    first_server: ProcessId,
    limit: usize,
) -> Result<String, AttackError> {
    let (_, s, mark) = splice(setup, first_server, None)?;
    Ok(s.cluster.world.render_lanes_range(mark, limit))
}

/// Run `γ` on a copy of `setup`. Returns the outcome, the copy in its
/// final configuration, and the trace index where the attack began.
fn splice<N: ProtocolNode>(
    setup: &TheoremSetup<N>,
    first_server: ProcessId,
    tw: Option<(TxId, Vec<Value>)>,
) -> Result<(AttackOutcome, TheoremSetup<N>, usize), AttackError> {
    let mut s = setup.clone();
    let topo = s.cluster.topo.clone();
    let cw_pid = topo.client_pid(s.cw);
    let reader_pid = topo.client_pid(s.reader);

    // Tw: the troublesome multi-object write-only transaction.
    let (tw_id, new_vals) = match tw {
        Some(x) => x,
        None => {
            let id = s.cluster.alloc_tx();
            let vals: Vec<Value> = s.keys.iter().map(|_| s.cluster.alloc_value()).collect();
            let writes: Vec<(Key, Value)> =
                s.keys.iter().copied().zip(vals.iter().copied()).collect();
            // `inject` schedules cw's step; it stays deferred until a run allows cw.
            s.cluster.world.inject(cw_pid, N::wtx_invoke(id, writes));
            (id, vals)
        }
    };
    let mark = s.cluster.world.trace.len();

    // σ_old: the reader's ROT runs against `first_server` only. The
    // response (if the protocol is one-round) departs carrying the old
    // world. `cw` is frozen, so Tw has made no (further) progress.
    let rot_id = s.cluster.alloc_tx();
    s.cluster
        .world
        .inject(reader_pid, N::rot_invoke(rot_id, s.keys.clone()));
    let phase_a: Vec<ProcessId> = vec![reader_pid, first_server];
    s.cluster
        .world
        .run_restricted_until_within(&phase_a, PHASE_A, |_| false);

    // β_new: Tw executes solo (cw + all servers; the reader frozen, its
    // in-flight messages suspended by asynchrony) until the written
    // values are visible. Minimal progress says this must happen.
    let solo: Vec<ProcessId> = topo.servers().chain(std::iter::once(cw_pid)).collect();
    let expectations: Vec<(Key, Value)> = s
        .keys
        .iter()
        .copied()
        .zip(new_vals.iter().copied())
        .collect();
    let mut visible = false;
    let mut spent: Time = 0;
    while spent < VISIBILITY_BUDGET {
        s.cluster
            .world
            .run_restricted_until_within(&solo, VISIBILITY_SLICE, |_| false);
        spent += VISIBILITY_SLICE;
        if fast_visible(&s, &expectations) {
            visible = true;
            break;
        }
    }
    if !visible {
        return Err(AttackError::NoProgress);
    }

    // σ_new + completion: release everything; the remaining servers
    // answer the reader from the new world.
    s.cluster
        .world
        .run_until_within(PHASE_C, |w| w.actor(reader_pid).completed(rot_id).is_some());
    let done: Completed = s
        .cluster
        .world
        .actor_mut(reader_pid)
        .take_completed(rot_id)
        .ok_or(AttackError::ReaderStuck)?;

    let audit = audit_rot::<N>(&s.cluster.world.trace, mark, reader_pid, &topo, &done);

    // Assemble the full history: the setup's transactions, Tw, and the
    // reader's ROT, then ask Definition 1.
    let mut history = s.cluster.history().clone();
    history.push(TxRecord {
        id: tw_id,
        client: s.cw,
        reads: Vec::new(),
        writes: s
            .keys
            .iter()
            .copied()
            .zip(new_vals.iter().copied())
            .collect(),
        invoked_at: 0,
        completed_at: 0,
    });
    history.push(TxRecord {
        id: rot_id,
        client: s.reader,
        reads: done.reads.clone(),
        writes: Vec::new(),
        invoked_at: done.invoked_at,
        completed_at: done.completed_at,
    });
    let verdict = check_causal(&history);

    let outcome = AttackOutcome {
        first_server,
        reads: done.reads,
        old: setup.x_in.clone(),
        new: new_vals,
        violations: verdict.violations,
        audit,
    };
    Ok((outcome, s, mark))
}

/// Try the attack with every choice of first server; return the first
/// outcome that catches the protocol, or the last surviving outcome.
pub fn attack_all_servers<N: ProtocolNode>(
    setup: &TheoremSetup<N>,
) -> Result<AttackOutcome, AttackError> {
    let servers: Vec<ProcessId> = setup.cluster.topo.servers().collect();
    let mut last = None;
    for srv in servers {
        let out = mixed_snapshot_attack(setup, srv, None)?;
        if out.caught() {
            return Ok(out);
        }
        last = Some(out);
    }
    Ok(last.expect("at least one server"))
}

/// A convenience used in reports: which of Lemma 1's legal shapes (or
/// the forbidden one) each server-order produced.
pub fn lemma1_census<N: ProtocolNode>(
    setup: &TheoremSetup<N>,
) -> Result<Vec<(ProcessId, SnapshotKind)>, AttackError> {
    setup
        .cluster
        .topo
        .servers()
        .map(|srv| mixed_snapshot_attack(setup, srv, None).map(|o| (srv, o.snapshot_kind())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{minimal_topology, setup_c0};
    use cbf_protocols::cops_rw::CopsRwNode;
    use cbf_protocols::eiger::EigerNode;
    use cbf_protocols::naive::{NaiveFast, NaiveTwoPhase};
    use cbf_protocols::spanner::SpannerNode;
    use cbf_protocols::wren::WrenNode;

    #[test]
    fn naive_fast_is_caught_with_a_mixed_snapshot() {
        let s = setup_c0::<NaiveFast>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(out.caught(), "reads: {:?}", out.reads);
        assert_eq!(out.snapshot_kind(), SnapshotKind::Mixed);
        assert!(out
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StaleRead { .. })));
        // The caught ROT was genuinely fast — that is the point.
        assert!(out.audit.is_fast(), "audit: {:?}", out.audit);
    }

    #[test]
    fn naive_2pc_is_caught_too() {
        // Atomic commitment narrows the window; the γ schedule still
        // drives a read into it (the gap between the two commit
        // deliveries).
        let s = setup_c0::<NaiveTwoPhase>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(out.caught(), "reads: {:?}", out.reads);
        assert_eq!(out.snapshot_kind(), SnapshotKind::Mixed);
    }

    #[test]
    fn wren_survives_by_reading_a_sealed_snapshot() {
        let s = setup_c0::<WrenNode>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(!out.caught(), "violations: {:?}", out.violations);
        // Its escape hatch is the extra round (R = 2).
        assert!(out.audit.rounds >= 2, "audit: {:?}", out.audit);
    }

    #[test]
    fn eiger_survives_by_spending_rounds() {
        let s = setup_c0::<EigerNode>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(!out.caught(), "violations: {:?}", out.violations);
        assert!(!out.audit.blocked);
    }

    #[test]
    fn spanner_survives_by_blocking() {
        let s = setup_c0::<SpannerNode>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(!out.caught(), "violations: {:?}", out.violations);
    }

    #[test]
    fn occult_survives_by_retrying() {
        let s = setup_c0::<cbf_protocols::occult::OccultNode>(
            cbf_protocols::Topology::partially_replicated(3, 5, 2, 2),
        )
        .unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(!out.caught(), "violations: {:?}", out.violations);
        assert!(!out.audit.blocked);
    }

    #[test]
    fn cops_rw_survives_with_fat_messages() {
        let s = setup_c0::<CopsRwNode>(minimal_topology()).unwrap();
        let out = attack_all_servers(&s).unwrap();
        assert!(!out.caught(), "violations: {:?}", out.violations);
        // Its escape hatch: more than one value per message.
        assert!(out.audit.max_values_per_msg > 1, "audit: {:?}", out.audit);
    }

    #[test]
    fn lemma1_census_on_a_survivor_shows_only_legal_shapes() {
        let s = setup_c0::<EigerNode>(minimal_topology()).unwrap();
        for (_, kind) in lemma1_census(&s).unwrap() {
            assert_ne!(kind, SnapshotKind::Mixed);
        }
    }
}
