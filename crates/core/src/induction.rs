//! Lemma 3 and Theorem 1: the troublesome infinite execution, prefix by
//! prefix.
//!
//! Starting at `C0` with the write-only `Tw = (w(X0)x0, w(X1)x1)`
//! injected, each induction step `k` runs `Tw` solo and watches for the
//! **forced message** `ms_k` of claim 1: either a direct message
//! `p_{k%2} → p_{(k-1)%2}`, or an indirect one — `p_{k%2} → cw` after
//! whose receipt `cw` messages `p_{(k-1)%2}` (detected by a forked
//! look-ahead of the solo continuation). The prefix `α_k` ends the
//! moment `ms_k` is sent; claim 2 — the written values are still not
//! visible in `C_k` — is then checked with Definition 2 probes.
//!
//! For a protocol that truly had fast ROTs, multi-object writes and
//! causal consistency, this loop would run forever: that is the
//! impossibility. Real claimants only *pretend*, so after finitely many
//! forced messages a step arrives where no `ms_k` exists — and there the
//! contradictory execution `γ` ([`crate::attack`]) extracts the
//! forbidden mixed snapshot. Protocols that genuinely give up one of the
//! four properties survive the attack, and the report says which
//! property saved them.

use crate::attack::{mixed_snapshot_attack, AttackError, AttackOutcome};
use crate::setup::{minimal_topology, setup_c0};
use crate::visibility::is_visible;
use cbf_model::{Key, Value};
use cbf_protocols::ProtocolNode;
use cbf_sim::{MsgId, ProcessId, Time, TraceEvent, World, MILLIS};

/// The forced message `ms_k` of one induction step.
#[derive(Clone, Debug)]
pub struct ForcedMsg {
    /// Sender (the paper's `p_{k%2}`).
    pub from: ProcessId,
    /// Receiver: the sibling server (direct) or `cw` (indirect).
    pub to: ProcessId,
    /// Indirect = routed through `cw` per claim 1's second disjunct.
    pub indirect: bool,
    /// Debug rendering of the payload.
    pub desc: String,
}

/// One verified prefix `α_k`.
#[derive(Clone, Debug)]
pub struct InductionStep {
    /// The step index `k ≥ 1`.
    pub k: u32,
    /// The forced message that extends `α_{k-1}` to `α_k`.
    pub forced: ForcedMsg,
    /// Claim 2, checked: is `x_j` visible in `C_k`? (Expected: no.)
    pub visible: Vec<bool>,
}

/// How the theorem run ended.
#[derive(Clone, Debug)]
pub enum Conclusion {
    /// The protocol does not offer multi-object write transactions: it
    /// sits on the "reduced functionality" side of the trade-off and
    /// the theorem has nothing to refute.
    NotApplicable {
        /// Why the theorem does not apply.
        reason: String,
    },
    /// At step `k` no forced message existed, and the contradictory
    /// execution `γ` produced a causal violation: the protocol's claim
    /// to all four properties is refuted by this witness.
    Caught {
        /// The step at which the claimant ran out of coordination.
        at_k: u32,
        /// The witness execution.
        witness: Box<AttackOutcome>,
    },
    /// No forced message at step `k`, but `γ` stayed causal — the
    /// protocol escapes by giving up a fast-ROT property.
    Survived {
        /// The step at which the attack ran.
        at_k: u32,
        /// Which property the measurements show it gave up.
        gave_up: String,
        /// The surviving execution.
        outcome: Box<AttackOutcome>,
    },
    /// Every step up to `k_max` produced a forced message with the
    /// values still invisible — the infinite-execution behaviour a true
    /// claimant would exhibit forever.
    ForcedForever {
        /// How many prefixes were constructed.
        k_max: u32,
    },
    /// The run aborted (e.g. minimal progress failed).
    Aborted {
        /// Diagnostic.
        reason: String,
    },
}

/// The full record of a theorem run against one protocol.
#[derive(Clone, Debug)]
pub struct TheoremReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// The verified prefixes `α_1 … α_k`.
    pub steps: Vec<InductionStep>,
    /// How it ended.
    pub conclusion: Conclusion,
}

impl TheoremReport {
    /// Render the report as the text block the `repro` binary prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Theorem 1 vs {}\n", self.protocol));
        for s in &self.steps {
            let kind = if s.forced.indirect {
                "indirect (via cw)"
            } else {
                "direct"
            };
            out.push_str(&format!(
                "  α_{}: forced message {} → {} [{}] {}; x0 visible: {}, x1 visible: {}\n",
                s.k,
                s.forced.from,
                s.forced.to,
                kind,
                s.forced.desc,
                s.visible.first().copied().unwrap_or(false),
                s.visible.get(1).copied().unwrap_or(false),
            ));
        }
        match &self.conclusion {
            Conclusion::NotApplicable { reason } => {
                out.push_str(&format!("  not applicable: {reason}\n"));
            }
            Conclusion::Caught { at_k, witness } => {
                out.push_str(&format!(
                    "  CAUGHT at k={}: reader returned {:?} (old {:?} / new {:?})\n  violations: {:?}\n",
                    at_k, witness.reads, witness.old, witness.new, witness.violations
                ));
            }
            Conclusion::Survived {
                at_k,
                gave_up,
                outcome,
            } => {
                out.push_str(&format!(
                    "  survived at k={at_k} by giving up {gave_up}; reader returned {:?}\n",
                    outcome.reads
                ));
            }
            Conclusion::ForcedForever { k_max } => {
                out.push_str(&format!(
                    "  {k_max} consecutive forced messages; values never visible — the paper's infinite execution\n"
                ));
            }
            Conclusion::Aborted { reason } => {
                out.push_str(&format!("  aborted: {reason}\n"));
            }
        }
        out
    }
}

/// Per-step solo-run budget.
const SOLO_BUDGET: Time = 100 * MILLIS;
/// Look-ahead budget for the indirect-message check.
const LOOKAHEAD: Time = 100 * MILLIS;

/// Does the solo continuation deliver `candidate` to `cw` and later send
/// `cw → p_other`? (Claim 1's indirect disjunct, on a fork.)
fn indirect_in_continuation<N: ProtocolNode>(
    w: &World<N>,
    candidate: MsgId,
    cw: ProcessId,
    p_other: ProcessId,
    solo: &[ProcessId],
) -> bool {
    let mut f = w.fork();
    let mark = f.trace.len();
    f.run_restricted_until_within(solo, LOOKAHEAD, |_| false);
    let evs = f.trace.since(mark);
    let Some(d) = evs.iter().position(
        |e| matches!(e, TraceEvent::Deliver { id, to, .. } if id == candidate && to == cw),
    ) else {
        return false;
    };
    evs.slice(d..)
        .iter()
        .any(|e| matches!(e, TraceEvent::Send { from, to, .. } if from == cw && to == p_other))
}

/// Run Theorem 1 against protocol `N` on the paper's minimal deployment
/// (two servers, two objects), constructing up to `k_max` prefixes.
///
/// ```
/// use cbf_core::{run_theorem, Conclusion};
/// use cbf_protocols::naive::NaiveFast;
///
/// let report = run_theorem::<NaiveFast>(8);
/// assert!(matches!(report.conclusion, Conclusion::Caught { at_k: 1, .. }));
/// ```
pub fn run_theorem<N: ProtocolNode>(k_max: u32) -> TheoremReport {
    run_theorem_on::<N>(minimal_topology(), k_max, false)
}

/// The induction on an explicit topology. With `general` set, claim 1 is
/// the Appendix-A form: the forced message may originate at **any**
/// server (Lemma 6); otherwise the two-server alternation `p_{k%2}` of
/// Lemma 3 is enforced.
pub(crate) fn run_theorem_on<N: ProtocolNode>(
    topo: cbf_protocols::Topology,
    k_max: u32,
    general: bool,
) -> TheoremReport {
    if !N::SUPPORTS_MULTI_WRITE {
        return TheoremReport {
            protocol: N::NAME,
            steps: Vec::new(),
            conclusion: Conclusion::NotApplicable {
                reason: "no multi-object write transactions (functionality traded for fast reads)"
                    .into(),
            },
        };
    }
    let mut setup = match setup_c0::<N>(topo) {
        Ok(s) => s,
        Err(e) => {
            return TheoremReport {
                protocol: N::NAME,
                steps: Vec::new(),
                conclusion: Conclusion::Aborted {
                    reason: format!("setup to C0 failed: {e}"),
                },
            }
        }
    };

    let topo = setup.cluster.topo.clone();
    let cw_pid = topo.client_pid(setup.cw);
    let solo: Vec<ProcessId> = topo.servers().chain(std::iter::once(cw_pid)).collect();

    // Inject Tw; its step stays deferred until a solo run allows cw.
    let tw_id = setup.cluster.alloc_tx();
    let new_vals: Vec<Value> = setup
        .keys
        .iter()
        .map(|_| setup.cluster.alloc_value())
        .collect();
    let writes: Vec<(Key, Value)> = setup
        .keys
        .iter()
        .copied()
        .zip(new_vals.iter().copied())
        .collect();
    setup
        .cluster
        .world
        .inject(cw_pid, N::wtx_invoke(tw_id, writes));

    let servers: Vec<ProcessId> = setup.cluster.topo.servers().collect();
    let mut steps = Vec::new();
    for k in 1..=k_max {
        // Lemma 3 names the sender p_{k%2}; Lemma 6 allows any server.
        let p_k = ProcessId(k % 2);
        let p_other = ProcessId((k + 1) % 2);

        // Try to extend the prefix on the live setup; remember C_{k-1}
        // so we can rewind if no forced message exists.
        let checkpoint = setup.clone();
        let mut scan = setup.cluster.world.trace.len();
        let mut found: Option<ForcedMsg> = None;
        let solo_for_pred = solo.clone();
        setup
            .cluster
            .world
            .run_restricted_until_within(&solo, SOLO_BUDGET, |w| {
                // O(1) indexed access: this predicate runs before every
                // event, so materializing the whole trace here would be
                // quadratic in trace length.
                while scan < w.trace.len() {
                    if let TraceEvent::Send {
                        id, from, to, msg, ..
                    } = w.trace.event_at(scan)
                    {
                        let sender_ok = if general {
                            servers.contains(&from)
                        } else {
                            from == p_k
                        };
                        if sender_ok {
                            let direct_ok = if general {
                                servers.contains(&to) && to != from
                            } else {
                                to == p_other
                            };
                            if direct_ok {
                                found = Some(ForcedMsg {
                                    from,
                                    to,
                                    indirect: false,
                                    desc: format!("{msg:?}"),
                                });
                                return true;
                            }
                            if to == cw_pid {
                                // Indirect: after cw receives it, cw must
                                // message a *different* server.
                                let targets: Vec<ProcessId> = if general {
                                    servers.iter().copied().filter(|&s| s != from).collect()
                                } else {
                                    vec![p_other]
                                };
                                if targets.iter().any(|&t| {
                                    indirect_in_continuation(w, id, cw_pid, t, &solo_for_pred)
                                }) {
                                    found = Some(ForcedMsg {
                                        from,
                                        to: cw_pid,
                                        indirect: true,
                                        desc: format!("{msg:?}"),
                                    });
                                    return true;
                                }
                            }
                        }
                    }
                    scan += 1;
                }
                false
            });

        match found {
            Some(forced) => {
                // C_k reached. Claim 2: the written values are still not
                // visible (checked with the Definition 2 probe family).
                let visible: Vec<bool> = setup
                    .keys
                    .iter()
                    .zip(&new_vals)
                    .map(|(&key, &val)| is_visible(&setup, key, val))
                    .collect();
                let any_visible = visible.iter().any(|&v| v);
                steps.push(InductionStep { k, forced, visible });
                if any_visible {
                    // Claim 2 failed: some value is visible in C_k. The
                    // paper's proof then builds the execution δ — a γ
                    // splice from C_{k-1} whose σ_new leg reads the now
                    // visible world — and derives the contradiction.
                    let conclusion = match mixed_snapshot_attack(
                        &checkpoint,
                        p_k,
                        Some((tw_id, new_vals.clone())),
                    ) {
                        Ok(out) if out.caught() => Conclusion::Caught {
                            at_k: k,
                            witness: Box::new(out),
                        },
                        Ok(out) => Conclusion::Survived {
                            at_k: k,
                            gave_up: classify_escape(&out),
                            outcome: Box::new(out),
                        },
                        Err(e) => Conclusion::Aborted {
                            reason: format!("δ construction failed: {e:?}"),
                        },
                    };
                    return TheoremReport {
                        protocol: N::NAME,
                        steps,
                        conclusion,
                    };
                }
            }
            None => {
                // No ms_k: rewind to C_{k-1} and run γ. Per the paper the
                // reader's first responder is p_{k%2}; if that schedule
                // happens to stay causal, try the other server too.
                setup = checkpoint;
                // Per the paper the reader's first responder is p_{k%2};
                // if that schedule stays causal, try every other server.
                let mut order: Vec<ProcessId> = vec![p_k];
                order.extend(servers.iter().copied().filter(|&s| s != p_k));
                let mut conclusion = None;
                let mut first_surviving: Option<AttackOutcome> = None;
                for srv in order {
                    match mixed_snapshot_attack(&setup, srv, Some((tw_id, new_vals.clone()))) {
                        Ok(out) if out.caught() => {
                            conclusion = Some(Conclusion::Caught {
                                at_k: k,
                                witness: Box::new(out),
                            });
                            break;
                        }
                        Ok(out) => {
                            first_surviving.get_or_insert(out);
                        }
                        Err(AttackError::NoProgress) => {
                            conclusion = Some(Conclusion::Aborted {
                                reason: "minimal progress violated: Tw never became visible".into(),
                            });
                            break;
                        }
                        Err(e) => {
                            conclusion = Some(Conclusion::Aborted {
                                reason: format!("attack failed: {e:?}"),
                            });
                            break;
                        }
                    }
                }
                let conclusion = conclusion.unwrap_or_else(|| {
                    let outcome = first_surviving.expect("some attack ran");
                    Conclusion::Survived {
                        at_k: k,
                        gave_up: classify_escape(&outcome),
                        outcome: Box::new(outcome),
                    }
                });
                return TheoremReport {
                    protocol: N::NAME,
                    steps,
                    conclusion,
                };
            }
        }
    }
    TheoremReport {
        protocol: N::NAME,
        steps,
        conclusion: Conclusion::ForcedForever { k_max },
    }
}

/// Which fast-ROT property did a surviving protocol measurably give up
/// during the attack?
fn classify_escape(out: &AttackOutcome) -> String {
    let mut gave: Vec<String> = Vec::new();
    if out.audit.rounds > 1 {
        gave.push("one-round (R)".into());
    }
    if out.audit.max_values_per_msg > 1 {
        gave.push("one-value (V)".into());
    }
    if out.audit.blocked {
        gave.push("non-blocking (N)".into());
    }
    if gave.is_empty() {
        // The client-round audit saw nothing — but Definition 4 also
        // requires the client to message the storing servers *directly*.
        // A proxied read (e.g. Calvin's sequencer) shows up as latency
        // above the direct round-trip floor of the default network.
        let rtt_floor = 2 * 50 * cbf_sim::MICROS;
        if out.audit.latency > rtt_floor {
            gave.push(format!(
                "the direct one-roundtrip structure (reads routed through another server: {} µs > the {} µs RTT floor)",
                out.audit.latency / 1_000,
                rtt_floor / 1_000
            ));
        }
    }
    if gave.is_empty() {
        // The schedule did not force the property violation to show; the
        // protocol still cannot be a counterexample (Theorem 1), so the
        // report says only that this γ stayed causal.
        "nothing observable under this schedule (snapshot stayed causal)".into()
    } else {
        gave.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::SnapshotKind;
    use cbf_protocols::cops::CopsNode;

    use cbf_protocols::naive::{NaiveFast, NaiveThreePhase, NaiveTwoPhase};

    #[test]
    fn naive_fast_dies_at_the_first_step() {
        let r = run_theorem::<NaiveFast>(8);
        assert!(r.steps.is_empty(), "steps: {:?}", r.steps);
        match &r.conclusion {
            Conclusion::Caught { at_k: 1, witness } => {
                assert_eq!(witness.snapshot_kind(), SnapshotKind::Mixed);
            }
            other => panic!("expected Caught at k=1, got {other:?}"),
        }
    }

    #[test]
    fn naive_2pc_survives_one_forced_message_then_dies() {
        let r = run_theorem::<NaiveTwoPhase>(8);
        assert_eq!(r.steps.len(), 1, "{}", r.render());
        // The forced message is indirect: a server ack after which cw
        // sends the commit to the sibling.
        assert!(r.steps[0].forced.indirect);
        // Claim 2: values not visible at C_1.
        assert!(r.steps[0].visible.iter().all(|&v| !v));
        match &r.conclusion {
            Conclusion::Caught { at_k: 2, witness } => {
                assert_eq!(witness.snapshot_kind(), SnapshotKind::Mixed);
            }
            other => panic!("expected Caught at k=2, got {other:?}"),
        }
    }

    #[test]
    fn more_phases_survive_more_induction_steps() {
        let r2 = run_theorem::<NaiveTwoPhase>(10);
        let r3 = run_theorem::<NaiveThreePhase>(10);
        let died_at = |r: &TheoremReport| match r.conclusion {
            Conclusion::Caught { at_k, .. } => at_k,
            _ => panic!("claimant must be caught: {}", r.render()),
        };
        assert!(
            died_at(&r3) > died_at(&r2),
            "3pc (k={}) should outlive 2pc (k={})",
            died_at(&r3),
            died_at(&r2)
        );
        // Claim 2 held at every constructed prefix.
        for s in r2.steps.iter().chain(&r3.steps) {
            assert!(s.visible.iter().all(|&v| !v), "claim 2 failed at k={}", s.k);
        }
    }

    #[test]
    fn calvin_pays_with_proxied_reads_and_perpetual_sequencing() {
        // Calvin's reads never message the storing servers directly, so
        // the client-round audit is blind to its cost; the classifier
        // reads it off the latency floor instead…
        let r = run_theorem::<cbf_protocols::calvin::CalvinNode>(6);
        match &r.conclusion {
            Conclusion::Survived { gave_up, .. } => {
                assert!(gave_up.contains("routed through"), "{gave_up}");
            }
            other => panic!("expected Survived, got {other:?}"),
        }
        // …and the general induction finds the sequencer's dispatches as
        // forced server→server messages, after which the values are
        // already visible (claim 2 fails — legitimately, because
        // Calvin's reads are not Definition-4 reads) and the δ execution
        // stays causal: Survived, again via the proxied-read latency.
        let g = crate::general::run_theorem_general::<cbf_protocols::calvin::CalvinNode>(
            cbf_protocols::Topology::minimal(5),
            6,
        );
        match &g.conclusion {
            Conclusion::Survived { gave_up, .. } => {
                assert!(gave_up.contains("routed through"), "{gave_up}");
            }
            other => panic!("expected Survived, got {other:?}: {}", g.render()),
        }
        assert!(!g.steps.is_empty(), "the dispatch is a forced message");
    }

    #[test]
    fn gossiping_claimant_is_caught_by_the_delta_execution() {
        // naive-chatty's servers do exchange messages (the induction
        // finds them as ms_k), but the values become visible at C_1 —
        // claim 2 fails and the δ execution extracts the witness.
        let r = run_theorem::<cbf_protocols::naive::NaiveChatty>(8);
        assert!(!r.steps.is_empty(), "{}", r.render());
        assert!(
            r.steps.last().unwrap().visible.iter().any(|&v| v),
            "claim 2 should fail for the chatty claimant: {}",
            r.render()
        );
        match &r.conclusion {
            Conclusion::Caught { witness, .. } => {
                assert_eq!(witness.snapshot_kind(), SnapshotKind::Mixed);
            }
            other => panic!("expected Caught via δ, got {other:?}"),
        }
    }

    #[test]
    fn dagger_style_protocols_fail_at_the_progress_premise() {
        // The pinned (SwiftCloud/Eiger-PS-style) protocol claims all four
        // properties but violates Definition 3: the machinery cannot even
        // reach Q0 (initial values never become visible to non-writers).
        let r = run_theorem::<cbf_protocols::pinned::PinnedNode>(4);
        match &r.conclusion {
            Conclusion::Aborted { reason } => {
                assert!(
                    reason.contains("setup") || reason.contains("progress"),
                    "{reason}"
                );
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    fn single_write_protocols_are_out_of_scope() {
        let r = run_theorem::<CopsNode>(4);
        assert!(matches!(r.conclusion, Conclusion::NotApplicable { .. }));
        assert!(r.render().contains("not applicable"));
    }
}
