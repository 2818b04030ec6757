//! Run recording: the exact inputs of every computation step a real
//! process took, in the order it took them.
//!
//! A step's inputs name messages by provenance, not content:
//!
//! * `Deliver { from, seq }` — the `seq`-th message the link
//!   `from → pid` ever carried was moved into the income buffer. Replay
//!   re-derives the *content* by re-executing the sender, so a codec or
//!   runtime bug that altered the content shows up as divergence.
//! * `Timer { bytes }` / `Inject { bytes }` — self-deliveries carry
//!   their encoded payload, because the instant a real timer fires (and
//!   what the swarm injected) is genuine runtime nondeterminism the
//!   simulator cannot re-derive. See DESIGN §2.13 for the soundness
//!   caveat this implies.
//!
//! Each process records only its own steps; the launcher merges the
//! per-process logs into one [`Recording`] after the run.

use crate::NetError;
use cbf_protocols::common::Wire;
use cbf_protocols::{wire_enum, wire_struct};
use cbf_sim::ProcessId;
use std::collections::HashMap;
use std::path::Path;

/// File magic + format version.
const MAGIC: [u8; 4] = *b"CBFR";
const VERSION: u8 = 1;

/// One input consumed by a recorded step, in income-buffer order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepInput {
    /// The next undelivered message on the link `from → pid` arrived.
    Deliver {
        /// Sending actor.
        from: ProcessId,
        /// Per-link sequence number (0-based send order).
        seq: u64,
    },
    /// A timer fired, carrying this encoded message.
    Timer {
        /// `Wire`-encoded payload.
        bytes: Vec<u8>,
    },
    /// The swarm injected this encoded message (launcher only).
    Inject {
        /// `Wire`-encoded payload.
        bytes: Vec<u8>,
    },
}

/// One computation step: when it ran (wall ns since the run epoch) and
/// what it consumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Wall-clock nanoseconds since the cluster-wide epoch.
    pub now: u64,
    /// The income buffer, in arrival order.
    pub inputs: Vec<StepInput>,
}

/// All steps one process took, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessLog {
    /// The recording process.
    pub pid: ProcessId,
    /// Its steps, oldest first.
    pub steps: Vec<StepRecord>,
}

/// A whole run: one log per process, sorted by pid.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recording {
    /// Per-process logs, pid-ascending.
    pub logs: Vec<ProcessLog>,
}

wire_enum!(StepInput as "StepInput" {
    0 => Deliver { from, seq },
    1 => Timer { bytes },
    2 => Inject { bytes },
});
wire_struct!(StepRecord { now, inputs });
wire_struct!(ProcessLog { pid, steps });

impl Recording {
    /// Absorb another recording's logs (e.g. a server's file into the
    /// launcher's client-side recording), keeping pid order.
    pub fn merge(&mut self, other: Recording) {
        self.logs.extend(other.logs);
        self.logs.sort_by_key(|l| l.pid.0);
    }

    /// Total steps across all processes.
    pub fn total_steps(&self) -> usize {
        self.logs.iter().map(|l| l.steps.len()).sum()
    }

    /// Serialize to bytes (magic + version + logs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        self.logs.encode(&mut out);
        out
    }

    /// Deserialize, validating magic and version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, NetError> {
        if bytes.len() < 5 || bytes[..4] != MAGIC {
            return Err(NetError::Recording("bad magic".into()));
        }
        if bytes[4] != VERSION {
            return Err(NetError::Recording(format!(
                "recording version {} (expected {VERSION})",
                bytes[4]
            )));
        }
        let mut rest = &bytes[5..];
        let logs: Vec<ProcessLog> = Vec::decode(&mut rest)
            .map_err(|e| NetError::Recording(format!("corrupt recording: {e}")))?;
        if !rest.is_empty() {
            return Err(NetError::Recording("trailing bytes".into()));
        }
        Ok(Recording { logs })
    }

    /// Write to a file.
    pub fn save(&self, path: &Path) -> Result<(), NetError> {
        std::fs::write(path, self.to_bytes()).map_err(NetError::from)
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Recording, NetError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Verify the no-aliasing invariant replay depends on: on every
    /// directed link, the recorded delivery sequence numbers are exactly
    /// `0, 1, 2, …` in arrival order — consecutive (TCP FIFO, so no
    /// reordering and no loss) and in particular never repeated, so a
    /// `(from, to, seq)` triple names at most one message.
    pub fn check_no_aliasing(&self) -> Result<(), String> {
        let mut next: HashMap<(ProcessId, ProcessId), u64> = HashMap::new();
        for log in &self.logs {
            for (i, step) in log.steps.iter().enumerate() {
                for input in &step.inputs {
                    if let StepInput::Deliver { from, seq } = *input {
                        let slot = next.entry((from, log.pid)).or_insert(0);
                        if seq != *slot {
                            return Err(format!(
                                "link {from:?}→{:?} step {i}: delivery seq {seq}, expected {}",
                                log.pid, *slot
                            ));
                        }
                        *slot += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        Recording {
            logs: vec![
                ProcessLog {
                    pid: ProcessId(0),
                    steps: vec![StepRecord {
                        now: 17,
                        inputs: vec![
                            StepInput::Deliver {
                                from: ProcessId(2),
                                seq: 0,
                            },
                            StepInput::Timer { bytes: vec![9, 9] },
                        ],
                    }],
                },
                ProcessLog {
                    pid: ProcessId(2),
                    steps: vec![
                        StepRecord {
                            now: 5,
                            inputs: vec![StepInput::Inject { bytes: vec![1] }],
                        },
                        StepRecord {
                            now: 40,
                            inputs: vec![StepInput::Deliver {
                                from: ProcessId(0),
                                seq: 0,
                            }],
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let r = sample();
        assert_eq!(Recording::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn bad_magic_and_truncation_error() {
        assert!(Recording::from_bytes(b"NOPE").is_err());
        let bytes = sample().to_bytes();
        assert!(Recording::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut v2 = bytes.clone();
        v2[4] = 9;
        assert!(Recording::from_bytes(&v2).is_err());
    }

    #[test]
    fn merge_sorts_by_pid() {
        let mut a = Recording {
            logs: vec![ProcessLog {
                pid: ProcessId(3),
                steps: vec![],
            }],
        };
        a.merge(Recording {
            logs: vec![ProcessLog {
                pid: ProcessId(1),
                steps: vec![],
            }],
        });
        assert_eq!(a.logs[0].pid, ProcessId(1));
        assert_eq!(a.logs[1].pid, ProcessId(3));
    }

    #[test]
    fn aliasing_is_detected() {
        let ok = sample();
        assert!(ok.check_no_aliasing().is_ok());
        let mut bad = sample();
        // Repeat seq 0 on the 2→0 link: two messages now share a name.
        bad.logs[0].steps.push(StepRecord {
            now: 99,
            inputs: vec![StepInput::Deliver {
                from: ProcessId(2),
                seq: 0,
            }],
        });
        assert!(bad.check_no_aliasing().is_err());
        let mut gap = sample();
        // A gap (lost message) would also let replay misalign names.
        gap.logs[0].steps[0].inputs[0] = StepInput::Deliver {
            from: ProcessId(2),
            seq: 5,
        };
        assert!(gap.check_no_aliasing().is_err());
    }
}
