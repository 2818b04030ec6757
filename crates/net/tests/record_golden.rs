//! A recording file written by one build must load in another: the
//! bytes of a small hand-built [`Recording`] — every `StepInput`
//! variant, two `ProcessLog`s — are pinned.
//!
//! Recorded at commit e2b3ff0, when `StepInput`, `StepRecord` and
//! `ProcessLog` each had a hand-written `Wire` impl.

use cbf_net::record::{ProcessLog, Recording, StepInput, StepRecord};
use cbf_protocols::common::Wire;
use cbf_sim::ProcessId;

fn sample() -> Recording {
    Recording {
        logs: vec![
            ProcessLog {
                pid: ProcessId(0x0102_0304),
                steps: vec![StepRecord {
                    now: 0x1112_1314_1516_1718,
                    inputs: vec![
                        StepInput::Deliver {
                            from: ProcessId(0x2122_2324),
                            seq: 0x3132_3334_3536_3738,
                        },
                        StepInput::Timer {
                            bytes: vec![0x41, 0x42],
                        },
                    ],
                }],
            },
            ProcessLog {
                pid: ProcessId(0x5152_5354),
                steps: vec![
                    StepRecord {
                        now: 5,
                        inputs: vec![StepInput::Inject {
                            bytes: vec![0x61, 0x62, 0x63],
                        }],
                    },
                    StepRecord {
                        now: 0x7172,
                        inputs: vec![],
                    },
                ],
            },
        ],
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn recording_bytes_are_pinned() {
    let r = sample();
    let bytes = r.to_bytes();
    assert_eq!(hex(&bytes), RECORDING);
    assert_eq!(Recording::from_bytes(&bytes).unwrap(), r);
}

#[test]
fn process_log_and_step_record_bytes_are_pinned() {
    let r = sample();
    assert_eq!(hex(&r.logs[0].to_bytes()), PROCESS_LOG);
    assert_eq!(hex(&r.logs[1].steps[0].to_bytes()), STEP_RECORD);
    assert_eq!(
        ProcessLog::from_bytes(&r.logs[0].to_bytes()).unwrap(),
        r.logs[0]
    );
}

const RECORDING: &str = "4342465201020000000403020101000000181716151413121102000000002423222138373635343332310102000000414254535251020000000500000000000000010000000203000000616263727100000000000000000000";
const PROCESS_LOG: &str =
    "04030201010000001817161514131211020000000024232221383736353433323101020000004142";
const STEP_RECORD: &str = "0500000000000000010000000203000000616263";
