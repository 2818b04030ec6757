//! The wire format is a contract, not an implementation detail: socket
//! frames and recording files written by one build are read by another.
//! One hand-built message per variant of the four alphabets that had a
//! codec before the codec tables existed, with the length and FNV-1a of
//! the concatenated encodings pinned.
//!
//! The constants were recorded at commit e2b3ff0, when every `Wire` impl
//! was written out by hand (`encode` and `decode` each listing the
//! fields); whatever generates the impls has to reproduce them — same
//! tags, same field order, same integer widths.

use cbf_model::{Key, TxId, Value};
use cbf_protocols::common::Wire;
use cbf_protocols::{cops, cops_snow, eiger, spanner};
use cbf_sim::ProcessId;

/// `(total encoded bytes, FNV-1a over them)`.
type Pin = (usize, u64);

fn pin<M: Wire + std::fmt::Debug>(msgs: &[M]) -> Pin {
    let mut bytes = Vec::new();
    for m in msgs {
        let one = m.to_bytes();
        // The pinned bytes also decode to what was encoded.
        let back = M::from_bytes(&one).expect("golden message decodes");
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
        bytes.extend_from_slice(&one);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (bytes.len(), h)
}

// Every field gets a value no other field of the message shares, with
// distinct bytes, so a swapped pair or a changed width moves the hash.
const ID: TxId = TxId(0x0102_0304_0506_0708);
const K1: Key = Key(0x1112_1314);
const K2: Key = Key(0x2122_2324);
const V1: Value = Value(0x3132_3334_3536_3738);
const V2: Value = Value(0x4142_4344_4546_4748);
const TS: u64 = 0x5152_5354_5556_5758;
const TS2: u64 = 0x6162_6364_6566_6768;
const P: ProcessId = ProcessId(0x7172_7374);
const ATTEMPT: u32 = 0x8182_8384;

fn keys() -> Vec<Key> {
    vec![K1, K2]
}
fn writes() -> Vec<(Key, Value)> {
    vec![(K1, V1), (K2, V2)]
}
fn deps() -> Vec<(Key, u64)> {
    vec![(K2, TS2), (K1, 9)]
}
fn reads() -> Vec<(Key, Value, u64)> {
    vec![(K1, V1, TS), (K2, Value::BOTTOM, 0)]
}

#[test]
fn cops_bytes_are_pinned() {
    use cops::Msg;
    let msgs = [
        Msg::InvokeRot {
            id: ID,
            keys: keys(),
        },
        Msg::InvokeWtx {
            id: ID,
            writes: writes(),
        },
        Msg::PutReq {
            id: ID,
            key: K1,
            value: V1,
            deps: deps(),
        },
        Msg::PutAck {
            id: ID,
            key: K1,
            ts: TS,
        },
        Msg::GetReq {
            id: ID,
            keys: keys(),
        },
        Msg::GetResp {
            id: ID,
            items: vec![
                cops::Item {
                    key: K1,
                    value: V1,
                    ts: TS,
                    deps: deps(),
                },
                cops::Item {
                    key: K2,
                    value: Value::BOTTOM,
                    ts: 0,
                    deps: vec![],
                },
            ],
        },
        Msg::GetExactReq {
            id: ID,
            key: K2,
            ts: TS,
        },
        Msg::GetExactResp {
            id: ID,
            key: K2,
            value: V2,
            ts: TS,
        },
        Msg::RetryTick {
            id: ID,
            attempt: ATTEMPT,
        },
    ];
    assert_eq!(pin(&msgs), COPS);
}

#[test]
fn cops_snow_bytes_are_pinned() {
    use cops_snow::Msg;
    let msgs = [
        Msg::InvokeRot {
            id: ID,
            keys: keys(),
        },
        Msg::InvokeWtx {
            id: ID,
            writes: writes(),
        },
        Msg::RotReq {
            id: ID,
            keys: keys(),
        },
        Msg::RotResp {
            id: ID,
            reads: reads(),
        },
        Msg::PutReq {
            id: ID,
            key: K1,
            value: V1,
            deps: deps(),
        },
        Msg::OldReaderQuery {
            put: ID,
            deps: deps(),
        },
        Msg::OldReaderResp {
            put: ID,
            readers: vec![TxId(3), TxId(0x0908_0706_0504_0302)],
        },
        Msg::PutAck {
            id: ID,
            key: K1,
            ts: TS,
        },
        Msg::RetryTick {
            id: ID,
            attempt: ATTEMPT,
        },
    ];
    assert_eq!(pin(&msgs), COPS_SNOW);
}

#[test]
fn eiger_bytes_are_pinned() {
    use eiger::Msg;
    let msgs = [
        Msg::InvokeRot {
            id: ID,
            keys: keys(),
        },
        Msg::InvokeWtx {
            id: ID,
            writes: writes(),
        },
        Msg::WtxReq {
            id: ID,
            writes: writes(),
            dep_ts: TS,
        },
        Msg::Prepare {
            id: ID,
            writes: writes(),
            dep_ts: TS,
            coordinator: P,
        },
        Msg::PrepareResp {
            id: ID,
            proposed: TS,
        },
        Msg::Commit { id: ID, ts: TS },
        Msg::WtxAck { id: ID, ts: TS2 },
        Msg::Read1 {
            id: ID,
            keys: keys(),
        },
        Msg::Read1Resp {
            id: ID,
            items: reads(),
            promise: TS,
            min_pending: TS2,
        },
        Msg::Read2 {
            id: ID,
            keys: keys(),
            t: TS,
        },
        Msg::Read2Resp {
            id: ID,
            items: reads(),
            pendings: vec![eiger::PendingInfo {
                tx: TxId(7),
                proposed: TS2,
                coordinator: P,
                writes: writes(),
            }],
        },
        Msg::CheckTx {
            id: ID,
            txs: vec![TxId(7), TxId(8)],
        },
        Msg::CheckResp {
            id: ID,
            decisions: vec![(TxId(7), Some(TS)), (TxId(8), None)],
        },
        Msg::RetryTick {
            id: ID,
            attempt: ATTEMPT,
        },
    ];
    assert_eq!(pin(&msgs), EIGER);
}

#[test]
fn spanner_bytes_are_pinned() {
    use spanner::Msg;
    let msgs = [
        Msg::InvokeRot {
            id: ID,
            keys: keys(),
        },
        Msg::InvokeWtx {
            id: ID,
            writes: writes(),
        },
        Msg::ReadAt {
            id: ID,
            keys: keys(),
            at: TS,
        },
        Msg::ReadAtResp {
            id: ID,
            reads: reads(),
        },
        Msg::WtxReq {
            id: ID,
            writes: writes(),
        },
        Msg::Prepare {
            id: ID,
            writes: writes(),
            coordinator: P,
        },
        Msg::PrepareResp { id: ID, ts: TS },
        Msg::Commit { id: ID, ts: TS2 },
        Msg::CommitAck { id: ID },
        Msg::WtxAck { id: ID, ts: TS },
        Msg::Poll,
        Msg::RetryTick {
            id: ID,
            attempt: ATTEMPT,
        },
    ];
    assert_eq!(pin(&msgs), SPANNER);
}

const COPS: Pin = (297, 16604822118052639329);
const COPS_SNOW: Pin = (281, 972665117705403488);
const EIGER: Pin = (508, 4808132235332028595);
const SPANNER: Pin = (292, 12198543427677193637);
