//! Wire-codec property tests: encode∘decode is the identity for every
//! variant of every protocol `Msg` alphabet, and malformed buffers —
//! strict prefixes of valid encodings, arbitrary garbage — must return
//! `Err`, never panic. These are the guarantees cbf-net's framing layer
//! leans on when it feeds socket bytes into `Wire::from_bytes`.
//!
//! Four alphabets get per-variant proptest strategies; all 14 get the
//! garbage case and the trace-driven case at the bottom, neither of
//! which needs a strategy: garbage is arbitrary bytes, and the traced
//! messages are whatever the protocol sends under a seeded workload.
//!
//! The `Msg` enums deliberately do not implement `PartialEq` (they are
//! protocol alphabets, not values), so identity is checked on `Debug`
//! renderings, which print every field of every variant.

use cbf_model::{ClientId, Key, TxId, Value};
use cbf_protocols::common::{Wire, WireError};
use cbf_protocols::{cops, cops_snow, eiger, spanner};
use cbf_protocols::{Cluster, InFlightTx, ProtocolNode, Topology};
use cbf_sim::{
    FaultPlan, LatencyKind, LatencyModel, ProcessId, SimConfig, TraceEvent, World, MICROS, MILLIS,
    SECONDS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 256 };

fn key() -> impl Strategy<Value = Key> {
    any::<u32>().prop_map(Key)
}
fn value() -> impl Strategy<Value = Value> {
    any::<u64>().prop_map(Value)
}
fn txid() -> impl Strategy<Value = TxId> {
    any::<u64>().prop_map(TxId)
}
fn pid() -> impl Strategy<Value = ProcessId> {
    any::<u32>().prop_map(ProcessId)
}
fn keys() -> impl Strategy<Value = Vec<Key>> {
    prop::collection::vec(key(), 0..6)
}
fn writes() -> impl Strategy<Value = Vec<(Key, Value)>> {
    prop::collection::vec((key(), value()), 0..6)
}
fn deps() -> impl Strategy<Value = Vec<(Key, u64)>> {
    prop::collection::vec((key(), any::<u64>()), 0..6)
}

fn cops_msg() -> impl Strategy<Value = cops::Msg> {
    let item =
        (key(), value(), any::<u64>(), deps()).prop_map(|(key, value, ts, deps)| cops::Item {
            key,
            value,
            ts,
            deps,
        });
    prop_oneof![
        (txid(), keys()).prop_map(|(id, keys)| cops::Msg::InvokeRot { id, keys }),
        (txid(), writes()).prop_map(|(id, writes)| cops::Msg::InvokeWtx { id, writes }),
        (txid(), key(), value(), deps()).prop_map(|(id, key, value, deps)| cops::Msg::PutReq {
            id,
            key,
            value,
            deps
        }),
        (txid(), key(), any::<u64>()).prop_map(|(id, key, ts)| cops::Msg::PutAck { id, key, ts }),
        (txid(), keys()).prop_map(|(id, keys)| cops::Msg::GetReq { id, keys }),
        (txid(), prop::collection::vec(item, 0..4))
            .prop_map(|(id, items)| cops::Msg::GetResp { id, items }),
        (txid(), key(), any::<u64>()).prop_map(|(id, key, ts)| cops::Msg::GetExactReq {
            id,
            key,
            ts
        }),
        (txid(), key(), value(), any::<u64>())
            .prop_map(|(id, key, value, ts)| cops::Msg::GetExactResp { id, key, value, ts }),
        (txid(), any::<u32>()).prop_map(|(id, attempt)| cops::Msg::RetryTick { id, attempt }),
    ]
}

fn cops_snow_msg() -> impl Strategy<Value = cops_snow::Msg> {
    prop_oneof![
        (txid(), keys()).prop_map(|(id, keys)| cops_snow::Msg::InvokeRot { id, keys }),
        (txid(), writes()).prop_map(|(id, writes)| cops_snow::Msg::InvokeWtx { id, writes }),
        (txid(), keys()).prop_map(|(id, keys)| cops_snow::Msg::RotReq { id, keys }),
        (
            txid(),
            prop::collection::vec((key(), value(), any::<u64>()), 0..6)
        )
            .prop_map(|(id, reads)| cops_snow::Msg::RotResp { id, reads }),
        (txid(), key(), value(), deps()).prop_map(|(id, key, value, deps)| {
            cops_snow::Msg::PutReq {
                id,
                key,
                value,
                deps,
            }
        }),
        (txid(), deps()).prop_map(|(put, deps)| cops_snow::Msg::OldReaderQuery { put, deps }),
        (txid(), prop::collection::vec(txid(), 0..6))
            .prop_map(|(put, readers)| cops_snow::Msg::OldReaderResp { put, readers }),
        (txid(), key(), any::<u64>()).prop_map(|(id, key, ts)| cops_snow::Msg::PutAck {
            id,
            key,
            ts
        }),
        (txid(), any::<u32>()).prop_map(|(id, attempt)| cops_snow::Msg::RetryTick { id, attempt }),
    ]
}

fn items() -> impl Strategy<Value = Vec<(Key, Value, u64)>> {
    prop::collection::vec((key(), value(), any::<u64>()), 0..6)
}

fn maybe_ts() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v))
}

fn eiger_msg() -> impl Strategy<Value = eiger::Msg> {
    let pending =
        (txid(), any::<u64>(), pid(), writes()).prop_map(|(tx, proposed, coordinator, writes)| {
            eiger::PendingInfo {
                tx,
                proposed,
                coordinator,
                writes,
            }
        });
    prop_oneof![
        (txid(), keys()).prop_map(|(id, keys)| eiger::Msg::InvokeRot { id, keys }),
        (txid(), writes()).prop_map(|(id, writes)| eiger::Msg::InvokeWtx { id, writes }),
        (txid(), writes(), any::<u64>()).prop_map(|(id, writes, dep_ts)| eiger::Msg::WtxReq {
            id,
            writes,
            dep_ts
        }),
        (txid(), writes(), any::<u64>(), pid()).prop_map(|(id, writes, dep_ts, coordinator)| {
            eiger::Msg::Prepare {
                id,
                writes,
                dep_ts,
                coordinator,
            }
        }),
        (txid(), any::<u64>()).prop_map(|(id, proposed)| eiger::Msg::PrepareResp { id, proposed }),
        (txid(), any::<u64>()).prop_map(|(id, ts)| eiger::Msg::Commit { id, ts }),
        (txid(), any::<u64>()).prop_map(|(id, ts)| eiger::Msg::WtxAck { id, ts }),
        (txid(), keys()).prop_map(|(id, keys)| eiger::Msg::Read1 { id, keys }),
        (txid(), items(), any::<u64>(), any::<u64>()).prop_map(
            |(id, items, promise, min_pending)| eiger::Msg::Read1Resp {
                id,
                items,
                promise,
                min_pending,
            }
        ),
        (txid(), keys(), any::<u64>()).prop_map(|(id, keys, t)| eiger::Msg::Read2 { id, keys, t }),
        (txid(), items(), prop::collection::vec(pending, 0..4)).prop_map(
            |(id, items, pendings)| eiger::Msg::Read2Resp {
                id,
                items,
                pendings
            }
        ),
        (txid(), prop::collection::vec(txid(), 0..6))
            .prop_map(|(id, txs)| eiger::Msg::CheckTx { id, txs }),
        (txid(), prop::collection::vec((txid(), maybe_ts()), 0..6))
            .prop_map(|(id, decisions)| eiger::Msg::CheckResp { id, decisions }),
        (txid(), any::<u32>()).prop_map(|(id, attempt)| eiger::Msg::RetryTick { id, attempt }),
    ]
}

fn spanner_msg() -> impl Strategy<Value = spanner::Msg> {
    prop_oneof![
        (txid(), keys()).prop_map(|(id, keys)| spanner::Msg::InvokeRot { id, keys }),
        (txid(), writes()).prop_map(|(id, writes)| spanner::Msg::InvokeWtx { id, writes }),
        (txid(), keys(), any::<u64>()).prop_map(|(id, keys, at)| spanner::Msg::ReadAt {
            id,
            keys,
            at
        }),
        (
            txid(),
            prop::collection::vec((key(), value(), any::<u64>()), 0..6)
        )
            .prop_map(|(id, reads)| spanner::Msg::ReadAtResp { id, reads }),
        (txid(), writes()).prop_map(|(id, writes)| spanner::Msg::WtxReq { id, writes }),
        (txid(), writes(), pid()).prop_map(|(id, writes, coordinator)| spanner::Msg::Prepare {
            id,
            writes,
            coordinator
        }),
        (txid(), any::<u64>()).prop_map(|(id, ts)| spanner::Msg::PrepareResp { id, ts }),
        (txid(), any::<u64>()).prop_map(|(id, ts)| spanner::Msg::Commit { id, ts }),
        txid().prop_map(|id| spanner::Msg::CommitAck { id }),
        (txid(), any::<u64>()).prop_map(|(id, ts)| spanner::Msg::WtxAck { id, ts }),
        Just(spanner::Msg::Poll),
        (txid(), any::<u32>()).prop_map(|(id, attempt)| spanner::Msg::RetryTick { id, attempt }),
    ]
}

/// Identity: decode(encode(m)) must reproduce every field (checked via
/// Debug, which prints them all). Also: every *strict prefix* of the
/// encoding must fail — each encoded byte is load-bearing.
fn roundtrip_and_truncate<M: Wire + std::fmt::Debug>(msg: &M) -> Result<(), TestCaseError> {
    let bytes = msg.to_bytes();
    let back = M::from_bytes(&bytes);
    match back {
        Ok(ref b) => prop_assert_eq!(format!("{:?}", msg), format!("{:?}", b)),
        Err(ref e) => prop_assert!(false, "decode failed: {e:?} for {msg:?}"),
    }
    for cut in 0..bytes.len() {
        prop_assert!(
            M::from_bytes(&bytes[..cut]).is_err(),
            "strict prefix of {cut}/{} bytes decoded for {msg:?}",
            bytes.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn cops_roundtrip(msg in cops_msg()) {
        roundtrip_and_truncate(&msg)?;
    }

    #[test]
    fn cops_snow_roundtrip(msg in cops_snow_msg()) {
        roundtrip_and_truncate(&msg)?;
    }

    #[test]
    fn eiger_roundtrip(msg in eiger_msg()) {
        roundtrip_and_truncate(&msg)?;
    }

    #[test]
    fn spanner_roundtrip(msg in spanner_msg()) {
        roundtrip_and_truncate(&msg)?;
    }

    /// Arbitrary garbage must decode to Ok or Err — never panic, never
    /// allocate absurdly — in all 14 alphabets. (Running the decoder at
    /// all is the assertion; proptest catches panics.)
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        use cbf_protocols::*;
        decode_garbage::<calvin::Msg>(&bytes);
        decode_garbage::<contrarian::Msg>(&bytes);
        decode_garbage::<cops::Msg>(&bytes);
        decode_garbage::<cops_rw::Msg>(&bytes);
        decode_garbage::<cops_snow::Msg>(&bytes);
        decode_garbage::<cure::Msg>(&bytes);
        decode_garbage::<eiger::Msg>(&bytes);
        decode_garbage::<gentlerain::Msg>(&bytes);
        decode_garbage::<naive::Msg>(&bytes);
        decode_garbage::<occult::Msg>(&bytes);
        decode_garbage::<pinned::Msg>(&bytes);
        decode_garbage::<ramp::Msg>(&bytes);
        decode_garbage::<spanner::Msg>(&bytes);
        decode_garbage::<wren::Msg>(&bytes);
    }
}

/// Decode `bytes`, then the same bytes with the first one folded into
/// the low tag range, so most cases get past the tag into a variant's
/// field decoders instead of stopping at `BadTag`.
fn decode_garbage<M: Wire>(bytes: &[u8]) {
    let _ = M::from_bytes(bytes);
    if let Some((first, rest)) = bytes.split_first() {
        let mut tagged = Vec::with_capacity(bytes.len());
        tagged.push(first % 32);
        tagged.extend_from_slice(rest);
        let _ = M::from_bytes(&tagged);
    }
}

// ---------------------------------------------------------------------
// Trace-driven: every message a protocol actually sends, all 14 of them
// ---------------------------------------------------------------------

/// Round trip, every strict prefix an error, one appended byte
/// `Trailing`. Returns the message's tag byte.
fn assert_codec_holds<M: Wire + std::fmt::Debug>(msg: &M) -> u8 {
    let mut bytes = msg.to_bytes();
    let back = M::from_bytes(&bytes).unwrap_or_else(|e| panic!("{e} decoding {msg:?}"));
    assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    // Every prefix of a message under 256 bytes; COPS-RW's fat ones (a
    // whole causal past, tens of kilobytes) are sampled evenly.
    for cut in (0..bytes.len()).step_by(1 + bytes.len() / 256) {
        assert!(
            M::from_bytes(&bytes[..cut]).is_err(),
            "strict prefix of {cut}/{} bytes decoded for {msg:?}",
            bytes.len()
        );
    }
    bytes.push(0);
    assert_eq!(
        M::from_bytes(&bytes).err(),
        Some(WireError::Trailing { extra: 1 }),
        "{msg:?}"
    );
    bytes[0]
}

/// The alphabet's variants, read off the codec itself: a tag is known
/// iff decoding does not answer `BadTag`, and padding it with zeros
/// (every field type has an all-zero encoding) yields the variant.
fn alphabet<M: Wire + std::fmt::Debug>() -> Vec<(u8, M)> {
    (0..=u8::MAX)
        .filter(|&tag| !matches!(M::from_bytes(&[tag]), Err(WireError::BadTag { .. })))
        .map(|tag| {
            let mut bytes = vec![tag];
            loop {
                match M::from_bytes(&bytes) {
                    Ok(m) => return (tag, m),
                    Err(_) if bytes.len() < 256 => bytes.push(0),
                    Err(e) => panic!("tag {tag}: no all-zero body decodes: {e}"),
                }
            }
        })
        .collect()
}

fn variant_name<M: std::fmt::Debug>(msg: &M) -> String {
    let debug = format!("{msg:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Drive `N` through a seeded mixed workload — concurrent clients on a
/// few hot keys, so reads meet in-flight writes — and hold every
/// `Send`/`Inject` payload of the trace to the codec contract. `retries`
/// adds client retries under drops and duplicates (only the alphabets
/// with a `RetryTick` survive a dropped message). `never_sent` names
/// the variants the trace cannot contain; those, like every other
/// variant, are still held to the contract with all-zero fields.
fn trace_roundtrip<N: ProtocolNode>(topo: Topology, retries: bool, never_sent: &[&str])
where
    N::Msg: Wire,
{
    const SEED: u64 = 0x5EED_0015;
    const TXS: usize = 400;
    let clients = topo.num_clients;
    let keys = topo.num_keys;
    let mut config = SimConfig::default();
    let topo = if retries {
        config.fault = Some(FaultPlan::new(SEED).with_drops(30).with_dups(150));
        topo.with_retry(MILLIS)
    } else {
        topo
    };
    // Latencies an order of magnitude apart, so a read overtakes the
    // write it depends on and second rounds happen.
    let latency = LatencyKind::Uniform {
        lo: 20 * MICROS,
        hi: 400 * MICROS,
    };
    let mut c: Cluster<N> = Cluster::with_network(topo, LatencyModel::new(latency, SEED), config);
    let mut rng = StdRng::seed_from_u64(SEED);
    // A closed loop per client, never drained between transactions: a
    // writer's next write is in flight while readers still hold requests
    // that predate its previous one.
    let mut free: Vec<u32> = (0..clients).collect();
    let mut open = Vec::new();
    for _ in 0..TXS {
        if free.is_empty() {
            let any_done = |w: &World<N>| {
                open.iter()
                    .any(|t: &InFlightTx| w.actor(t.pid).completed(t.id).is_some())
            };
            let outcome = c.world.run_until_within(SECONDS, any_done);
            assert!(outcome.is_settled(), "{}: horizon", N::NAME);
            for t in std::mem::take(&mut open) {
                if c.world.actor(t.pid).completed(t.id).is_some() {
                    free.push(t.client.0);
                    c.finish_tx(t).unwrap();
                } else {
                    open.push(t);
                }
            }
        }
        let client = ClientId(free.pop().expect("a transaction completed"));
        let a = Key(rng.gen_range(0..keys));
        let b = Key(rng.gen_range(0..keys));
        open.push(if rng.gen_range(0..3u32) != 0 {
            c.begin_read_tx(client, &[a, b])
        } else if N::SUPPORTS_MULTI_WRITE {
            c.begin_write_tx(client, &[a, b]).unwrap()
        } else {
            c.begin_write_tx(client, &[a]).unwrap()
        });
    }
    assert!(c.run_open(&open), "{}: horizon", N::NAME);

    let mut seen = BTreeSet::new();
    for ev in c.world.trace.iter() {
        if let TraceEvent::Send { msg, .. } | TraceEvent::Inject { msg, .. } = ev {
            seen.insert(assert_codec_holds(msg));
        }
    }
    let mut unseen = Vec::new();
    for (tag, zeroed) in alphabet::<N::Msg>() {
        assert_eq!(assert_codec_holds(&zeroed), tag);
        if !seen.contains(&tag) {
            unseen.push(variant_name(&zeroed));
        }
    }
    assert_eq!(unseen, never_sent, "{}: variants not in the trace", N::NAME);
}

fn sharded() -> Topology {
    Topology::sharded(3, 8, 3)
}

/// Timer payloads travel through `set_timer`, not `send`: the trace
/// records that a timer fired, not what it carried.
const RETRY_TIMER: &[&str] = &["RetryTick"];
const STABLE_TIMER: &[&str] = &["StableTick"];

#[test]
fn every_protocol_round_trips_the_messages_it_sends() {
    use cbf_protocols::*;
    trace_roundtrip::<calvin::CalvinNode>(sharded(), false, &[]);
    trace_roundtrip::<contrarian::ContrarianNode>(sharded(), false, STABLE_TIMER);
    trace_roundtrip::<cops::CopsNode>(sharded(), true, RETRY_TIMER);
    trace_roundtrip::<cops_rw::CopsRwNode>(sharded(), false, &[]);
    trace_roundtrip::<cops_snow::CopsSnowNode>(sharded(), true, RETRY_TIMER);
    trace_roundtrip::<cure::CureNode>(sharded(), false, STABLE_TIMER);
    trace_roundtrip::<eiger::EigerNode>(sharded(), true, RETRY_TIMER);
    trace_roundtrip::<gentlerain::GentleRainNode>(sharded(), false, STABLE_TIMER);
    trace_roundtrip::<naive::NaiveChatty>(sharded(), false, &[]);
    trace_roundtrip::<occult::OccultNode>(Topology::partially_replicated(3, 8, 3, 2), false, &[]);
    trace_roundtrip::<pinned::PinnedNode>(sharded(), false, &[]);
    trace_roundtrip::<ramp::RampNode>(sharded(), false, &[]);
    trace_roundtrip::<spanner::SpannerNode>(sharded(), true, &["Poll", "RetryTick"]);
    trace_roundtrip::<wren::WrenNode>(sharded(), false, STABLE_TIMER);
}
