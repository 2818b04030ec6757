//! `Cluster::run_open` must stop the world at exactly the event it
//! always did: the virtual instant, the count of scheduler events
//! consumed and the trace digest after every epoch are pinned here.
//!
//! The constants were recorded at commit e816e77, when `run_open`'s
//! predicate still re-walked the whole `open` list before every event;
//! any cheaper predicate has to reproduce them. Every chaos epoch, and
//! every Eiger and Spanner epoch, leaves events queued behind the
//! stopping point (retry timers, duplicated responses, commit traffic),
//! so a predicate that fires an event late or early moves `events`.
//!
//! The contended COPS-SNOW cell was recorded at commit 9edc774, when a
//! server still held its old-reader blacklists as `HashSet<TxId>`s; how
//! a server stores those sets must not move a message or a stop.

use cbf_model::{ClientId, Key};
use cbf_protocols::cops::CopsNode;
use cbf_protocols::cops_snow::{CopsSnowNode, Msg};
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::spanner::SpannerNode;
use cbf_protocols::{Cluster, ProtocolNode, Topology};
use cbf_sim::{FaultPlan, LatencyModel, ServiceModel, SimConfig, TraceEvent, MICROS, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_0013;
const CLIENTS: u32 = 48;
const IN_FLIGHT: u32 = 24;
const EPOCHS: u32 = 4;
/// Ops draw from a hot prefix of the 1,024 keys so reads meet versions
/// with dependencies (COPS's second round, COPS-SNOW's old readers).
const HOT_KEYS: u32 = 48;

/// `(world.now(), world.stats().events, world.trace.digest())`.
type Stop = (u64, u64, u64);

/// A cluster of 3 servers and `CLIENTS` clients over `keys` keys, with
/// 20 µs service time; `chaos` adds retries, drops and duplicates.
fn cluster<N: ProtocolNode>(keys: u32, chaos: bool) -> Cluster<N> {
    let mut topo = Topology::sharded(3, CLIENTS, keys);
    let mut config = SimConfig {
        service: Some(ServiceModel {
            servers: 3,
            service_time: 20 * MICROS,
        }),
        ..SimConfig::default()
    };
    if chaos {
        topo = topo.with_retry(MILLIS);
        config.fault = Some(FaultPlan::new(SEED).with_drops(30).with_dups(150));
    }
    Cluster::with_network(topo, LatencyModel::constant_default(), config)
}

/// Drive `epochs` epochs of `IN_FLIGHT` transactions over the first
/// `hot_keys` keys (distinct clients; the first epoch all writes, then
/// one write in `write_one_in`) and return where each `run_open` stopped.
fn drive<N: ProtocolNode>(
    c: &mut Cluster<N>,
    epochs: u32,
    hot_keys: u32,
    write_one_in: u32,
) -> Vec<Stop> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut stops = Vec::new();
    for epoch in 0..epochs {
        let mut open = Vec::new();
        for slot in 0..IN_FLIGHT {
            let client = ClientId((epoch * IN_FLIGHT + slot) % CLIENTS);
            let a = Key(rng.gen_range(0..hot_keys));
            let b = Key(rng.gen_range(0..hot_keys));
            let write = epoch == 0 || rng.gen_range(0..write_one_in) == 0;
            open.push(if write {
                c.begin_write_tx(client, &[a]).expect("single-key write")
            } else {
                c.begin_read_tx(client, &[a, b])
            });
        }
        assert!(c.run_open(&open), "{} epoch {epoch}: horizon", N::NAME);
        let events = c.world.stats().events;
        stops.push((c.world.now(), events, c.world.trace.digest()));

        // Nothing open: true at once, with the queue left as it was.
        assert!(c.run_open(&[]));
        assert_eq!(c.world.stats().events, events);

        for t in open {
            c.finish_tx(t)
                .unwrap_or_else(|e| panic!("{} epoch {epoch}: {e:?}", N::NAME));
        }
    }
    assert!(c.check().is_ok(), "{}: {:?}", N::NAME, c.check().violations);
    stops
}

fn assert_stops(what: &str, got: &[Stop], expected: &[Stop]) {
    if got != expected {
        let table: String = got
            .iter()
            .map(|(now, events, digest)| format!("    ({now}, {events}, {digest:#018x}),\n"))
            .collect();
        panic!("{what} stopped elsewhere; observed:\n{table}");
    }
}

fn pin<N: ProtocolNode>(chaos: bool, expected: &[Stop]) {
    let got = drive(&mut cluster::<N>(1024, chaos), EPOCHS, HOT_KEYS, 4);
    assert_stops(&format!("{} (chaos: {chaos})", N::NAME), &got, expected);
}

#[test]
fn cops_stops_where_it_used_to() {
    pin::<CopsNode>(
        false,
        &[
            (280_000, 72, 0xfef6_85e4_23dc_0ce5),
            (700_000, 186, 0xf970_2920_bac5_1bbb),
            (1_140_000, 282, 0xa114_72e3_0f08_cecf),
            (1_540_000, 380, 0xfe50_d2af_5c6d_3de0),
        ],
    );
    pin::<CopsNode>(
        true,
        &[
            (1_120_000, 104, 0x1121_3895_18c0_48c9),
            (2_260_000, 266, 0x5bbd_4b9e_5df6_d0ac),
            (2_760_000, 378, 0xad05_9a82_1d0a_1c96),
            (3_920_000, 548, 0xa708_f3d4_6d84_a0c1),
        ],
    );
}

#[test]
fn cops_snow_stops_where_it_used_to() {
    pin::<CopsSnowNode>(
        false,
        &[
            (280_000, 72, 0xfef6_85e4_23dc_0ce5),
            (700_000, 186, 0xe34a_f9a5_f32a_8fb8),
            (1_160_000, 288, 0xeef7_8676_b804_f97d),
            (1_660_000, 390, 0x3898_2319_6ee7_29b1),
        ],
    );
    pin::<CopsSnowNode>(
        true,
        &[
            (1_120_000, 104, 0x1121_3895_18c0_48c9),
            (2_260_000, 266, 0xc368_dbd2_87a6_5238),
            (2_800_000, 386, 0x3260_0c42_0221_5c50),
            (3_940_000, 563, 0x8fe6_0c7f_fe93_7ee8),
        ],
    );
}

/// COPS-SNOW on 64 keys, one write in two, 768 transactions: the
/// blacklists grow to hundreds of ROTs, and every one of them is shipped
/// (35,168 ids in all).
#[test]
fn cops_snow_stops_where_it_used_to_under_contention() {
    let mut c = cluster::<CopsSnowNode>(64, false);
    let got = drive(&mut c, 32, 64, 2);
    let shipped: usize = c
        .world
        .trace
        .iter()
        .map(|e| match e {
            TraceEvent::Send {
                msg: Msg::OldReaderResp { readers, .. },
                ..
            } => readers.len(),
            _ => 0,
        })
        .sum();
    assert!(shipped >= 10_000, "only {shipped} old readers shipped");
    assert_stops(
        "COPS-SNOW (contended)",
        &got,
        &[
            (320_000, 72, 0x07dd_f2f7_194d_f3ad),
            (660_000, 162, 0xf6ee_42f5_b84c_6ae2),
            (1_150_000, 272, 0x726a_fe4c_8837_016c),
            (1_710_000, 372, 0x0548_cbaa_d3f3_d1de),
            (2_220_000, 486, 0x1788_6ac0_4132_1181),
            (2_800_000, 604, 0x8648_eb38_761d_fa9f),
            (3_400_000, 718, 0x63f3_0062_c31d_1105),
            (3_960_000, 842, 0x2b57_78e1_0e21_5c20),
            (4_630_000, 974, 0x0c03_8afa_ec13_d76b),
            (5_310_000, 1_108, 0x37ae_fe06_1f4d_5e0b),
            (5_930_000, 1_240, 0x9e78_a0b6_b52a_a360),
            (6_590_000, 1_372, 0x7140_6552_da5d_9332),
            (7_350_000, 1_516, 0xe859_b086_9070_81eb),
            (8_090_000, 1_648, 0xe726_81d3_7b3e_74a4),
            (8_830_000, 1_780, 0x5dd9_f19b_ee5f_2b7c),
            (9_590_000, 1_920, 0x0bcc_a291_e921_8ef0),
            (10_230_000, 2_050, 0x5f49_5d21_27c8_3ef0),
            (10_950_000, 2_196, 0xdf7c_5d03_7624_5d89),
            (11_710_000, 2_338, 0x70b2_ec2f_2060_fbe0),
            (12_470_000, 2_472, 0xac4a_d4f6_e75c_aeed),
            (13_310_000, 2_618, 0x050b_b01c_602a_5b28),
            (14_050_000, 2_752, 0xefa7_748b_c718_7388),
            (14_790_000, 2_890, 0x07fc_b550_dda5_e9cd),
            (15_430_000, 3_024, 0xc464_5cb8_a72d_94b7),
            (16_170_000, 3_170, 0xf11f_86d5_57f0_53bb),
            (16_870_000, 3_304, 0x8774_42df_a1f2_1a59),
            (17_690_000, 3_444, 0xc5a3_630c_7dc2_4af5),
            (18_490_000, 3_588, 0x1b3b_5ef0_0e51_1bc5),
            (19_190_000, 3_726, 0xf197_5607_303e_3a03),
            (19_990_000, 3_864, 0xf1d2_962f_d6c2_d741),
            (20_710_000, 4_000, 0xffda_79dc_d682_38f9),
            (21_510_000, 4_140, 0x71c4_50d2_82e3_d73a),
        ],
    );
}

#[test]
fn eiger_stops_where_it_used_to() {
    pin::<EigerNode>(
        false,
        &[
            (640_000, 130, 0x383b_91f8_68d0_680e),
            (1_200_000, 265, 0x809f_6973_7731_55b3),
            (1_750_000, 379, 0x488d_7da5_f273_7d7e),
            (2_290_000, 486, 0x1504_635c_c9f5_4f88),
        ],
    );
    pin::<EigerNode>(
        true,
        &[
            (1_300_000, 197, 0x62b8_b50e_37dd_f766),
            (2_540_000, 367, 0xcff4_92d2_651f_3384),
            (5_660_000, 564, 0x3087_4b05_9ad2_e385),
            (6_920_000, 723, 0x7b8a_38a0_b604_1cfa),
        ],
    );
}

#[test]
fn spanner_stops_where_it_used_to() {
    pin::<SpannerNode>(
        false,
        &[
            (1_150_000, 343, 0xb610_269e_1a4b_7c90),
            (2_330_000, 1_060, 0x6b26_32c1_424c_892e),
            (3_400_000, 1_382, 0xba0c_f65c_9ecc_4c27),
            (4_460_000, 1_640, 0xc5d6_9a95_0777_3483),
        ],
    );
    pin::<SpannerNode>(
        true,
        &[
            (2_170_000, 1_362, 0xb0dc_bfdf_c591_3c1c),
            (3_330_000, 1_901, 0x19e1_d3fd_57db_76c3),
            (6_450_000, 2_287, 0x5ec4_07a2_6843_b8f4),
            (7_640_000, 2_566, 0x71a1_034f_4aa3_0e5e),
        ],
    );
}
