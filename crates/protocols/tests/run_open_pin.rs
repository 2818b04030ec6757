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

use cbf_model::{ClientId, Key};
use cbf_protocols::cops::CopsNode;
use cbf_protocols::cops_snow::CopsSnowNode;
use cbf_protocols::eiger::EigerNode;
use cbf_protocols::spanner::SpannerNode;
use cbf_protocols::{Cluster, ProtocolNode, Topology};
use cbf_sim::{FaultPlan, LatencyModel, ServiceModel, SimConfig, MICROS, MILLIS};
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

/// Drive `EPOCHS` epochs of `IN_FLIGHT` transactions (distinct clients;
/// the first epoch all writes, then one write in four) and return where
/// each `run_open` stopped.
fn drive<N: ProtocolNode>(chaos: bool) -> Vec<Stop> {
    let mut topo = Topology::sharded(3, CLIENTS, 1024);
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
    let mut c: Cluster<N> = Cluster::with_network(topo, LatencyModel::constant_default(), config);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut stops = Vec::new();
    for epoch in 0..EPOCHS {
        let mut open = Vec::new();
        for slot in 0..IN_FLIGHT {
            let client = ClientId((epoch * IN_FLIGHT + slot) % CLIENTS);
            let a = Key(rng.gen_range(0..HOT_KEYS));
            let b = Key(rng.gen_range(0..HOT_KEYS));
            let write = epoch == 0 || rng.gen_range(0..4u32) == 0;
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

fn pin<N: ProtocolNode>(chaos: bool, expected: &[Stop]) {
    let got = drive::<N>(chaos);
    if got != expected {
        let table: String = got
            .iter()
            .map(|(now, events, digest)| format!("    ({now}, {events}, {digest:#018x}),\n"))
            .collect();
        panic!(
            "{} (chaos: {chaos}) stopped elsewhere; observed:\n{table}",
            N::NAME
        );
    }
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
