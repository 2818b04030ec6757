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
            (280_000, 72, 0xb9a0_3c20_4751_40ed),
            (700_000, 186, 0x8e0f_ce2b_313a_7058),
            (1_140_000, 282, 0x45a4_68a8_f6fa_3ed0),
            (1_540_000, 380, 0x289b_44ae_3cb6_b299),
        ],
    );
    pin::<CopsNode>(
        true,
        &[
            (1_120_000, 104, 0x566e_9fcb_95f6_15b2),
            (2_260_000, 266, 0x8eb3_2ee5_3442_4704),
            (2_760_000, 378, 0x10ce_467d_5b22_45ec),
            (3_920_000, 548, 0xf8b8_df0a_a737_15a7),
        ],
    );
}

#[test]
fn cops_snow_stops_where_it_used_to() {
    pin::<CopsSnowNode>(
        false,
        &[
            (280_000, 72, 0x338e_f023_3137_106e),
            (700_000, 186, 0x2c0f_0292_cfe9_e4a7),
            (1_160_000, 288, 0x92b0_f69a_a826_0d17),
            (1_660_000, 390, 0xae15_6357_3548_f0c7),
        ],
    );
    pin::<CopsSnowNode>(
        true,
        &[
            (1_120_000, 104, 0xc38e_f5f2_8e21_72b7),
            (2_260_000, 266, 0x05dc_abc2_531b_4e5b),
            (2_800_000, 386, 0xa694_ff4b_d263_082e),
            (3_940_000, 563, 0x384e_e92d_0335_ea93),
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
            (320_000, 72, 0x440c_a927_e63e_bab4),
            (660_000, 162, 0x48af_c0df_f79d_e541),
            (1_150_000, 272, 0x0973_0275_9a45_7a75),
            (1_710_000, 372, 0xba19_87e3_08a1_3c14),
            (2_220_000, 486, 0xb6cf_231a_07ce_5b84),
            (2_800_000, 604, 0xc2de_8f89_6ebf_a703),
            (3_400_000, 718, 0x066f_4dfd_e3a8_c5a8),
            (3_960_000, 842, 0xcb16_8760_1ba3_dce1),
            (4_630_000, 974, 0x43d7_d02f_e69d_bb3d),
            (5_310_000, 1_108, 0xb2d4_fa59_5a4d_e37e),
            (5_930_000, 1_240, 0x0d80_a582_a0a7_5df3),
            (6_590_000, 1_372, 0x331f_7a64_5b86_956f),
            (7_350_000, 1_516, 0x7074_560f_df56_5a39),
            (8_090_000, 1_648, 0x9903_8bfd_a70e_536d),
            (8_830_000, 1_780, 0xd894_b4d3_f322_c649),
            (9_590_000, 1_920, 0xb35f_afdb_7c56_3ca1),
            (10_230_000, 2_050, 0xf506_3d1c_5cf5_684e),
            (10_950_000, 2_196, 0xc586_187f_72dd_e2b9),
            (11_710_000, 2_338, 0xfb8b_1373_2bac_9fbd),
            (12_470_000, 2_472, 0x4c71_371b_5461_06f4),
            (13_310_000, 2_618, 0x934b_c328_59ce_fdc6),
            (14_050_000, 2_752, 0xa205_eee1_7d67_e498),
            (14_790_000, 2_890, 0xb8f7_9149_90b2_1974),
            (15_430_000, 3_024, 0xb1b5_5dd2_76c4_72d2),
            (16_170_000, 3_170, 0x59fb_8289_7b47_8242),
            (16_870_000, 3_304, 0xd2c3_a1e6_0989_5de0),
            (17_690_000, 3_444, 0x3db1_d0da_8849_8769),
            (18_490_000, 3_588, 0x2d69_085d_6e15_64a8),
            (19_190_000, 3_726, 0x5dcd_7fb2_f4d8_a531),
            (19_990_000, 3_864, 0x859b_53d0_2666_fd74),
            (20_710_000, 4_000, 0x632f_f2e8_749c_28bb),
            (21_510_000, 4_140, 0x474c_d59f_351d_add8),
        ],
    );
}

#[test]
fn eiger_stops_where_it_used_to() {
    pin::<EigerNode>(
        false,
        &[
            (640_000, 130, 0x80c3_4ab2_9789_e169),
            (1_200_000, 265, 0xd991_be66_25b7_ee55),
            (1_750_000, 379, 0x1063_4a35_9bd2_96fe),
            (2_290_000, 486, 0x25ce_7b18_211c_39e8),
        ],
    );
    pin::<EigerNode>(
        true,
        &[
            (1_300_000, 197, 0xfb8e_011f_8da4_96d4),
            (2_540_000, 367, 0x610a_562a_9e12_3d30),
            (5_660_000, 564, 0xd75c_0f97_3d8a_e63d),
            (6_920_000, 723, 0xc17c_f2d8_3bfa_1e0c),
        ],
    );
}

#[test]
fn spanner_stops_where_it_used_to() {
    pin::<SpannerNode>(
        false,
        &[
            (1_150_000, 343, 0x66af_1c13_f41c_2a4d),
            (2_330_000, 1_060, 0x0d15_050b_05ad_60cf),
            (3_400_000, 1_382, 0x4358_ddd4_cc4c_de9b),
            (4_460_000, 1_640, 0x14fb_bdea_96fd_4fe2),
        ],
    );
    pin::<SpannerNode>(
        true,
        &[
            (2_170_000, 1_362, 0xf0b8_5581_2aa8_121d),
            (3_330_000, 1_901, 0xfe9e_b7d8_ac03_6a51),
            (6_450_000, 2_287, 0xac07_c75d_91c9_32d9),
            (7_640_000, 2_566, 0xe079_580d_c3f5_67a4),
        ],
    );
}
