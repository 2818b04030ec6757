//! Every protocol node type has exactly one Table 1 link row, found by
//! its `ProtocolNode::NAME`. (What the handlers of each module *do* —
//! the `(R, V, N, W)` tuple — is derived statically by `snowlint` and
//! measured at runtime by `audit_rot`; nothing declares it.)

use cbf_protocols::{self as p, all_snow_decls, ProtocolNode};

/// The link row's `system` for node type `N`.
fn linked<N: ProtocolNode>() -> &'static str {
    let rows: Vec<_> = all_snow_decls()
        .iter()
        .filter(|d| d.system == N::NAME)
        .collect();
    assert_eq!(rows.len(), 1, "{}: exactly one link row", N::NAME);
    rows[0].system
}

#[test]
fn every_node_type_has_exactly_one_link_row() {
    let mut systems = vec![
        linked::<p::calvin::CalvinNode>(),
        linked::<p::contrarian::ContrarianNode>(),
        linked::<p::cops::CopsNode>(),
        linked::<p::cops_rw::CopsRwNode>(),
        linked::<p::cops_snow::CopsSnowNode>(),
        linked::<p::cure::CureNode>(),
        linked::<p::eiger::EigerNode>(),
        linked::<p::gentlerain::GentleRainNode>(),
        linked::<p::occult::OccultNode>(),
        linked::<p::pinned::PinnedNode>(),
        linked::<p::ramp::RampNode>(),
        linked::<p::spanner::SpannerNode>(),
        linked::<p::wren::WrenNode>(),
    ];
    // The naive family's NAME varies per phase count, so its claimant
    // node types share the one row no NAME equals.
    for naive in [
        <p::NaiveFast as ProtocolNode>::NAME,
        <p::NaiveTwoPhase as ProtocolNode>::NAME,
        <p::NaiveThreePhase as ProtocolNode>::NAME,
        <p::NaiveFourPhase as ProtocolNode>::NAME,
    ] {
        assert!(naive.starts_with("naive-"), "{naive}");
        assert!(all_snow_decls().iter().all(|d| d.system != naive));
    }
    systems.push("naive claimant family");

    let mut all: Vec<&str> = all_snow_decls().iter().map(|d| d.system).collect();
    assert_eq!(all.len(), 14, "one link row per protocol module");
    all.sort_unstable();
    systems.sort_unstable();
    assert_eq!(
        all, systems,
        "every row belongs to a node type, names unique"
    );
}
