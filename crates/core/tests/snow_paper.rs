//! The protocols' Table 1 links must name real `paper_table1()` rows.
//! (`snowlint` checks each module's *derived* tuple against its linked
//! row statically; `table1` measures it against the same row at
//! runtime.)

use cbf_core::paper_table1;
use cbf_protocols::all_snow_decls;

#[test]
fn every_linked_row_names_a_real_paper_row() {
    let systems: Vec<&str> = paper_table1().iter().map(|r| r.system).collect();
    let linked: Vec<&str> = all_snow_decls()
        .iter()
        .filter_map(|d| d.paper_row)
        .collect();
    assert!(linked.len() >= 11, "most protocols have a published row");
    for name in linked {
        assert!(systems.contains(&name), "unknown Table 1 row {name}");
    }
}
