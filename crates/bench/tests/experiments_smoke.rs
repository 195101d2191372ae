//! Smoke test: run every experiment (E1–E10, E12–E17) at a tiny scale
//! so the code behind the harness is compiled and exercised by `cargo test`
//! without paying for a full measurement run.

use flexrel_bench::experiments;

#[test]
fn run_all_at_tiny_scale_produces_every_table() {
    let tables = experiments::run_all(50);
    assert_eq!(
        tables.len(),
        16,
        "one table per experiment E1–E10 and E12–E17"
    );
    for t in &tables {
        assert!(!t.is_empty(), "experiment {:?} produced no rows", t.title);
        for row in &t.rows {
            assert_eq!(
                row.len(),
                t.header.len(),
                "ragged row in experiment {:?}",
                t.title
            );
        }
        let rendered = t.to_string();
        assert!(rendered.contains(&t.title), "rendering dropped the title");
    }
}
