//! The paper's Table 1 claim as a standing gate: at quick scale `µBE`
//! never produces a false GA, and the table is pinned byte for byte, so
//! any change to the matcher's output (Algorithm 1 feeds every row) fails
//! here too.

use mube_bench::experiments::table1;
use mube_bench::Scale;

const QUICK_TABLE: &str = "\
## Table 1 — quality of GAs (universe of 200, no constraints)

| sources selected | true GAs selected | attributes in true GAs | true GAs missed | false GAs |
|---|---|---|---|---|
| 5 | 3 | 6 | 4 | 0 |
| 10 | 9 | 27 | 2 | 0 |
| 15 | 13 | 62 | 0 | 0 |
";

#[test]
fn quick_table1_has_no_false_gas_and_is_pinned() {
    let rows = table1::sweep(Scale::Quick);
    for r in &rows {
        assert_eq!(r.report.false_gas, 0, "false GAs at m = {}", r.m);
    }
    assert_eq!(table1::render(&rows), QUICK_TABLE);
}
