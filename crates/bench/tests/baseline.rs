//! The checked-in `BENCH_results.json` stays readable by this tree: it
//! parses, re-serializes to the same value tree, and passes its own gates.

use hsi_bench::delta::{compare, Thresholds};
use hsi_bench::results::{from_json, to_json};
use trace::json;

#[test]
fn checked_in_baseline_round_trips_and_gates_clean() {
    let text = include_str!("../../../BENCH_results.json");
    let run = from_json(text).expect("the baseline parses");
    assert_eq!(json::parse(&to_json(&run)), json::parse(text));
    let violations = compare(&run, &run, &Thresholds::default());
    assert!(violations.is_empty(), "{violations:?}");
}
