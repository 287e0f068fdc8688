//! `BENCH_history.jsonl` keeps the paired `amcbench` results of each
//! accepted performance change: one JSON object per line and workload,
//! with the parent's and the change's median and quartiles of every
//! end-to-end metric, the pairs run and won, the seeds, both commits and
//! the host stamp lines `amcbench` printed. History is only worth keeping
//! if every line still reads, so each one must parse with `trace::json`
//! and carry those fields.

use hyperspec::trace::json::{self, Error, Value};

/// The end-to-end metrics `BENCHMARK.json` declares.
const METRICS: [&str; 4] = ["scene_p50_s", "setup_s", "peak_rss_mb", "accuracy_pct"];

fn check_side(side: &Value) -> Result<(), Error> {
    let [q1, median, q3] = ["q1", "median", "q3"].map(|k| side.get(k).and_then(Value::as_f64));
    let (q1, median, q3) = (q1?, median?, q3?);
    if !median.is_finite() || median <= 0.0 {
        return Err(Error::Invalid(format!(
            "median {median} is not finite and positive"
        )));
    }
    if q1 > median || median > q3 {
        return Err(Error::Invalid(format!(
            "quartiles {q1} {median} {q3} out of order"
        )));
    }
    Ok(())
}

fn check_line(line: &str) -> Result<(), Error> {
    let v = json::parse(line)?;
    v.get("workload")?.as_str()?;
    for commit in ["parent_commit", "change_commit"] {
        if v.get(commit)?.as_str()?.len() != 40 {
            return Err(Error::Invalid(format!("{commit} is not a full hash")));
        }
    }
    if v.get("run_seconds")?.as_f64()? <= 0.0 {
        return Err(Error::Invalid("run_seconds must be positive".into()));
    }
    let pairs = v.get("pairs")?.as_u64()?;
    let seeds = v.get("seeds")?.as_array()?;
    if pairs == 0 || seeds.len() as u64 != pairs {
        return Err(Error::Invalid(format!(
            "{} seeds for {pairs} pairs",
            seeds.len()
        )));
    }
    for seed in seeds {
        seed.as_u64()?;
    }
    let host = v.get("host")?.as_array()?;
    for key in ["available_parallelism:", "cpu_model:", "build_profile:"] {
        let mut lines = host.iter().map(Value::as_str);
        if !lines.any(|l| l.is_ok_and(|l| l.starts_with(key))) {
            return Err(Error::Invalid(format!("no host stamp line {key}")));
        }
    }
    let metrics = v.get("metrics")?;
    for name in METRICS {
        let m = metrics.get(name)?;
        check_side(m.get("parent")?)?;
        check_side(m.get("change")?)?;
        let (won, lost) = (
            m.get("pairs_won")?.as_u64()?,
            m.get("pairs_lost")?.as_u64()?,
        );
        if won + lost > pairs {
            return Err(Error::Invalid(format!(
                "{name}: {won} won + {lost} lost > {pairs} pairs"
            )));
        }
    }
    Ok(())
}

#[test]
fn every_history_line_parses_with_paired_medians() {
    let text = include_str!("../BENCH_history.jsonl");
    let mut entries = 0;
    for (i, line) in text.lines().enumerate() {
        check_line(line).unwrap_or_else(|e| panic!("BENCH_history.jsonl line {}: {e}", i + 1));
        entries += 1;
    }
    assert!(entries > 0, "BENCH_history.jsonl is empty");
}

#[test]
fn a_line_missing_a_metric_or_with_a_zero_median_is_rejected() {
    let line = include_str!("../BENCH_history.jsonl")
        .lines()
        .next()
        .unwrap();
    assert!(check_line(line).is_ok());
    let missing = line.replacen("\"setup_s\"", "\"setup_x\"", 1);
    assert_eq!(
        check_line(&missing),
        Err(Error::MissingKey("setup_s".into()))
    );
    let zero = line.replacen("\"median\": ", "\"median\": 0.0, \"was\": ", 1);
    assert!(check_line(&zero).is_err(), "a zero median must be rejected");
}
