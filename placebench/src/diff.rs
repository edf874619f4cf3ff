//! `--diff OLD NEW`: compares two result files run by run.
//!
//! A result file holds one JSON record per line, as `--out FILE` appends
//! them. Records are grouped by workload, seed and trace mode; a group's
//! value for a metric is the median over its records. Each metric lands in
//! the column of its kind (wall, busy, allocations, counts), and a changed
//! exact count is flagged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use complx_obs::JsonValue;

use crate::metrics::{spec, Kind};
use crate::stats::median;

/// Group key: workload, seed, trace mode.
type Key = (String, i64, i64);

/// Metric medians per group.
type Groups = BTreeMap<Key, BTreeMap<String, f64>>;

/// Parses a result file into per-group metric medians.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn load(text: &str) -> Result<Groups, String> {
    let mut samples: BTreeMap<Key, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = complx_obs::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = v
            .get("seed")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| bad("no seed"))?;
        let trace = v
            .get("trace")
            .and_then(JsonValue::as_i64)
            .ok_or_else(|| bad("no trace"))?;
        let Some(JsonValue::Obj(metrics)) = v.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let group = samples
            .entry((workload.to_string(), seed, trace))
            .or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad(&format!("metric {name} has no value")))?;
            group.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(samples
        .into_iter()
        .map(|(k, ms)| {
            let medians = ms
                .into_iter()
                .filter_map(|(n, vs)| median(&vs).map(|m| (n, m)))
                .collect();
            (k, medians)
        })
        .collect())
}

/// The comparison table and the number of exact counts that changed.
pub fn compare(old: &Groups, new: &Groups) -> (String, usize) {
    let mut out = String::new();
    let mut changed = 0;
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:<11} {:<30} {:>13} {:>13} {:>9} {:>9} {:>9} {:>9}",
        "workload", "seed", "layer", "metric", "old", "new", "Δwall", "Δbusy", "Δallocs", "Δcounts"
    );
    for (key, new_metrics) in new {
        let Some(old_metrics) = old.get(key) else {
            let _ = writeln!(out, "{:<14} {:>5} (only in NEW)", key.0, key.1);
            continue;
        };
        for (name, &nv) in new_metrics {
            let Some(&ov) = old_metrics.get(name) else {
                continue;
            };
            let Some(s) = spec(name) else { continue };
            let delta = if ov.abs() > 0.0 {
                format!("{:+.1}%", 100.0 * (nv - ov) / ov.abs())
            } else if nv.abs() > 0.0 {
                "new".to_string()
            } else {
                "0".to_string()
            };
            let mut cols = ["", "", "", ""];
            let col = match s.kind {
                Kind::Wall | Kind::Ratio => 0,
                Kind::Busy => 1,
                Kind::Alloc => 2,
                Kind::Exact => 3,
            };
            cols[col] = &delta;
            let flag = if s.kind == Kind::Exact && nv.to_bits() != ov.to_bits() {
                changed += 1;
                "  ! exact value changed"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<14} {:>5} {:<11} {:<30} {:>13.6e} {:>13.6e} {:>9} {:>9} {:>9} {:>9}{flag}",
                key.0,
                key.1,
                s.layer(),
                name,
                ov,
                nv,
                cols[0],
                cols[1],
                cols[2],
                cols[3]
            );
        }
    }
    for key in old.keys().filter(|k| !new.contains_key(*k)) {
        let _ = writeln!(out, "{:<14} {:>5} (only in OLD)", key.0, key.1);
    }
    (out, changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iterations: f64, cg_s: f64) -> String {
        format!(
            "{{\"workload\":\"gp20k-t1\",\"seed\":7,\"trace\":1,\"correct\":true,\
             \"metrics\":{{\"core.iterations\":{{\"value\":{iterations},\"unit\":\"count\"}},\
             \"sparse.cg_s\":{{\"value\":{cg_s},\"unit\":\"s\"}}}}}}"
        )
    }

    #[test]
    fn medians_per_group_and_exact_changes_are_flagged() {
        let old = load(&format!(
            "{}\n{}\n{}\n",
            record(49.0, 1.0),
            record(49.0, 3.0),
            record(49.0, 2.0)
        ))
        .expect("old parses");
        let key = ("gp20k-t1".to_string(), 7, 1);
        assert_eq!(old[&key]["sparse.cg_s"], 2.0);

        let same = load(&record(49.0, 1.0)).expect("parses");
        let (_, changed) = compare(&old, &same);
        assert_eq!(changed, 0);

        let moved = load(&record(50.0, 1.0)).expect("parses");
        let (table, changed) = compare(&old, &moved);
        assert_eq!(changed, 1);
        assert!(table.contains("exact value changed"));
        assert!(table.contains("-50.0%"), "{table}");
    }

    #[test]
    fn malformed_lines_are_reported() {
        assert!(load("{\"seed\":7}").unwrap_err().contains("line 1"));
    }
}
