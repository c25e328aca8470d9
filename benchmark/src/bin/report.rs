//! Reads the result files `run.sh` writes: prints one as a table, or
//! compares two.
//!
//! A result file holds one JSON object per line:
//! `{"workload": W, "trace": 0|1, "seed": N, "result": <result line>}`.
//!
//! `report compare BENCHMARK.json A B` checks B against A: every
//! end-to-end metric may be worse by at most its bound, and every
//! simulated count must be equal. It exits with 1 if any is not.

use std::collections::BTreeMap;
use std::process::ExitCode;

use emc_benchmark::metrics::PER_LAYER;
use emc_types::JsonValue;

/// (workload, trace, metric) -> (value, unit), plus the run's counts.
struct Results {
    values: BTreeMap<(String, u64, String), (f64, String)>,
    runs: Vec<(String, u64, u64, bool, u64, u64)>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut results = Results {
        values: BTreeMap::new(),
        runs: Vec::new(),
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = JsonValue::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or_else(|| bad("no workload"))?;
        let num =
            |v: &JsonValue, key: &str| v.get(key).and_then(|v| v.as_f64()).ok_or_else(|| bad(key));
        let (trace, seed) = (num(&doc, "trace")? as u64, num(&doc, "seed")? as u64);
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        let correct = result.get("correct") == Some(&JsonValue::Bool(true));
        let (attempted, failed) = (
            num(result, "attempted")? as u64,
            num(result, "failed")? as u64,
        );
        results.runs.push((
            workload.to_string(),
            trace,
            seed,
            correct,
            attempted,
            failed,
        ));
        let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, m) in metrics {
            let unit = m
                .get("unit")
                .and_then(|v| v.as_str())
                .ok_or_else(|| bad("no unit"))?;
            results.values.insert(
                (workload.to_string(), trace, name.clone()),
                (num(m, "value")?, unit.to_string()),
            );
        }
    }
    Ok(results)
}

fn print(path: &str) -> Result<bool, String> {
    let results = load(path)?;
    for (workload, trace, seed, correct, attempted, failed) in &results.runs {
        let kind = if *trace == 1 { "traced" } else { "end-to-end" };
        println!("\n== {workload} ({kind}, seed {seed}): correct={correct} attempted={attempted} failed={failed}");
        for ((w, t, name), (value, unit)) in &results.values {
            if w == workload && t == trace {
                println!("  {name:<36} {value:>16.4} {unit}");
            }
        }
    }
    Ok(results.runs.iter().all(|r| r.3))
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if better == "higher" {
        -change
    } else {
        change
    }
}

fn compare(manifest: &str, a: &str, b: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{manifest}: {e}"))?;
    let bounds: BTreeMap<String, (f64, String)> = doc
        .get("end_to_end")
        .and_then(|v| v.as_arr())
        .ok_or("no end_to_end in the manifest")?
        .iter()
        .filter_map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            Some((
                field("name")?,
                (m.get("bound")?.as_f64()?, field("better")?),
            ))
        })
        .collect();
    let (a, b) = (load(a)?, load(b)?);
    let mut ok = a.runs.iter().chain(&b.runs).all(|r| r.3);
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for (key, (va, _)) in &a.values {
        let (workload, trace, name) = key;
        let Some((vb, _)) = b.values.get(key) else {
            println!("{workload:<14} {name:<36} missing from B");
            ok = false;
            continue;
        };
        let verdict = if *trace == 0 {
            let (bound, better) = bounds
                .get(name)
                .ok_or_else(|| format!("{name} is not in the manifest"))?;
            let worse = worsening(*va, *vb, better);
            let pass = worse <= *bound;
            println!(
                "{workload:<14} {name:<36} {va:>14.4} {vb:>14.4} {:>8.2}%  {}",
                worse * 100.0,
                if pass { "ok" } else { "BEYOND BOUND" }
            );
            pass
        } else if PER_LAYER.iter().any(|d| d.name == name && d.simulated) {
            let pass = va == vb;
            if !pass {
                println!("{workload:<14} {name:<36} {va:>14.4} {vb:>14.4}            NOT EQUAL");
            }
            pass
        } else {
            true
        };
        ok &= verdict;
    }
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match strs.as_slice() {
        ["print", path] => print(path),
        ["compare", manifest, a, b] => compare(manifest, a, b),
        _ => Err("usage: report print FILE | report compare BENCHMARK.json A B".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }
}
