//! `scibench-suite compare BASE.json... -- HEAD.json...`: per (metric,
//! workload) pair, each side's median and quartiles and a verdict.
//!
//! The verdict rule: `better` when there are at least ten run pairs, the
//! head wins at least nine tenths of them (ties count for neither; runs
//! pair up in the order given) and the medians differ by more than the
//! base's interquartile range.
//! Otherwise, for an end-to-end metric with a bound: `unresolved` when the
//! base's own spread is wider than the bound (unless every head run beats
//! every base run), `worse` when the head median is worse by more than the
//! bound, else `same`. Per-layer metrics have no bound; they read `worse`
//! by the mirror of the `better` rule, else `same`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::util::{median, quartiles, ratio};

/// Fewest run pairs on which a win or a loss may be claimed: with fewer,
/// nine tenths of the pairs going one way is too likely by chance.
const MIN_PAIRS: usize = 10;

/// One loaded result file.
struct Run {
    workload: String,
    traced: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or(format!("{path}: empty file"))?;
    let doc = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or(format!(
            "{path}: no `workload`; write results with `run --out`"
        ))?
        .to_string();
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("{path}: unknown workload `{workload}`"));
    }
    let traced = doc.get("trace").and_then(Json::as_bool).unwrap_or(false);
    let metrics = doc
        .get("metrics")
        .map(|m| {
            m.members()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Run {
        workload,
        traced,
        metrics,
    })
}

/// The outcome of comparing one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head improves on the base by the rule above.
    Better,
    /// No change beyond the bound.
    Same,
    /// The head regresses beyond the bound.
    Worse,
    /// The base's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `head` against `base` for a metric improving in direction
/// `better`, with an optional regression bound (share of the base median).
pub fn verdict(base: &[f64], head: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let improves = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let (mb, mh) = (median(base), median(head));
    let [q1, _, q3] = quartiles(base);
    let spread = q3 - q1;
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| improves(head[i], base[i])).count();
    let losses = (0..pairs).filter(|&i| improves(base[i], head[i])).count();
    let decisive = |n: usize| pairs >= MIN_PAIRS && n * 10 >= pairs * 9 && (mh - mb).abs() > spread;
    if decisive(wins) && improves(mh, mb) {
        return Verdict::Better;
    }
    match bound {
        Some(bound) => {
            let all_better = head.iter().all(|&h| base.iter().all(|&b| improves(h, b)));
            let worse_by = ratio(
                match better {
                    Better::Higher => mb - mh,
                    Better::Lower => mh - mb,
                },
                mb.abs(),
            );
            if ratio(spread, mb.abs()) > bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
        None if decisive(losses) && improves(mb, mh) => Verdict::Worse,
        None => Verdict::Same,
    }
}

fn values(runs: &[&Run], workload: &str, traced: bool, name: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

fn describe(v: &[f64]) -> String {
    let [q1, m, q3] = quartiles(v);
    format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
}

/// Tracing overhead on one side: the share of untraced throughput that
/// the traced runs lose.
fn overhead(runs: &[&Run], workload: &str) -> Option<f64> {
    let untraced = values(runs, workload, false, "ops_per_s");
    let traced = values(runs, workload, true, "ops_per_s");
    (!untraced.is_empty() && !traced.is_empty())
        .then(|| 1.0 - ratio(median(&traced), median(&untraced)))
}

/// Entry point; exits 1 when any end-to-end pair is `worse`.
pub fn main(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: scibench-suite compare BASE.json... -- HEAD.json...");
        return ExitCode::from(2);
    };
    let load_all =
        |paths: &[String]| -> Result<Vec<Run>, String> { paths.iter().map(|p| load(p)).collect() };
    let (base, head) = match (load_all(&args[..split]), load_all(&args[split + 1..])) {
        (Ok(b), Ok(h)) if !b.is_empty() && !h.is_empty() => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("compare: both sides need at least one result file");
            return ExitCode::from(2);
        }
    };
    let base: Vec<&Run> = base.iter().collect();
    let head: Vec<&Run> = head.iter().collect();

    let mut any_worse = false;
    println!(
        "{:<6} {:<34} {:<40} {:<40} {:>8}  verdict",
        "load", "metric", "base median [q1, q3]", "head median [q1, q3]", "change"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        // End-to-end metrics are judged on untraced runs, per-layer
        // metrics on traced ones.
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            for m in table {
                let (b, h) = (
                    values(&base, w, traced, m.name),
                    values(&head, w, traced, m.name),
                );
                // Skip pairs that are missing, or 0 throughout because
                // the metric does not apply to the workload.
                if b.is_empty() || h.is_empty() || b.iter().chain(&h).all(|v| *v == 0.0) {
                    continue;
                }
                let v = verdict(&b, &h, m.better, m.bound);
                any_worse |= m.bound.is_some() && v == Verdict::Worse;
                let change = 100.0 * ratio(median(&h) - median(&b), median(&b).abs());
                println!(
                    "{w:<6} {:<34} {:<40} {:<40} {change:>+7.1}%  {}",
                    m.name,
                    describe(&b),
                    describe(&h),
                    v.as_str()
                );
            }
        }
        let fmt = |o: Option<f64>| o.map_or("n/a".to_string(), |o| format!("{:.1}%", 100.0 * o));
        let (ob, oh) = (overhead(&base, w), overhead(&head, w));
        if ob.is_some() || oh.is_some() {
            println!(
                "{w:<6} tracing overhead (ops_per_s lost when traced): base {} head {}",
                fmt(ob),
                fmt(oh)
            );
        }
    }
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sides_are_the_same() {
        let v = [10.0, 10.5, 9.8, 10.2, 10.1];
        assert_eq!(verdict(&v, &v, Better::Higher, Some(0.1)), Verdict::Same);
        assert_eq!(verdict(&v, &v, Better::Lower, None), Verdict::Same);
    }

    fn ten(v: [f64; 5]) -> Vec<f64> {
        v.iter().chain(&v).copied().collect()
    }

    #[test]
    fn a_clear_win_is_better_and_a_clear_loss_is_worse() {
        let base = ten([10.0, 10.1, 9.9, 10.0, 10.05]);
        let faster = ten([12.0, 12.1, 11.9, 12.0, 12.05]);
        assert_eq!(
            verdict(&base, &faster, Better::Higher, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &faster, Better::Lower, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(verdict(&base, &faster, Better::Lower, None), Verdict::Worse);
        // A loss within the bound is not a regression.
        let slightly = ten([9.6, 9.7, 9.5, 9.6, 9.65]);
        assert_eq!(
            verdict(&base, &slightly, Better::Higher, Some(0.1)),
            Verdict::Same
        );
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_win() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let faster = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(
            verdict(&base, &faster, Better::Higher, Some(0.1)),
            Verdict::Same
        );
        assert_eq!(verdict(&base, &faster, Better::Lower, None), Verdict::Same);
        // A regression beyond the bound still shows.
        assert_eq!(
            verdict(&base, &faster, Better::Lower, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [5.0, 10.0, 15.0, 8.0, 12.0];
        let head = [6.0, 9.0, 14.0, 8.5, 11.0];
        assert_eq!(
            verdict(&base, &head, Better::Higher, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        let head = [18.0, 19.0, 20.0, 18.5, 19.5];
        assert_eq!(
            verdict(&base, &head, Better::Higher, Some(0.1)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&ten(base), &ten(head), Better::Higher, Some(0.1)),
            Verdict::Better
        );
    }
}
