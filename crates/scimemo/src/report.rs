//! The `scimemo/v2` cacheability report.
//!
//! One report covers a whole sweep: the workspace purity summary, one
//! entry per shipped config (with per-plan certification rollups and
//! deduplicated rejection reasons), the deliberately-unsafe fixtures
//! that prove the gate rejects what it must, and — since v2 — the
//! [`StatsBlock`] surfacing the [`MemoStats`] traffic counters of a
//! [`crate::MemoTable`] actually exercised over the sweep's certified
//! fingerprints (the counters existed since v1 but were write-only:
//! nothing ever read them back out). The JSON is emitted with sorted keys
//! and stable ordering throughout, so a byte-level diff (and the
//! cross-process re-execution test) is meaningful: any schema or verdict
//! drift shows up as a diff, not silently.

use std::collections::BTreeMap;

use scilint::report::escape;

use crate::{Certification, MemoStats};

/// Schema tag written into every report. Bumped v1 → v2 when the
/// `memo_stats` block was added (hit/miss/bypass/eviction counters were
/// previously recorded but never serialized anywhere).
pub const SCHEMA: &str = "scimemo/v2";

/// Certification of one shipped config.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Config name as `scibench lint` prints it.
    pub name: String,
    /// Pipeline family (`neuro`, `astro`, `ingest`, `steps`).
    pub family: String,
    /// Engine name.
    pub engine: String,
    /// The per-node decisions.
    pub cert: Certification,
}

/// Certification of one deliberately-unsafe fixture plan, expected to be
/// rejected.
#[derive(Debug, Clone)]
pub struct FixtureReport {
    /// Fixture name.
    pub name: String,
    /// The per-node decisions (at least one rejection expected).
    pub cert: Certification,
}

/// Traffic counters of a memo table exercised during the sweep, plus its
/// residency at the end — the observable half of cache efficacy.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsBlock {
    /// Hit/miss/bypass/eviction counters.
    pub stats: MemoStats,
    /// Entries resident when the sweep finished.
    pub resident_entries: usize,
    /// Declared bytes resident when the sweep finished.
    pub resident_bytes: u64,
}

/// A full sweep: purity summary + configs + fixtures + cache traffic.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workspace purity summary (level name → function count).
    pub purity: BTreeMap<String, usize>,
    /// One entry per swept config, in sweep order.
    pub configs: Vec<ConfigReport>,
    /// Unsafe fixtures, in sweep order.
    pub fixtures: Vec<FixtureReport>,
    /// Memo-table traffic over the sweep's fingerprints, when measured.
    pub memo_stats: Option<StatsBlock>,
}

/// One label's rollup within a config: `(class, tasks, certified)`.
type LabelRollup = (String, usize, usize);

fn rollup(cert: &Certification) -> BTreeMap<String, LabelRollup> {
    let mut out: BTreeMap<String, LabelRollup> = BTreeMap::new();
    for n in &cert.nodes {
        let e = out
            .entry(n.label.to_string())
            .or_insert_with(|| (n.class.name().to_string(), 0, 0));
        e.1 += 1;
        if n.certified {
            e.2 += 1;
        }
    }
    out
}

/// Rejections deduplicated by label (first occurrence wins; decisions are
/// in task order, so this is deterministic).
fn rejections(cert: &Certification) -> BTreeMap<String, (String, Vec<String>)> {
    let mut out = BTreeMap::new();
    for n in cert.rejections() {
        out.entry(n.label.to_string())
            .or_insert_with(|| (n.reason.clone(), n.witness.clone()));
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", inner.join(","))
}

impl Report {
    /// Tasks and certified-task counts per family, for acceptance checks:
    /// every family must certify at least one node set.
    pub fn family_certified(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for c in &self.configs {
            let e = out.entry(c.family.clone()).or_insert((0, 0));
            e.0 += c.cert.nodes.len();
            e.1 += c.cert.certified_count();
        }
        out
    }

    /// Render the report as deterministic `scimemo/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));

        s.push_str("  \"purity\": {");
        let purity: Vec<String> = self
            .purity
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        s.push_str(&purity.join(", "));
        s.push_str("},\n");

        s.push_str("  \"configs\": [\n");
        for (i, c) in self.configs.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!(
                "\"name\": \"{}\", \"family\": \"{}\", \"engine\": \"{}\", ",
                escape(&c.name),
                escape(&c.family),
                escape(&c.engine)
            ));
            s.push_str(&format!(
                "\"graph_fingerprint\": \"{:016x}\", ",
                c.cert.graph_fingerprint
            ));
            let (tasks, certified) = (c.cert.nodes.len(), c.cert.certified_count());
            let rejected = c.cert.rejections().count();
            s.push_str(&format!(
                "\"tasks\": {tasks}, \"certified\": {certified}, \"rejected\": {rejected}"
            ));
            s.push_str(", \"labels\": {");
            let labels: Vec<String> = rollup(&c.cert)
                .iter()
                .map(|(label, (class, n, cert))| {
                    format!(
                        "\"{}\": {{\"class\": \"{class}\", \"tasks\": {n}, \"certified\": {cert}}}",
                        escape(label)
                    )
                })
                .collect();
            s.push_str(&labels.join(", "));
            s.push('}');
            let rej = rejections(&c.cert);
            if !rej.is_empty() {
                s.push_str(", \"rejections\": {");
                let rs: Vec<String> = rej
                    .iter()
                    .map(|(label, (reason, witness))| {
                        format!(
                            "\"{}\": {{\"reason\": \"{}\", \"witness\": {}}}",
                            escape(label),
                            escape(reason),
                            json_str_list(witness)
                        )
                    })
                    .collect();
                s.push_str(&rs.join(", "));
                s.push('}');
            }
            s.push('}');
            if i + 1 < self.configs.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");

        s.push_str("  \"fixtures\": [\n");
        for (i, f) in self.fixtures.iter().enumerate() {
            let rej = rejections(&f.cert);
            s.push_str("    {");
            s.push_str(&format!(
                "\"name\": \"{}\", \"tasks\": {}, \"certified\": {}, \"rejections\": {{",
                escape(&f.name),
                f.cert.nodes.len(),
                f.cert.certified_count()
            ));
            let rs: Vec<String> = rej
                .iter()
                .map(|(label, (reason, witness))| {
                    format!(
                        "\"{}\": {{\"reason\": \"{}\", \"witness\": {}}}",
                        escape(label),
                        escape(reason),
                        json_str_list(witness)
                    )
                })
                .collect();
            s.push_str(&rs.join(", "));
            s.push_str("}}");
            if i + 1 < self.fixtures.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");

        if let Some(m) = &self.memo_stats {
            s.push_str(&format!(
                "  \"memo_stats\": {{\"hits\": {}, \"misses\": {}, \"bypasses\": {}, \
                 \"evictions\": {}, \"evicted_bytes\": {}, \"resident_entries\": {}, \
                 \"resident_bytes\": {}}},\n",
                m.stats.hits,
                m.stats.misses,
                m.stats.bypasses,
                m.stats.evictions,
                m.stats.evicted_bytes,
                m.resident_entries,
                m.resident_bytes
            ));
        }

        s.push_str("  \"families\": {");
        let fams: Vec<String> = self
            .family_certified()
            .iter()
            .map(|(fam, (tasks, cert))| {
                format!(
                    "\"{}\": {{\"tasks\": {tasks}, \"certified\": {cert}}}",
                    escape(fam)
                )
            })
            .collect();
        s.push_str(&fams.join(", "));
        s.push_str("}\n");

        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeClass, NodeDecision};

    fn decision(label: &'static str, certified: bool, class: NodeClass) -> NodeDecision {
        NodeDecision {
            task: 0,
            label,
            fingerprint: 0xabcd,
            class,
            sound: certified,
            certified,
            reason: if certified {
                String::new()
            } else {
                "kernel `x` is ambient_read via env::var".into()
            },
            witness: if certified {
                Vec::new()
            } else {
                vec!["x (crates/x/src/lib.rs:1)".into()]
            },
        }
    }

    fn sample() -> Report {
        let mut purity = BTreeMap::new();
        purity.insert("pure".to_string(), 2);
        purity.insert("det_impure".to_string(), 1);
        Report {
            purity,
            configs: vec![ConfigReport {
                name: "neuro-spark-1".into(),
                family: "neuro".into(),
                engine: "Spark".into(),
                cert: Certification {
                    nodes: vec![
                        decision("spark:ingest", true, NodeClass::Source),
                        decision("spark:fit", true, NodeClass::Kernel),
                    ],
                    graph_fingerprint: 0x1234,
                },
            }],
            fixtures: vec![FixtureReport {
                name: "fixture-ambient".into(),
                cert: Certification {
                    nodes: vec![decision("fixture:dirty", false, NodeClass::Kernel)],
                    graph_fingerprint: 0x5678,
                },
            }],
            memo_stats: Some(StatsBlock {
                stats: MemoStats {
                    hits: 3,
                    misses: 2,
                    bypasses: 1,
                    evictions: 0,
                    evicted_bytes: 0,
                },
                resident_entries: 2,
                resident_bytes: 16,
            }),
        }
    }

    #[test]
    fn json_carries_schema_and_is_deterministic() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"scimemo/v2\""));
        assert!(a.contains("\"graph_fingerprint\": \"0000000000001234\""));
        assert!(a.contains("\"fixture:dirty\""));
        assert!(a.contains("ambient_read"));
        assert!(a.contains(
            "\"memo_stats\": {\"hits\": 3, \"misses\": 2, \"bypasses\": 1, \"evictions\": 0, \
             \"evicted_bytes\": 0, \"resident_entries\": 2, \"resident_bytes\": 16}"
        ));
    }

    #[test]
    fn memo_stats_block_is_optional() {
        let mut r = sample();
        r.memo_stats = None;
        assert!(!r.to_json().contains("\"memo_stats\""));
    }

    #[test]
    fn family_rollup_counts_tasks_and_certified() {
        let r = sample();
        let fams = r.family_certified();
        assert_eq!(fams.get("neuro"), Some(&(2, 2)));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
