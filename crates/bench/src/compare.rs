//! The bench-regression gate: compares freshly emitted `BENCH_<ID>.json`
//! reports against committed baselines and fails on headline regressions.
//!
//! Only the *headline* metric of each report participates (see
//! [`crate::report::Headline`]); reports without one — or whose headline is
//! marked `"skipped": true` on either side (e.g. group-commit amortization
//! measured on a single-CPU host) — are listed as skipped.  Headline values are
//! compared **raw**; any cosmetic capping happens only in the printed rows
//! (see [`display_value`]).
//! Baselines live in `benches/baseline/` and are regenerated with
//! `cargo run -p flexrel-bench --release --bin harness -- <scale> --json
//! benches/baseline`; CI runs `harness <scale> --json <out> --compare
//! benches/baseline` at the same scale and turns red when any experiment's
//! headline moves against its direction by more than the tolerance.

use std::fmt;
use std::path::Path;

/// The fields of one `BENCH_<ID>.json` the gate reads.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportSummary {
    /// The experiment id (`"E12"`, …).
    pub experiment: String,
    /// The harness scale the report was generated at.
    pub scale: usize,
    /// Metric name, when the report carries a headline.
    pub metric: Option<String>,
    /// Headline value.
    pub value: Option<f64>,
    /// Whether larger headline values are better.
    pub higher_is_better: bool,
    /// Whether the headline was marked unmeasurable in its environment.
    pub skipped: bool,
}

/// Extracts the first JSON string value following `"<key>":` — sufficient
/// for the flat, machine-written reports this crate emits (values never
/// contain escaped quotes in the fields the gate reads).
fn string_field(s: &str, key: &str) -> Option<String> {
    let tag = format!("\"{}\": \"", key);
    let start = s.find(&tag)? + tag.len();
    let end = s[start..].find('"')? + start;
    Some(s[start..end].to_string())
}

/// Whether `"<key>": true` appears (the reports only emit boolean fields
/// when they are set).
fn bool_field(s: &str, key: &str) -> bool {
    s.contains(&format!("\"{}\": true", key))
}

/// Extracts the first numeric value following `"<key>":`.
fn number_field(s: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{}\": ", key);
    let start = s.find(&tag)? + tag.len();
    let end = s[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .map(|i| i + start)
        .unwrap_or(s.len());
    s[start..end].parse().ok()
}

/// Parses the gate-relevant fields out of one report document.
pub fn parse_report(s: &str) -> Option<ReportSummary> {
    let experiment = string_field(s, "experiment")?;
    let scale = number_field(s, "scale")? as usize;
    let (metric, value, higher, skipped) = match s.find("\"headline\"") {
        Some(at) => {
            let h = &s[at..];
            // The headline object sits on one line; scoping the skipped
            // probe to it keeps unrelated fields from matching.
            let line = &h[..h.find('\n').unwrap_or(h.len())];
            (
                string_field(h, "metric"),
                number_field(h, "value"),
                string_field(h, "direction").map(|d| d == "higher"),
                bool_field(line, "skipped"),
            )
        }
        None => (None, None, None, false),
    };
    Some(ReportSummary {
        experiment,
        scale,
        metric,
        value,
        higher_is_better: higher.unwrap_or(true),
        skipped,
    })
}

/// The outcome of comparing one experiment's headline.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// The experiment id.
    pub experiment: String,
    /// The headline metric name (from the baseline).
    pub metric: String,
    /// Baseline headline value.
    pub baseline: f64,
    /// Current headline value.
    pub current: f64,
    /// `current / baseline` (guarded against a zero baseline).
    pub ratio: f64,
    /// Whether the movement exceeds the tolerance *against* the metric's
    /// direction.
    pub regressed: bool,
}

/// Renders a headline value for the job log, capping extreme magnitudes at
/// `50.000+` so saturated speedups stay readable.  Display-only: the gate's
/// regression arithmetic always uses the raw values.
pub fn display_value(v: f64) -> String {
    if v > 50.0 {
        "   50.000+".to_string()
    } else {
        format!("{:>10.3}", v)
    }
}

impl fmt::Display for CompareRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<5} {:<32} baseline {}  current {}  ratio {:>6.2}  {}",
            self.experiment,
            self.metric,
            display_value(self.baseline),
            display_value(self.current),
            self.ratio,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// The full gate verdict: per-experiment rows plus structural problems
/// (missing reports, scale mismatches) that fail the gate on their own.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per baseline report with a headline.
    pub rows: Vec<CompareRow>,
    /// Baseline reports skipped because they carry no headline, or because
    /// either side marked its headline unmeasurable (`"skipped": true`).
    pub skipped: Vec<String>,
    /// Structural problems; any entry fails the gate.
    pub problems: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes: no regression and no structural problem.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }
}

/// Compares every `BENCH_*.json` under `baseline_dir` against its
/// counterpart in `current_dir`.  `tolerance` is the allowed fractional
/// movement against the metric's direction (`0.25` = fail beyond 25%).
pub fn compare_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    tolerance: f64,
) -> std::io::Result<Comparison> {
    let mut out = Comparison::default();
    let mut entries: Vec<_> = std::fs::read_dir(baseline_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .unwrap_or(false)
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        out.problems.push(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
        return Ok(out);
    }
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        let base = match std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| parse_report(&s))
        {
            Some(b) => b,
            None => {
                out.problems.push(format!("unparseable baseline {}", name));
                continue;
            }
        };
        let (Some(metric), Some(base_value)) = (base.metric.clone(), base.value) else {
            out.skipped.push(base.experiment.clone());
            continue;
        };
        if base.skipped {
            out.skipped
                .push(format!("{} (baseline headline skipped)", base.experiment));
            continue;
        }
        let cur_path = current_dir.join(&name);
        let cur = match std::fs::read_to_string(&cur_path)
            .ok()
            .and_then(|s| parse_report(&s))
        {
            Some(c) => c,
            None => {
                out.problems
                    .push(format!("missing or unparseable current report {}", name));
                continue;
            }
        };
        if cur.scale != base.scale {
            out.problems.push(format!(
                "{}: scale mismatch (baseline {}, current {}) — rerun the harness at the baseline scale",
                base.experiment, base.scale, cur.scale
            ));
            continue;
        }
        if cur.skipped {
            out.skipped
                .push(format!("{} (current headline skipped)", base.experiment));
            continue;
        }
        let Some(cur_value) = cur.value else {
            out.problems.push(format!(
                "{}: current report has no headline",
                base.experiment
            ));
            continue;
        };
        let ratio = if base_value.abs() < f64::EPSILON {
            1.0
        } else {
            cur_value / base_value
        };
        let regressed = if base.higher_is_better {
            ratio < 1.0 - tolerance
        } else {
            ratio > 1.0 + tolerance
        };
        out.rows.push(CompareRow {
            experiment: base.experiment,
            metric,
            baseline: base_value,
            current: cur_value,
            ratio,
            regressed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    fn write(dir: &Path, id: &str, json: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(format!("BENCH_{}.json", id)), json).unwrap();
    }

    fn report(id: &str, scale: usize, value: f64, higher: bool) -> String {
        let mut t = Table::new(format!("{}: demo", id), &["a"]).with_headline("m", value, higher);
        t.row(["x"]);
        t.to_json(id, scale, 1.0)
    }

    #[test]
    fn parse_round_trips_through_table_json() {
        let r = parse_report(&report("E12", 2000, 3.25, true)).unwrap();
        assert_eq!(r.experiment, "E12");
        assert_eq!(r.scale, 2000);
        assert_eq!(r.metric.as_deref(), Some("m"));
        assert!((r.value.unwrap() - 3.25).abs() < 1e-9);
        assert!(r.higher_is_better);
        let lower = parse_report(&report("E2", 100, 1.5, false)).unwrap();
        assert!(!lower.higher_is_better);
        // No headline → summary without metric.
        let mut t = Table::new("E1: x", &["a"]);
        t.row(["y"]);
        let r = parse_report(&t.to_json("E1", 100, 1.0)).unwrap();
        assert!(r.metric.is_none() && r.value.is_none());
    }

    #[test]
    fn gate_passes_improvements_and_fails_regressions() {
        let tmp = std::env::temp_dir().join(format!("flexrel-compare-{}", std::process::id()));
        let base = tmp.join("base");
        let cur = tmp.join("cur");
        // E12 improves, E13 regresses 50%, E14 within tolerance, E1 has no
        // headline (skipped).
        write(&base, "E12", &report("E12", 2000, 2.0, true));
        write(&cur, "E12", &report("E12", 2000, 4.0, true));
        write(&base, "E13", &report("E13", 2000, 10.0, true));
        write(&cur, "E13", &report("E13", 2000, 5.0, true));
        write(&base, "E14", &report("E14", 2000, 1.0, true));
        write(&cur, "E14", &report("E14", 2000, 0.9, true));
        let mut t = Table::new("E1: x", &["a"]);
        t.row(["y"]);
        write(&base, "E1", &t.to_json("E1", 2000, 1.0));

        let cmp = compare_dirs(&base, &cur, 0.25).unwrap();
        assert_eq!(cmp.skipped, vec!["E1"]);
        assert!(cmp.problems.is_empty(), "{:?}", cmp.problems);
        assert_eq!(cmp.rows.len(), 3);
        let by_id = |id: &str| cmp.rows.iter().find(|r| r.experiment == id).unwrap();
        assert!(!by_id("E12").regressed);
        assert!(by_id("E13").regressed);
        assert!(!by_id("E14").regressed, "10% down is within 25% tolerance");
        assert!(!cmp.passed());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn gate_compares_raw_values_beyond_the_old_display_cap() {
        // Regression test for the saturated-headline blind spot: both
        // sides of this comparison exceed the old 50x emission cap, which
        // used to flatten them to 50.0 == 50.0 and hide a 26x regression.
        // Values are compared raw; the cap survives only in the printed
        // row.
        let tmp = std::env::temp_dir().join(format!("flexrel-compare3-{}", std::process::id()));
        let base = tmp.join("base");
        let cur = tmp.join("cur");
        write(&base, "E13", &report("E13", 2000, 1600.0, true));
        write(&cur, "E13", &report("E13", 2000, 60.0, true));
        let cmp = compare_dirs(&base, &cur, 0.25).unwrap();
        assert_eq!(cmp.rows.len(), 1);
        let row = &cmp.rows[0];
        assert!(
            row.regressed,
            "1600x -> 60x must fail the gate even though both exceed 50x"
        );
        assert!((row.baseline - 1600.0).abs() < 1e-9);
        assert!((row.current - 60.0).abs() < 1e-9);
        assert!(!cmp.passed());
        // Display keeps the cap for readability without touching the math.
        let printed = row.to_string();
        assert!(printed.contains("50.000+"), "{}", printed);
        assert!(printed.contains("REGRESSED"), "{}", printed);
        assert_eq!(display_value(3.5), "     3.500");
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn gate_skips_headlines_marked_unmeasurable() {
        fn skipped_report(id: &str, scale: usize) -> String {
            let mut t =
                Table::new(format!("{}: demo", id), &["a"]).with_skipped_headline("m", true);
            t.row(["x"]);
            t.to_json(id, scale, 1.0)
        }
        let tmp = std::env::temp_dir().join(format!("flexrel-compare4-{}", std::process::id()));
        let base = tmp.join("base");
        let cur = tmp.join("cur");
        // E14 current side skipped (single-CPU runner), E12 baseline side
        // skipped, E13 compared normally.
        write(&base, "E14", &report("E14", 2000, 3.0, true));
        write(&cur, "E14", &skipped_report("E14", 2000));
        write(&base, "E12", &skipped_report("E12", 2000));
        write(&cur, "E12", &report("E12", 2000, 9.0, true));
        write(&base, "E13", &report("E13", 2000, 2.0, true));
        write(&cur, "E13", &report("E13", 2000, 2.0, true));
        let cmp = compare_dirs(&base, &cur, 0.25).unwrap();
        assert!(cmp.problems.is_empty(), "{:?}", cmp.problems);
        assert_eq!(cmp.rows.len(), 1, "only E13 is compared: {:?}", cmp.rows);
        assert_eq!(cmp.rows[0].experiment, "E13");
        assert_eq!(
            cmp.skipped,
            vec![
                "E12 (baseline headline skipped)".to_string(),
                "E14 (current headline skipped)".to_string()
            ]
        );
        assert!(cmp.passed(), "a skipped headline is not a regression");
        // The parser surfaces the flag.
        let r = parse_report(&skipped_report("E14", 2000)).unwrap();
        assert!(r.skipped && r.value == Some(0.0));
        let r = parse_report(&report("E14", 2000, 3.0, true)).unwrap();
        assert!(!r.skipped);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn gate_flags_scale_mismatch_and_missing_reports() {
        let tmp = std::env::temp_dir().join(format!("flexrel-compare2-{}", std::process::id()));
        let base = tmp.join("base");
        let cur = tmp.join("cur");
        write(&base, "E12", &report("E12", 2000, 2.0, true));
        write(&cur, "E12", &report("E12", 500, 2.0, true));
        write(&base, "E13", &report("E13", 2000, 2.0, true));
        let cmp = compare_dirs(&base, &cur, 0.25).unwrap();
        assert_eq!(cmp.problems.len(), 2, "{:?}", cmp.problems);
        assert!(!cmp.passed());
        // A lower-is-better metric regresses upward.
        let base2 = tmp.join("base2");
        let cur2 = tmp.join("cur2");
        write(&base2, "E2", &report("E2", 100, 1.0, false));
        write(&cur2, "E2", &report("E2", 100, 2.0, false));
        let cmp = compare_dirs(&base2, &cur2, 0.25).unwrap();
        assert!(cmp.rows[0].regressed);
        // Empty baseline dir is itself a problem.
        let empty = tmp.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let cmp = compare_dirs(&empty, &cur, 0.25).unwrap();
        assert!(!cmp.passed());
        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
