//! Minimal table rendering and JSON emission for the experiment harness.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple text table: a title, a header row and data rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Experiment identifier and description, printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes the table as a machine-readable JSON document together
    /// with run metadata: the experiment id, the harness scale, and the
    /// wall-clock time the experiment took.
    pub fn to_json(&self, experiment: &str, scale: usize, elapsed_ms: f64) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"experiment\": {},\n", json_string(experiment)));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str(&format!("  \"scale\": {},\n", scale));
        out.push_str(&format!("  \"elapsed_ms\": {:.3},\n", elapsed_ms));
        out.push_str(&format!(
            "  \"header\": [{}],\n",
            self.header
                .iter()
                .map(|h| json_string(h))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    [{}]{}\n",
                row.iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(", "),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self.header.len();
        let mut w: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, width) in w.iter_mut().enumerate().take(cols) {
                let len = row.get(c).map(|s| s.len()).unwrap_or(0);
                if len > *width {
                    *width = len;
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = w[i]));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.header)?;
        let total: usize = w.iter().sum::<usize>() + 3 * w.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes one `BENCH_<ID>.json` file per experiment into `dir` and returns
/// the paths written.  `timed` pairs each experiment id with its table and
/// measured wall-clock duration in milliseconds.
pub fn write_json_reports(
    dir: &Path,
    scale: usize,
    timed: &[(&str, Table, f64)],
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::with_capacity(timed.len());
    for (id, table, elapsed_ms) in timed {
        let path = dir.join(format!("BENCH_{}.json", id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(table.to_json(id, scale, *elapsed_ms).as_bytes())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("E0: demo", &["name", "value"]);
        assert!(t.is_empty());
        t.row(["short", "1"]);
        t.row(["a much longer name", "123456"]);
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("== E0: demo =="));
        assert!(s.contains("| name"));
        assert!(s.contains("| a much longer name | 123456 |"));
    }

    #[test]
    fn json_escaping_and_shape() {
        let mut t = Table::new("E0: \"quoted\"\ttitle", &["k", "v"]);
        t.row(["a", "1"]);
        t.row(["b\\c", "2"]);
        let j = t.to_json("E0", 500, 12.5);
        assert!(j.contains("\"experiment\": \"E0\""));
        assert!(j.contains("\"scale\": 500"));
        assert!(j.contains("\"elapsed_ms\": 12.500"));
        assert!(j.contains("\\\"quoted\\\"\\ttitle"));
        assert!(j.contains("[\"a\", \"1\"],"));
        assert!(j.contains("[\"b\\\\c\", \"2\"]"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn write_json_reports_creates_one_file_per_experiment() {
        let dir =
            std::env::temp_dir().join(format!("flexrel-bench-json-test-{}", std::process::id()));
        let mut t = Table::new("E1: demo", &["a"]);
        t.row(["x"]);
        let written =
            write_json_reports(&dir, 100, &[("E1", t.clone(), 1.0), ("E2", t, 2.0)]).unwrap();
        assert_eq!(written.len(), 2);
        assert!(written[0].ends_with("BENCH_E1.json"));
        assert!(written[1].ends_with("BENCH_E2.json"));
        let body = std::fs::read_to_string(&written[1]).unwrap();
        assert!(body.contains("\"experiment\": \"E2\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
