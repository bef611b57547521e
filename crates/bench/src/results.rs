//! Artifacts: the one JSON writer and the one table printer.
//!
//! An experiment returns [`Artifact`]s — a file stem plus any `Serialize`
//! value. The driver writes each as `results/<stem>.json` and prints it:
//! the console table is rendered from the same value tree the file holds,
//! so the two cannot disagree.

use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// Tables longer than this print every k-th row (the file holds them all).
const MAX_TABLE_ROWS: usize = 100;

/// One `results/<stem>.json` file.
pub struct Artifact {
    /// File stem under `results/`.
    pub stem: &'static str,
    /// The pretty-printed JSON the file holds.
    pub json: String,
    value: Value,
}

impl Artifact {
    /// Render `value` as the artifact `stem`.
    pub fn new<T: Serialize>(stem: &'static str, value: &T) -> Artifact {
        let json = serde_json::to_string_pretty(value).expect("result rows serialize");
        Artifact { stem, json, value: value.to_value() }
    }

    /// Write `<dir>/<stem>.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.stem));
        std::fs::write(&path, &self.json)?;
        Ok(path)
    }

    /// Print the artifact: an array of rows as one table; an object as its
    /// scalar fields followed by one table per array-of-rows field.
    pub fn print(&self) {
        match &self.value {
            Value::Object(fields) => {
                println!("\n== {} ==", self.stem);
                for (key, v) in fields.iter().filter(|(_, v)| rows_of(v).is_none()) {
                    println!("{key}: {}", cell(v));
                }
                for (key, v) in fields {
                    if let Some(rows) = rows_of(v) {
                        print_rows(&format!("{}.{key}", self.stem), rows);
                    }
                }
            }
            v => print_rows(self.stem, rows_of(v).unwrap_or(std::slice::from_ref(v))),
        }
    }
}

/// The workspace's `results/` directory.
pub fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `v` as table rows: a non-empty array of objects.
fn rows_of(v: &Value) -> Option<&[Value]> {
    v.as_array().filter(|rows| rows.first().is_some_and(|r| r.as_object().is_some()))
}

fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(x) => format!("{x:.4}"),
        Value::Str(s) => s.clone(),
        Value::Array(items) if items.len() > 12 => format!("[{} items]", items.len()),
        Value::Array(items) => items.iter().map(cell).collect::<Vec<_>>().join(", "),
        Value::Object(_) => "{…}".to_string(),
    }
}

fn fields(row: &Value) -> &[(String, Value)] {
    row.as_object().unwrap_or(&[])
}

fn print_rows(title: &str, rows: &[Value]) {
    let header: Vec<&str> =
        rows.first().map_or(&[][..], fields).iter().map(|(k, _)| k.as_str()).collect();
    let step = rows.len().div_ceil(MAX_TABLE_ROWS).max(1);
    let body: Vec<Vec<String>> = rows
        .iter()
        .step_by(step)
        .map(|row| fields(row).iter().map(|(_, v)| cell(v)).collect())
        .collect();
    print_table(title, &header, &body);
    if step > 1 {
        println!("(every {step}th of {} rows)", rows.len());
    }
}

fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        x: u32,
        theta: f64,
        tags: Vec<String>,
    }

    #[derive(Serialize)]
    struct Report {
        seed: u64,
        rows: Vec<Row>,
    }

    fn rows() -> Vec<Row> {
        vec![Row { x: 7, theta: 0.5, tags: vec!["a".into(), "b".into()] }]
    }

    #[test]
    fn rows_and_reports_print_without_panicking() {
        Artifact::new("demo", &rows()).print();
        Artifact::new("demo", &Report { seed: 1, rows: rows() }).print();
        Artifact::new("demo", &Vec::<Row>::new()).print();
    }

    #[test]
    fn cells_render_scalars_and_lists() {
        let row = rows().remove(0).to_value();
        let cells: Vec<String> = row.as_object().unwrap().iter().map(|(_, v)| cell(v)).collect();
        assert_eq!(cells, ["7", "0.5000", "a, b"]);
    }

    #[test]
    fn written_file_holds_the_artifact_json() {
        let dir = std::env::temp_dir().join(format!("gretel-results-test-{}", std::process::id()));
        let artifact = Artifact::new("unit-test", &rows());
        let path = artifact.write(&dir).expect("write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), artifact.json);
        assert!(artifact.json.contains("\"x\": 7"));
        std::fs::remove_dir_all(dir).ok();
    }
}
