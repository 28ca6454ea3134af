//! Result series, CSV and markdown emission.

use std::io::Write as _;
use std::path::Path;

/// One line in a figure: a named series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (e.g. `"RP"`, `"DDDS"`, `"rwlock"`).
    pub name: String,
    /// `(x, y)` points, typically `(reader threads, Mlookups/s)`.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value recorded for a given x, if any.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < f64::EPSILON)
            .map(|(_, y)| *y)
    }
}

/// A figure reproduction: a titled collection of series over a shared x
/// axis.
#[derive(Debug, Clone)]
pub struct Report {
    /// Figure title (matches the paper's figure caption).
    pub title: String,
    /// Label of the x axis (e.g. "reader threads").
    pub x_label: String,
    /// Label of the y axis (e.g. "lookups/second (millions)").
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Report {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// All distinct x values, sorted.
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x values"));
        xs.dedup_by(|a, b| (*a - *b).abs() < f64::EPSILON);
        xs
    }

    /// Renders the report as a markdown table (one row per x value, one
    /// column per series).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.name));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&format!("| {x} |"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(" {y:.2} |")),
                    None => out.push_str(" — |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Renders the report as CSV (`x,<series...>` header then one row per x).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(' ', "_"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name.replace(' ', "_"));
        }
        out.push('\n');
        for x in self.x_values() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(",{y:.4}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes `<stem>.csv` and `<stem>.md` into `dir` (creating it if
    /// needed) and returns the CSV path. The markdown opens with
    /// `provenance` — one line saying where and how the numbers were taken
    /// (host, CPU count, parameters, commit) — so the table cannot be
    /// quoted without it.
    pub fn write_files(
        &self,
        dir: &Path,
        stem: &str,
        provenance: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let csv_path = dir.join(format!("{stem}.csv"));
        let mut csv = std::fs::File::create(&csv_path)?;
        csv.write_all(self.to_csv().as_bytes())?;
        let md_path = dir.join(format!("{stem}.md"));
        let mut md = std::fs::File::create(md_path)?;
        md.write_all(format!("{provenance}\n\n{}", self.to_markdown()).as_bytes())?;
        Ok(csv_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new("Figure X", "reader threads", "Mlookups/s");
        let mut rp = Series::new("RP");
        rp.push(1.0, 10.0);
        rp.push(2.0, 20.0);
        let mut rw = Series::new("rwlock");
        rw.push(1.0, 9.0);
        rw.push(2.0, 8.5);
        r.add_series(rp);
        r.add_series(rw);
        r
    }

    #[test]
    fn x_values_are_sorted_and_deduped() {
        let r = sample_report();
        assert_eq!(r.x_values(), vec![1.0, 2.0]);
    }

    #[test]
    fn markdown_contains_all_series_and_rows() {
        let md = sample_report().to_markdown();
        assert!(md.contains("| reader threads | RP | rwlock |"));
        assert!(md.contains("| 1 | 10.00 | 9.00 |"));
        assert!(md.contains("| 2 | 20.00 | 8.50 |"));
    }

    #[test]
    fn csv_round_trips_values() {
        let csv = sample_report().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("reader_threads,RP,rwlock"));
        assert_eq!(lines.next(), Some("1,10.0000,9.0000"));
        assert_eq!(lines.next(), Some("2,20.0000,8.5000"));
    }

    #[test]
    fn missing_points_render_as_blanks() {
        let mut r = Report::new("t", "x", "y");
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 2.0);
        r.add_series(a);
        r.add_series(b);
        let md = r.to_markdown();
        assert!(md.contains("| 1 | 1.00 | — |"));
        assert!(md.contains("| 2 | — | 2.00 |"));
    }

    #[test]
    fn write_files_creates_csv_and_md() {
        let dir = std::env::temp_dir().join(format!("rp-report-test-{}", std::process::id()));
        let csv = sample_report()
            .write_files(&dir, "fig_x", "Host: test with 2 logical CPUs.")
            .unwrap();
        assert!(csv.exists());
        let md = std::fs::read_to_string(dir.join("fig_x.md")).unwrap();
        assert!(md.starts_with("Host: test with 2 logical CPUs.\n\n### Figure X\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
