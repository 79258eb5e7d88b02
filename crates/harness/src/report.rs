//! Plain-text table rendering and CSV output shared by all experiment reports.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use plic3_harness::report::TextTable;
/// let mut t = TextTable::new(vec!["name".into(), "value".into()]);
/// t.add_row(vec!["answer".into(), "42".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("answer"));
/// assert!(rendered.contains("42"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header plus rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_line(&self.header));
        for row in &self.rows {
            out.push_str(&csv_line(row));
        }
        out
    }
}

/// Escapes one CSV line.
fn csv_line(cells: &[String]) -> String {
    let escaped: Vec<String> = cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect();
    format!("{}\n", escaped.join(","))
}

/// Formats an optional rate as a percentage with two decimals (`n/a` if absent).
pub fn percent(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.2}%", 100.0 * r),
        None => "n/a".to_string(),
    }
}

/// Formats a duration in seconds with millisecond resolution.
pub fn seconds(seconds: f64) -> String {
    format!("{seconds:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxxx".into(), "1".into()]);
        t.add_row(vec!["y".into(), "22".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn add_row_checks_width() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(
            csv_line(&["a,b".into(), "c\"d".into()]),
            "\"a,b\",\"c\"\"d\"\n"
        );
        assert_eq!(csv_line(&["plain".into()]), "plain\n");
        let mut t = TextTable::new(vec!["h".into()]);
        t.add_row(vec!["v".into()]);
        assert_eq!(t.to_csv(), "h\nv\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(Some(0.1234)), "12.34%");
        assert_eq!(percent(None), "n/a");
        assert_eq!(seconds(1.23456), "1.235");
    }
}
