//! A minimal aligned text-table renderer for figure output.

use std::fmt::Write as _;

/// An aligned text table: a header row plus data rows, rendered with
/// column padding — the output format of the `figures` binary.
///
/// # Example
///
/// ```
/// use ssr_bench::Table;
///
/// let mut t = Table::new(["alpha", "reduction"]);
/// t.row(["1.6", "0.73"]);
/// let s = t.render();
/// assert!(s.contains("alpha"));
/// assert!(s.contains("0.73"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a data row; short rows are padded with empty cells.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

}

/// Formats a float with 3 decimal places (the tables' numeric style).
pub fn num(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float as a percentage with 1 decimal place.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "long-header"]);
        t.row(["xxxxx", "1"]);
        t.row(["y", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a      long-header"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxx  1"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.render(), "a  b  c\n-------\n1\n");
    }

    #[test]
    fn truncates_long_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2", "3"]);
        let s = t.render();
        assert!(!s.contains('2'));
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(num(1.23456), "1.235");
        assert_eq!(pct(0.731), "73.1%");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(["only"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }
}
