//! Minimal markdown table rendering for experiment output.

/// A markdown table under construction.
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let body = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ");
            format!("| {body} |\n")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a nanosecond figure compactly.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Formats a median with its interquartile range in `unit`'s format
/// (`"47.1 ns ±1.2 ns"`). A negative median, a derived difference lost in
/// noise, is flagged `(neg)`, never clamped.
pub fn fmt_iqr(median: f64, iqr: f64, unit: fn(f64) -> String) -> String {
    let neg = if median < 0.0 { " (neg)" } else { "" };
    format!("{} ±{}{neg}", unit(median), unit(iqr))
}

/// Formats an operations-per-second figure compactly.
pub fn fmt_ops(ops: f64) -> String {
    if ops >= 1e6 {
        format!("{:.2} Mops/s", ops / 1e6)
    } else if ops >= 1e3 {
        format!("{:.1} Kops/s", ops / 1e3)
    } else {
        format!("{ops:.0} ops/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["a", "bbbb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let r = t.render();
        assert!(r.starts_with("| a   | bbbb |\n"));
        assert!(r.contains("| --- | ---- |\n"));
        assert!(r.ends_with("| 333 | 4    |\n"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(4321.0), "4.32 us");
        assert_eq!(fmt_ns(7_654_321.0), "7.65 ms");
        assert_eq!(fmt_ops(2_500_000.0), "2.50 Mops/s");
        assert_eq!(fmt_ops(1_500.0), "1.5 Kops/s");
        assert_eq!(fmt_ops(42.0), "42 ops/s");
        assert_eq!(fmt_iqr(47.14, 1.2, fmt_ns), "47.1 ns ±1.2 ns");
        assert_eq!(fmt_iqr(-2.0, 1.5, fmt_ns), "-2.0 ns ±1.5 ns (neg)");
    }
}
