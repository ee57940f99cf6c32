//! [`ResultTable`]: labelled rows of typed cells, plus the text / CSV /
//! JSON renderers.
//!
//! The text renderer reproduces the fixed-width layout of the paper's
//! figures (per-column width and alignment, a configurable column
//! separator, an optional header row, `key = value` summary lines, and
//! free-text notes), so `all_experiments` keeps printing the familiar
//! reports while tests and scripts consume the typed cells.

use smart_units::{Area, Energy, Frequency, Length, Power, Time};
use std::fmt;

/// Display unit of a [`Value::Quantity`] cell: the scale the cell renders
/// at and the suffix JSON/CSV consumers see. The stored value is always SI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::doc_markdown)]
pub enum Unit {
    /// Picoseconds.
    Ps,
    /// Nanoseconds.
    Ns,
    /// Microseconds.
    Us,
    /// Attojoules.
    Aj,
    /// Femtojoules.
    Fj,
    /// Picojoules.
    Pj,
    /// Joules.
    J,
    /// Nanowatts.
    Nw,
    /// Microwatts.
    Uw,
    /// Milliwatts.
    Mw,
    /// Square millimeters.
    Mm2,
    /// Gigahertz.
    Ghz,
    /// Micrometers.
    Um,
    /// Millimeters.
    Mm,
}

impl Unit {
    /// Display units per SI unit (`display = si * per_si`). A multiplier,
    /// not a divisor, so rendering matches the `smart_units` accessors
    /// (`Time::as_ps` is `si * 1e12`) bit for bit.
    #[must_use]
    pub fn per_si(self) -> f64 {
        match self {
            Self::Ps => 1e12,
            Self::Ns => 1e9,
            Self::Us => 1e6,
            Self::Aj => 1e18,
            Self::Fj => 1e15,
            Self::Pj => 1e12,
            Self::J => 1.0,
            Self::Nw => 1e9,
            Self::Uw => 1e6,
            Self::Mw => 1e3,
            Self::Mm2 => 1e6,
            Self::Ghz => 1e-9,
            Self::Um => 1e6,
            Self::Mm => 1e3,
        }
    }

    /// Display suffix (also the `unit` tag in JSON output).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Self::Ps => "ps",
            Self::Ns => "ns",
            Self::Us => "us",
            Self::Aj => "aJ",
            Self::Fj => "fJ",
            Self::Pj => "pJ",
            Self::J => "J",
            Self::Nw => "nW",
            Self::Uw => "uW",
            Self::Mw => "mW",
            Self::Mm2 => "mm2",
            Self::Ghz => "GHz",
            Self::Um => "um",
            Self::Mm => "mm",
        }
    }
}

/// One typed table cell.
///
/// Numeric variants carry their own display precision so a table can mix
/// scales (a 0.02 ns cycle next to a 315 pJ access) without a per-table
/// format string. [`Value::Quantity`] cells remember their SI value and
/// display [`Unit`], which is what makes the JSON output machine-usable
/// and the finite-check meaningful.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text (labels, annotated addresses).
    Text(String),
    /// An exact count (banks, repeaters, cycles).
    Count(u64),
    /// A flag (e.g. design-point feasibility).
    Bool(bool),
    /// A dimensionless number at fixed precision (speedups, ratios).
    Num {
        /// The number.
        value: f64,
        /// Digits after the decimal point.
        precision: usize,
    },
    /// A dimensionless number in scientific notation.
    Sci {
        /// The number.
        value: f64,
        /// Digits after the decimal point.
        precision: usize,
    },
    /// A fraction rendered as a percentage (`0.161` renders `16.1%`).
    Percent {
        /// The fraction (1.0 = 100%).
        fraction: f64,
        /// Digits after the decimal point.
        precision: usize,
    },
    /// A physical quantity stored in SI, displayed at a [`Unit`] scale.
    Quantity {
        /// SI value (seconds, joules, watts, square meters, hertz,
        /// meters).
        si: f64,
        /// Display scale and JSON unit tag.
        unit: Unit,
        /// Digits after the decimal point.
        precision: usize,
        /// Whether the rendered cell carries the unit suffix (off when the
        /// column header names the unit).
        show_unit: bool,
    },
}

impl Value {
    /// A text cell.
    #[must_use]
    pub fn text(s: impl Into<String>) -> Self {
        Self::Text(s.into())
    }

    /// A count cell.
    #[must_use]
    pub fn count(n: u64) -> Self {
        Self::Count(n)
    }

    /// A dimensionless fixed-precision cell.
    #[must_use]
    pub fn num(value: f64, precision: usize) -> Self {
        Self::Num { value, precision }
    }

    /// A scientific-notation cell.
    #[must_use]
    pub fn sci(value: f64, precision: usize) -> Self {
        Self::Sci { value, precision }
    }

    /// A percentage cell from a fraction (1.0 = 100%).
    #[must_use]
    pub fn percent(fraction: f64, precision: usize) -> Self {
        Self::Percent {
            fraction,
            precision,
        }
    }

    /// A quantity cell from a raw SI value; the suffix is left to the
    /// column header.
    #[must_use]
    pub fn quantity(si: f64, unit: Unit, precision: usize) -> Self {
        Self::Quantity {
            si,
            unit,
            precision,
            show_unit: false,
        }
    }

    /// Turns on the unit suffix of a [`Value::Quantity`] cell; no-op for
    /// other variants.
    #[must_use]
    pub fn with_unit_suffix(mut self) -> Self {
        if let Self::Quantity { show_unit, .. } = &mut self {
            *show_unit = true;
        }
        self
    }

    /// A [`Time`] cell.
    #[must_use]
    pub fn time(t: Time, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Ps | Unit::Ns | Unit::Us));
        Self::quantity(t.as_si(), unit, precision)
    }

    /// An [`Energy`] cell.
    #[must_use]
    pub fn energy(e: Energy, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Aj | Unit::Fj | Unit::Pj | Unit::J));
        Self::quantity(e.as_si(), unit, precision)
    }

    /// A [`Power`] cell.
    #[must_use]
    pub fn power(p: Power, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Nw | Unit::Uw | Unit::Mw));
        Self::quantity(p.as_si(), unit, precision)
    }

    /// An [`Area`] cell.
    #[must_use]
    pub fn area(a: Area, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Mm2));
        Self::quantity(a.as_si(), unit, precision)
    }

    /// A [`Frequency`] cell.
    #[must_use]
    pub fn frequency(f: Frequency, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Ghz));
        Self::quantity(f.as_si(), unit, precision)
    }

    /// A [`Length`] cell.
    #[must_use]
    pub fn length(l: Length, unit: Unit, precision: usize) -> Self {
        debug_assert!(matches!(unit, Unit::Um | Unit::Mm));
        Self::quantity(l.as_si(), unit, precision)
    }

    /// The numeric payload, if any, in its *display* scale (percent cells
    /// report percentage points; quantities report the display-unit value).
    #[must_use]
    pub fn as_display_f64(&self) -> Option<f64> {
        match self {
            Self::Text(_) | Self::Bool(_) => None,
            #[allow(clippy::cast_precision_loss)]
            Self::Count(n) => Some(*n as f64),
            Self::Num { value, .. } | Self::Sci { value, .. } => Some(*value),
            Self::Percent { fraction, .. } => Some(fraction * 100.0),
            Self::Quantity { si, unit, .. } => Some(si * unit.per_si()),
        }
    }

    /// Whether the cell's numeric payload (if any) is finite. Text, count,
    /// and bool cells are trivially finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.as_display_f64().is_none_or(f64::is_finite)
    }

    /// Renders the cell without padding.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Text(s) => s.clone(),
            Self::Count(n) => n.to_string(),
            Self::Bool(b) => b.to_string(),
            Self::Num { value, precision } => format!("{value:.precision$}"),
            Self::Sci { value, precision } => format!("{value:.precision$e}"),
            Self::Percent {
                fraction,
                precision,
            } => format!("{:.precision$}%", fraction * 100.0),
            Self::Quantity {
                si,
                unit,
                precision,
                show_unit,
            } => {
                let v = si * unit.per_si();
                if *show_unit {
                    format!("{v:.precision$} {}", unit.suffix())
                } else {
                    format!("{v:.precision$}")
                }
            }
        }
    }
}

/// Cell alignment within a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left.
    Right,
}

/// A column of a [`ResultTable`]: header label, alignment, minimum width.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Header label (carries the unit when cells omit their suffix).
    pub label: String,
    /// Cell alignment.
    pub align: Align,
    /// Minimum rendered width; longer cells are never truncated.
    pub width: usize,
}

impl ColumnSpec {
    /// A left-aligned column.
    #[must_use]
    pub fn left(label: impl Into<String>, width: usize) -> Self {
        Self {
            label: label.into(),
            align: Align::Left,
            width,
        }
    }

    /// A right-aligned column.
    #[must_use]
    pub fn right(label: impl Into<String>, width: usize) -> Self {
        Self {
            label: label.into(),
            align: Align::Right,
            width,
        }
    }
}

/// A typed experiment result: a titled table of [`Value`] rows plus typed
/// summary lines and free-text notes.
///
/// `Display` renders [`ResultTable::to_text`], so a binary can
/// `print!("{table}")` exactly as it printed the old pre-formatted string.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Experiment name (e.g. `fig18`); the key used by the runner.
    pub name: String,
    /// Human-readable title (the figure/table caption).
    pub title: String,
    /// Column specifications.
    pub columns: Vec<ColumnSpec>,
    /// Data rows; every row has one cell per column.
    pub rows: Vec<Vec<Value>>,
    /// Typed key-value lines rendered after the rows as `key = value`.
    pub summary: Vec<(String, Value)>,
    /// Free-text lines rendered last.
    pub notes: Vec<String>,
    /// Separator between rendered cells (default one space).
    pub column_sep: String,
    /// Whether to render the header row (Fig. 16 has none).
    pub show_header: bool,
}

impl ResultTable {
    /// An empty table with the default single-space separator and a
    /// header.
    #[must_use]
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            summary: Vec::new(),
            notes: Vec::new(),
            column_sep: " ".to_owned(),
            show_header: true,
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count does not match the column count.
    pub fn push_row(&mut self, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "{}: row has {} cells for {} columns",
            self.name,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Appends a `key = value` summary line.
    pub fn push_summary(&mut self, label: impl Into<String>, value: Value) {
        self.summary.push((label.into(), value));
    }

    /// Appends a free-text note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Coordinates (`row`, `column`, rendered value) of every non-finite
    /// numeric cell, including summary lines (reported with `row =
    /// rows.len() + i`). An empty result means the table is safe to
    /// publish.
    #[must_use]
    pub fn non_finite_cells(&self) -> Vec<(usize, usize, String)> {
        let mut bad = Vec::new();
        for (r, row) in self.rows.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if !cell.is_finite() {
                    bad.push((r, c, cell.render()));
                }
            }
        }
        for (i, (label, value)) in self.summary.iter().enumerate() {
            if !value.is_finite() {
                bad.push((
                    self.rows.len() + i,
                    0,
                    format!("{label} = {}", value.render()),
                ));
            }
        }
        bad
    }

    fn pad(cell: &str, spec: &ColumnSpec, last: bool) -> String {
        match spec.align {
            // The final column never grows trailing spaces.
            Align::Left if last => cell.to_owned(),
            Align::Left => format!("{cell:<width$}", width = spec.width),
            Align::Right => format!("{cell:>width$}", width = spec.width),
        }
    }

    /// Renders the fixed-width text report (title, header, rows, summary,
    /// notes), matching the layout of the paper's figure scripts.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let last = self.columns.len().saturating_sub(1);
        if self.show_header && !self.columns.is_empty() {
            let header: Vec<String> = self
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| Self::pad(&c.label, c, i == last))
                .collect();
            out.push_str(header.join(&self.column_sep).trim_end());
            out.push('\n');
        }
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&self.columns)
                .enumerate()
                .map(|(i, (v, c))| Self::pad(&v.render(), c, i == last))
                .collect();
            out.push_str(&cells.join(&self.column_sep));
            out.push('\n');
        }
        for (label, value) in &self.summary {
            out.push_str(&format!("{label} = {}\n", value.render()));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// Renders RFC-4180-style CSV: one header line of column labels, one
    /// line per row. Numeric cells emit their raw payload at full
    /// precision (quantities in SI, percentages as fractions); the JSON
    /// renderer is the one that carries unit tags.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn csv_escape(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        fn csv_cell(v: &Value) -> String {
            match v {
                Value::Text(s) => csv_escape(s),
                Value::Count(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Num { value, .. } | Value::Sci { value, .. } => value.to_string(),
                Value::Percent { fraction, .. } => fraction.to_string(),
                Value::Quantity { si, .. } => si.to_string(),
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_escape(&c.label)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(csv_cell).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON object (hand-rolled, no dependencies):
    /// `{"name", "title", "columns", "rows", "summary", "notes"}`. Typed
    /// cells become `{"si", "unit"}` objects (quantities), plain numbers
    /// (counts, numbers, percent fractions), strings, or booleans;
    /// non-finite numbers become `null` (and are caught beforehand by
    /// [`ResultTable::non_finite_cells`] wherever the runner checks).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"name\":{},", json_string(&self.name)));
        out.push_str(&format!("\"title\":{},", json_string(&self.title)));
        let cols: Vec<String> = self.columns.iter().map(|c| json_string(&c.label)).collect();
        out.push_str(&format!("\"columns\":[{}],", cols.join(",")));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(json_cell).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        out.push_str(&format!("\"rows\":[{}],", rows.join(",")));
        let summary: Vec<String> = self
            .summary
            .iter()
            .map(|(label, value)| {
                format!(
                    "{{\"label\":{},\"value\":{}}}",
                    json_string(label),
                    json_cell(value)
                )
            })
            .collect();
        out.push_str(&format!("\"summary\":[{}],", summary.join(",")));
        let notes: Vec<String> = self.notes.iter().map(|n| json_string(n)).collect();
        out.push_str(&format!("\"notes\":[{}]", notes.join(",")));
        out.push('}');
        out
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_owned()
    }
}

fn json_cell(v: &Value) -> String {
    match v {
        Value::Text(s) => json_string(s),
        Value::Count(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num { value, .. } | Value::Sci { value, .. } => json_number(*value),
        Value::Percent { fraction, .. } => json_number(*fraction),
        Value::Quantity { si, unit, .. } => format!(
            "{{\"si\":{},\"unit\":{}}}",
            json_number(*si),
            json_string(unit.suffix())
        ),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("t", "Title line");
        t.columns = vec![
            ColumnSpec::left("label", 8),
            ColumnSpec::right("num", 10),
            ColumnSpec::right("qty(ps)", 12),
        ];
        t.push_row(vec![
            Value::text("a"),
            Value::num(1.5, 2),
            Value::time(Time::from_ps(103.02), Unit::Ps, 2),
        ]);
        t.push_summary("points", Value::count(1));
        t.push_note("(a note)");
        t
    }

    #[test]
    fn text_layout_matches_figure_style() {
        let t = sample();
        let text = t.to_text();
        // The renderer must reproduce the legacy `write!` column layout.
        let header = format!("{:<8} {:>10} {:>12}", "label", "num", "qty(ps)");
        let row = format!("{:<8} {:>10.2} {:>12.2}", "a", 1.5, 103.02);
        assert_eq!(
            text,
            format!("Title line\n{header}\n{row}\npoints = 1\n(a note)\n")
        );
        assert_eq!(format!("{t}"), text);
    }

    #[test]
    fn right_aligned_percent_matches_legacy_format() {
        // The legacy scripts printed `{:>7.1}%`; a Percent cell
        // right-aligned at width 8 must render identically.
        let p = Value::percent(-0.023, 1);
        assert_eq!(format!("{:>8}", p.render()), format!("{:>7.1}%", -2.3));
    }

    #[test]
    fn csv_escapes_and_emits_si() {
        let mut t = sample();
        t.push_row(vec![
            Value::text("with,comma"),
            Value::percent(0.5, 1),
            Value::quantity(1e-9, Unit::Ps, 2),
        ]);
        let csv = t.to_csv();
        assert!(csv.starts_with("label,num,qty(ps)\n"));
        assert!(csv.contains("\"with,comma\",0.5,0.000000001\n"));
    }

    #[test]
    fn json_is_wellformed_and_typed() {
        let json = sample().to_json();
        assert!(json.contains("\"name\":\"t\""));
        assert!(json.contains("{\"si\":0.000000000103"));
        assert!(json.contains("\"unit\":\"ps\""));
        assert!(json.contains("\"summary\":[{\"label\":\"points\",\"value\":1}]"));
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_cells_are_reported() {
        let mut t = sample();
        t.push_row(vec![
            Value::text("bad"),
            Value::num(f64::NAN, 2),
            Value::quantity(f64::INFINITY, Unit::Ps, 2),
        ]);
        t.push_summary("broken", Value::num(f64::NEG_INFINITY, 1));
        let bad = t.non_finite_cells();
        assert_eq!(bad.len(), 3);
        assert_eq!(bad[0].0, 1);
        assert_eq!(bad[0].1, 1);
        // Non-finite numbers degrade to null in JSON rather than emitting
        // invalid tokens.
        assert!(t.to_json().contains("null"));
        assert!(sample().non_finite_cells().is_empty());
    }

    #[test]
    fn row_width_is_enforced() {
        let mut t = sample();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.push_row(vec![Value::count(1)]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn unit_scales_round_trip() {
        for unit in [
            Unit::Ps,
            Unit::Ns,
            Unit::Aj,
            Unit::Fj,
            Unit::Pj,
            Unit::J,
            Unit::Nw,
            Unit::Uw,
            Unit::Mw,
            Unit::Mm2,
            Unit::Ghz,
            Unit::Um,
            Unit::Mm,
        ] {
            let v = Value::quantity(3.5 / unit.per_si(), unit, 1);
            assert_eq!(v.render(), "3.5");
            assert!(!unit.suffix().is_empty());
        }
    }

    #[test]
    fn headerless_tables_skip_the_header() {
        let mut t = sample();
        t.show_header = false;
        assert!(!t.to_text().contains("label"));
    }
}
