//! One measured cell, declared field by field, rendered two ways.

use midway_stats::{fmt_f64, TextTable};

use crate::json::Json;

/// A cell of a sweep (or a row of a figure): every field is declared once
/// — its JSON key and value, its table column and text — and the record
/// renders both the [`TextTable`] row and the JSON object, so the two can
/// never disagree about what was measured. A field may live on one side
/// only ([`Record::json`], [`Record::col`]); a quantity the two sides
/// report in different units (bytes and KB, a CLI name and a label) is a
/// `json` line followed by its `col` line.
#[derive(Clone, Debug, Default)]
pub struct Record {
    json: Vec<(&'static str, Json)>,
    cols: Vec<(String, String)>,
}

impl Record {
    /// A field on both sides: `value` under `key` in the JSON object,
    /// `text` under `col` in the table.
    pub fn field(self, key: &'static str, col: &str, value: Json, text: impl Into<String>) -> Self {
        self.json(key, value).col(col, text)
    }

    /// A field only the JSON object carries.
    pub fn json(mut self, key: &'static str, value: Json) -> Self {
        self.json.push((key, value));
        self
    }

    /// A column only the table shows.
    pub fn col(mut self, col: &str, text: impl Into<String>) -> Self {
        self.cols.push((col.to_string(), text.into()));
        self
    }

    /// A string field, the same on both sides.
    pub fn text(self, key: &'static str, col: &str, s: &str) -> Self {
        self.field(key, col, Json::str(s), s)
    }

    /// An integer field, printed as is.
    pub fn u64(self, key: &'static str, col: &str, n: u64) -> Self {
        self.field(key, col, Json::U64(n), n.to_string())
    }

    /// A float field, printed to `decimals` places.
    pub fn f64(self, key: &'static str, col: &str, v: f64, decimals: usize) -> Self {
        self.field(key, col, Json::F64(v), fmt_f64(v, decimals))
    }

    /// The JSON array of `records`: one object each, every keyed field in
    /// declaration order.
    pub fn array(records: &[Record]) -> Json {
        Json::arr(records.iter().map(|r| Json::obj(r.json.iter().cloned())))
    }

    /// The table of `records` (headers from the first), the leftmost
    /// `left_cols` columns left-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn table(records: &[Record], left_cols: usize) -> TextTable {
        let headers: Vec<&str> = records[0].cols.iter().map(|(c, _)| c.as_str()).collect();
        let mut t = TextTable::new(&headers).left_cols(left_cols);
        for r in records {
            t.row(&r.cols.iter().map(|(_, text)| text).collect::<Vec<_>>());
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_declaration_renders_the_row_and_the_object() {
        let cell = |backend: &str, loss: u64, ms: f64| {
            Record::default()
                .text("backend", "system", backend)
                .json("loss_ppm", Json::U64(loss))
                .col("loss (%)", fmt_f64(loss as f64 / 10_000.0, 2))
                .f64("finish_ms", "finish (ms)", ms, 1)
                .json("baseline_ms", Json::F64(20.0))
                .field(
                    "slowdown",
                    "x",
                    Json::F64(ms / 20.0),
                    format!("{:.2}x", ms / 20.0),
                )
                .u64("acks", "acks", 7)
        };
        let records = [cell("rt", 0, 21.26), cell("vm", 10_000, 1234.5)];

        let want = Json::obj([
            ("backend", Json::str("vm")),
            ("loss_ppm", Json::U64(10_000)),
            ("finish_ms", Json::F64(1234.5)),
            ("baseline_ms", Json::F64(20.0)),
            ("slowdown", Json::F64(1234.5 / 20.0)),
            ("acks", Json::U64(7)),
        ]);
        assert_eq!(Record::array(&records).items()[1], want);

        let t = Record::table(&records, 1);
        assert_eq!(
            t.headers(),
            ["system", "loss (%)", "finish (ms)", "x", "acks"]
        );
        let rows: Vec<&[String]> = t.data_rows().collect();
        assert_eq!(rows[0], ["rt", "0.00", "21.3", "1.06x", "7"]);
        assert_eq!(rows[1], ["vm", "1.00", "1,234.5", "61.73x", "7"]);
    }
}
