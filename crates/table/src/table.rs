//! Columnar, dictionary-encoded tables.

use crate::{Dictionary, SValue, Schema, TableError, TupleId};

/// One dictionary-encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    dict: Dictionary,
    codes: Vec<u32>,
}

impl Column {
    fn new() -> Self {
        Self {
            dict: Dictionary::new(),
            codes: Vec::new(),
        }
    }

    /// The column's dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Raw codes, one per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The code at `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The decoded string at `row`.
    pub fn value(&self, row: usize) -> &str {
        self.dict.resolve(self.codes[row])
    }

    /// Number of distinct values appearing in the column.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Reassembles a column from a dictionary and pre-encoded codes — the
    /// inverse of reading [`Column::dictionary`] and [`Column::codes`], used
    /// when a persisted column block is loaded back. Every code must be in
    /// the dictionary's range.
    pub fn from_parts(dict: Dictionary, codes: Vec<u32>) -> Result<Self, TableError> {
        let n = dict.len() as u32;
        if let Some(&bad) = codes.iter().find(|&&c| c >= n) {
            return Err(TableError::InvalidParts(format!(
                "code {bad} out of range for a dictionary of {n} values"
            )));
        }
        Ok(Self { dict, codes })
    }
}

/// A dictionary-encoded table: the publisher's private table `T`.
///
/// Rows are persons ([`TupleId`] is the row position); columns follow the
/// [`Schema`]. Construction goes through [`TableBuilder`] (or the CSV loader)
/// so every row is validated against the schema arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The column at schema position `index`.
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// The column for the attribute called `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, TableError> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The sensitive column.
    pub fn sensitive_column(&self) -> &Column {
        &self.columns[self.schema.sensitive_index()]
    }

    /// The sensitive value of tuple `t`.
    #[inline]
    pub fn sensitive_value(&self, t: TupleId) -> SValue {
        SValue(self.sensitive_column().code(t.index()))
    }

    /// The decoded string value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> &str {
        self.columns[col].value(row)
    }

    /// Cardinality of the sensitive domain as observed in the table.
    pub fn sensitive_cardinality(&self) -> usize {
        self.sensitive_column().cardinality()
    }

    /// Iterates over all tuple ids `t0..t(n-1)`.
    pub fn tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.n_rows as u32).map(TupleId)
    }

    /// Decodes an entire row into owned strings (for display / export).
    pub fn row(&self, row: usize) -> Vec<String> {
        self.columns
            .iter()
            .map(|c| c.value(row).to_owned())
            .collect()
    }

    /// Looks up the sensitive-domain code for a value string.
    pub fn sensitive_code(&self, value: &str) -> Option<SValue> {
        self.sensitive_column().dictionary().code(value).map(SValue)
    }

    /// Reassembles a table from a schema and pre-encoded columns — the
    /// inverse of reading the accessors, used when a persisted table is
    /// loaded back. The column count must match the schema arity and every
    /// column must have the same number of rows; the result is `==` to the
    /// table the parts were read from.
    pub fn from_parts(schema: Schema, columns: Vec<Column>) -> Result<Self, TableError> {
        if columns.len() != schema.arity() {
            return Err(TableError::InvalidParts(format!(
                "{} columns for a schema of arity {}",
                columns.len(),
                schema.arity()
            )));
        }
        let n_rows = columns.first().map_or(0, |c| c.codes.len());
        if let Some((i, c)) = columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.codes.len() != n_rows)
        {
            return Err(TableError::InvalidParts(format!(
                "column {i} has {} rows, expected {n_rows}",
                c.codes.len()
            )));
        }
        Ok(Self {
            schema,
            columns,
            n_rows,
        })
    }
}

/// Incremental [`Table`] constructor.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl TableBuilder {
    /// Starts a builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.arity()).map(|_| Column::new()).collect();
        Self {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// Appends one row of string fields; the arity must match the schema.
    pub fn push_row<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<TupleId, TableError> {
        if fields.len() != self.schema.arity() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.arity(),
                found: fields.len(),
                row: self.n_rows,
            });
        }
        for (col, field) in self.columns.iter_mut().zip(fields) {
            let code = col.dict.intern(field.as_ref());
            col.codes.push(code);
        }
        let id = TupleId(self.n_rows as u32);
        self.n_rows += 1;
        Ok(id)
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The schema this builder validates rows against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Finishes construction.
    pub fn build(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            n_rows: self.n_rows,
        }
    }
}

/// Default number of rows per code chunk in [`ChunkedTableBuilder`] —
/// matches the roll-up scan's chunk granularity so a streamed-in table is
/// already blocked the way the scanner will read it.
pub const DEFAULT_BUILDER_CHUNK_ROWS: usize = 65_536;

/// One column under chunked construction: the dictionary plus sealed
/// fixed-size code blocks. Once a block fills it is never touched again —
/// unlike a single growing `Vec<u32>`, no realloc ever re-copies codes that
/// are already encoded.
#[derive(Debug)]
struct ChunkedCodes {
    dict: Dictionary,
    chunks: Vec<Vec<u32>>,
}

impl ChunkedCodes {
    fn push(&mut self, code: u32, chunk_rows: usize) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk_rows => chunk.push(code),
            _ => {
                let mut chunk = Vec::with_capacity(chunk_rows);
                chunk.push(code);
                self.chunks.push(chunk);
            }
        }
    }
}

/// Streaming [`Table`] constructor: rows are dictionary-encoded into
/// fixed-size per-column code blocks **as they arrive**, so callers reading
/// from a wire or a file never materialize the decoded rows (no
/// `Vec<Vec<String>>` staging) and the already-encoded codes are never
/// re-copied by `Vec` growth. [`ChunkedTableBuilder::build`] assembles the
/// blocks into contiguous columns with one exact-capacity pass; the result
/// is **identical** (`==`) to pushing the same rows through
/// [`TableBuilder`].
#[derive(Debug)]
pub struct ChunkedTableBuilder {
    schema: Schema,
    columns: Vec<ChunkedCodes>,
    chunk_rows: usize,
    n_rows: usize,
}

impl ChunkedTableBuilder {
    /// Starts a chunked builder for `schema` with the default block size
    /// ([`DEFAULT_BUILDER_CHUNK_ROWS`]).
    pub fn new(schema: Schema) -> Self {
        Self::with_chunk_rows(schema, DEFAULT_BUILDER_CHUNK_ROWS)
    }

    /// Starts a chunked builder with an explicit rows-per-block size
    /// (`0` is treated as `1`). The block size only shapes memory traffic;
    /// the built table never depends on it.
    pub fn with_chunk_rows(schema: Schema, chunk_rows: usize) -> Self {
        let columns = (0..schema.arity())
            .map(|_| ChunkedCodes {
                dict: Dictionary::new(),
                chunks: Vec::new(),
            })
            .collect();
        Self {
            schema,
            columns,
            chunk_rows: chunk_rows.max(1),
            n_rows: 0,
        }
    }

    /// Appends one row of string fields; the arity must match the schema.
    pub fn push_row<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<TupleId, TableError> {
        if fields.len() != self.schema.arity() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.arity(),
                found: fields.len(),
                row: self.n_rows,
            });
        }
        for (col, field) in self.columns.iter_mut().zip(fields) {
            let code = col.dict.intern(field.as_ref());
            col.push(code, self.chunk_rows);
        }
        let id = TupleId(self.n_rows as u32);
        self.n_rows += 1;
        Ok(id)
    }

    /// Appends one row of CSV fields, each trimmed (Unicode `str::trim`):
    /// the row encodes exactly as [`push_row`](Self::push_row) of the
    /// trimmed strings would, without collecting them first. The arity must
    /// match the schema; on error the builder is unchanged.
    pub fn push_fields<'f, I>(&mut self, fields: I) -> Result<TupleId, TableError>
    where
        I: IntoIterator<Item = &'f str>,
        I::IntoIter: ExactSizeIterator,
    {
        let fields = fields.into_iter();
        if fields.len() != self.schema.arity() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.arity(),
                found: fields.len(),
                row: self.n_rows,
            });
        }
        for (col, field) in self.columns.iter_mut().zip(fields) {
            let code = col.dict.intern(field.trim());
            col.push(code, self.chunk_rows);
        }
        let id = TupleId(self.n_rows as u32);
        self.n_rows += 1;
        Ok(id)
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The schema this builder validates rows against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Assembles the sealed blocks into contiguous columns (one
    /// exact-capacity linear pass per column) and finishes construction.
    pub fn build(self) -> Table {
        let n_rows = self.n_rows;
        let columns = self
            .columns
            .into_iter()
            .map(|col| {
                let mut codes = Vec::with_capacity(n_rows);
                for chunk in &col.chunks {
                    codes.extend_from_slice(chunk);
                }
                Column {
                    dict: col.dict,
                    codes,
                }
            })
            .collect();
        Table {
            schema: self.schema,
            columns,
            n_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, AttributeKind};

    fn demo_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Age", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(&["23", "Flu"]).unwrap();
        b.push_row(&["24", "Flu"]).unwrap();
        b.push_row(&["25", "Cancer"]).unwrap();
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_tuple_ids() {
        let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
        let mut b = TableBuilder::new(schema);
        assert_eq!(b.push_row(&["x"]).unwrap(), TupleId(0));
        assert_eq!(b.push_row(&["y"]).unwrap(), TupleId(1));
        assert_eq!(b.n_rows(), 2);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
        let mut b = TableBuilder::new(schema);
        let err = b.push_row(&["a", "b"]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { .. }));
    }

    #[test]
    fn values_decode_back() {
        let t = demo_table();
        assert_eq!(t.value(0, 0), "23");
        assert_eq!(t.value(2, 1), "Cancer");
        assert_eq!(t.row(1), vec!["24".to_owned(), "Flu".to_owned()]);
    }

    #[test]
    fn sensitive_accessors() {
        let t = demo_table();
        assert_eq!(t.sensitive_cardinality(), 2);
        assert_eq!(t.sensitive_value(TupleId(0)), t.sensitive_value(TupleId(1)));
        assert_ne!(t.sensitive_value(TupleId(0)), t.sensitive_value(TupleId(2)));
        assert_eq!(t.sensitive_code("Flu"), Some(t.sensitive_value(TupleId(0))));
        assert_eq!(t.sensitive_code("Plague"), None);
    }

    #[test]
    fn shared_codes_for_equal_values() {
        let t = demo_table();
        let disease = t.column_by_name("Disease").unwrap();
        assert_eq!(disease.code(0), disease.code(1));
        assert_eq!(disease.cardinality(), 2);
    }

    #[test]
    fn tuple_ids_enumerates_all_rows() {
        let t = demo_table();
        let ids: Vec<_> = t.tuple_ids().collect();
        assert_eq!(ids, vec![TupleId(0), TupleId(1), TupleId(2)]);
    }

    #[test]
    fn empty_table_properties() {
        let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
        let t = TableBuilder::new(schema).build();
        assert!(t.is_empty());
        assert_eq!(t.sensitive_cardinality(), 0);
    }

    /// The chunked builder is bit-identical to the row builder for the same
    /// input, at every block size — including sizes that split the stream
    /// mid-column and the degenerate `0` (treated as 1).
    #[test]
    fn chunked_builder_matches_row_builder_across_chunk_sizes() {
        let schema = Schema::new(vec![
            Attribute::new("Age", AttributeKind::QuasiIdentifier),
            Attribute::new("Zip", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let rows: Vec<[String; 3]> = (0..157)
            .map(|i| {
                [
                    format!("{}", 20 + i % 7),
                    format!("53{}", i % 11),
                    format!("D{}", i % 5),
                ]
            })
            .collect();
        let mut reference = TableBuilder::new(schema.clone());
        for row in &rows {
            reference.push_row(row).unwrap();
        }
        let reference = reference.build();
        for chunk_rows in [0, 1, 2, 3, 7, 64, 157, 1000] {
            let mut b = ChunkedTableBuilder::with_chunk_rows(schema.clone(), chunk_rows);
            for row in &rows {
                b.push_row(row).unwrap();
            }
            assert_eq!(b.n_rows(), rows.len());
            assert_eq!(b.build(), reference, "chunk_rows={chunk_rows}");
        }
    }

    /// Fields encode as their trimmed strings would, in first-seen order,
    /// and a rejected row leaves no trace in the dictionaries.
    #[test]
    fn push_fields_trims_like_push_row_and_rejects_rows_atomically() {
        let schema = Schema::new(vec![
            Attribute::new("Age", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut fields = ChunkedTableBuilder::new(schema.clone());
        let mut strings = TableBuilder::new(schema);
        for row in [
            ["23", "Flu"],
            [" 23", "Flu\u{a0}"],
            ["24 ", " Cold"],
            ["23", "Cold"],
        ] {
            fields.push_fields(row).unwrap();
            strings.push_row(&row.map(str::trim)).unwrap();
        }
        let short = fields.push_fields(["98"]).unwrap_err();
        assert!(matches!(short, TableError::ArityMismatch { row: 4, .. }));
        assert_eq!(fields.build(), strings.build());
    }

    #[test]
    fn chunked_builder_rejects_arity_mismatch() {
        let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
        let mut b = ChunkedTableBuilder::new(schema);
        assert_eq!(b.push_row(&["x"]).unwrap(), TupleId(0));
        let err = b.push_row(&["a", "b"]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { .. }));
        assert!(b.build().n_rows() == 1);
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let t = demo_table();
        // Disassemble into (dictionary, codes) parts and reassemble.
        let columns: Vec<Column> = (0..t.schema().arity())
            .map(|i| {
                let c = t.column(i);
                Column::from_parts(c.dictionary().clone(), c.codes().to_vec()).unwrap()
            })
            .collect();
        let rebuilt = Table::from_parts(t.schema().clone(), columns).unwrap();
        assert_eq!(rebuilt, t);

        // Out-of-range code.
        let bad = Column::from_parts(Dictionary::from_values(["a"]), vec![0, 1]);
        assert!(matches!(bad, Err(TableError::InvalidParts(_))));
        // Arity mismatch.
        let bad = Table::from_parts(t.schema().clone(), Vec::new());
        assert!(matches!(bad, Err(TableError::InvalidParts(_))));
        // Ragged columns.
        let c0 = Column::from_parts(Dictionary::from_values(["x"]), vec![0, 0]).unwrap();
        let c1 = Column::from_parts(Dictionary::from_values(["y"]), vec![0]).unwrap();
        let bad = Table::from_parts(t.schema().clone(), vec![c0, c1]);
        assert!(matches!(bad, Err(TableError::InvalidParts(_))));
    }

    #[test]
    fn chunked_builder_empty_build() {
        let schema = Schema::new(vec![Attribute::new("D", AttributeKind::Sensitive)]).unwrap();
        let t = ChunkedTableBuilder::new(schema).build();
        assert!(t.is_empty());
    }
}
