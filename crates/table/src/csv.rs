//! Minimal RFC-4180 CSV reader/writer.
//!
//! The sanctioned dependency set does not include a CSV crate, so this module
//! implements the subset needed by the workspace: quoted fields, embedded
//! separators/quotes/newlines, CR/LF handling, and streaming record reads.
//!
//! Every reader here runs on **one tokenizer over borrowed bytes**:
//!
//! * a record ends at the first `\n` preceded (within the record) by an even
//!   number of `"` bytes, so a quoted field may span physical lines;
//! * one `\r` before that `\n` is dropped, and blank records are skipped;
//! * at end of input, a final line without a newline is still a record;
//! * fields are slices of the input, except quoted fields holding `""`
//!   escapes, which are unescaped into one reused scratch buffer;
//! * each record is UTF-8-validated once, as a whole, so fields are `&str`.
//!
//! A record without quotes is split in a single pass; one with quotes takes
//! a boundary scan, then a split. Quote parity is carried across
//! [`push`](RecordSplitter::push)es and the carry buffer is compacted
//! lazily, so every input byte is scanned a bounded number of times however
//! the input is chunked. [`TableDecoder`] feeds the borrowed fields straight
//! into [`ChunkedTableBuilder::push_fields`]; [`CsvReader`],
//! [`RecordSplitter`] and [`read_table`] are thin adapters over the same
//! code.

use std::io::{BufRead, ErrorKind, Write};

use crate::{ChunkedTableBuilder, Schema, Table, TableError};

/// Where a field's bytes live: a range of the input, or of the tokenizer's
/// scratch buffer when the field was quoted with `""` escapes.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    unescaped: bool,
}

impl Span {
    fn slice<'a>(self, input: &'a [u8], scratch: &'a [u8]) -> &'a [u8] {
        let source = if self.unescaped { scratch } else { input };
        &source[self.start..self.end]
    }
}

/// One complete CSV record, UTF-8-validated as a whole, its fields borrowed
/// from the input (and from the tokenizer's scratch buffer for unescaped
/// quoted fields). Fields are untrimmed.
#[derive(Debug, Clone, Copy)]
struct Record<'a> {
    /// The record's text: the input from its first byte to its terminator.
    text: &'a str,
    /// Input offset of `text`, which input-relative spans are rebased by.
    base: usize,
    scratch: &'a str,
    spans: &'a [Span],
    line: usize,
}

impl<'a> Record<'a> {
    /// The fields in order. Every span starts and ends next to an ASCII
    /// delimiter or quote (or at the record's ends), so each is a slice
    /// at char boundaries.
    fn fields(self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let Record {
            text,
            base,
            scratch,
            ..
        } = self;
        self.spans.iter().map(move |s| {
            if s.unescaped {
                &scratch[s.start..s.end]
            } else {
                &text[s.start - base..s.end - base]
            }
        })
    }

    /// The fields as owned strings (untrimmed).
    fn to_strings(self) -> Vec<String> {
        self.fields().map(str::to_owned).collect()
    }
}

/// The CSV tokenizer: cursor state over an input buffer that the caller
/// owns (and may extend between calls, keeping what is already there).
#[derive(Debug)]
struct Tokenizer {
    delimiter: u8,
    /// First byte of the record being scanned.
    start: usize,
    /// Where the record-boundary scan resumes.
    scan: usize,
    /// Whether `input[start..scan]` holds an odd number of quotes — the
    /// record then continues past the next `\n`.
    open: bool,
    /// Physical lines consumed so far.
    line: usize,
    /// Input range of the last record [`advance`](Self::advance) completed,
    /// its terminator excluded.
    record_start: usize,
    record_end: usize,
    /// Fields of that record.
    spans: Vec<Span>,
    scratch: Vec<u8>,
}

impl Tokenizer {
    fn new(delimiter: u8) -> Self {
        Self {
            delimiter,
            start: 0,
            scan: 0,
            open: false,
            line: 0,
            record_start: 0,
            record_end: 0,
            spans: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Moves to the next record in `input`: `Ok(true)` when one is ready
    /// for [`record`](Self::record), `Ok(false)` when `input` holds no
    /// complete record — extend it, or pass `eof` to take a final line
    /// that has no newline. A malformed record is consumed and reported.
    fn advance(&mut self, input: &[u8], eof: bool) -> Result<bool, TableError> {
        loop {
            if self.scan == self.start {
                match self.split_plain(input) {
                    Some(true) => return Ok(true),
                    Some(false) => continue,
                    None => {}
                }
            }
            let end = match self.find_end(input) {
                Some(newline) => newline,
                None if !eof || self.start == input.len() => return Ok(false),
                None => {
                    // Bytes after the last newline are one more line; a
                    // final newline can only be pending inside a quote.
                    if input.last() != Some(&b'\n') {
                        self.line += 1;
                    }
                    if self.open {
                        self.start = input.len();
                        self.open = false;
                        return Err(self.error("unterminated quoted field at end of input"));
                    }
                    input.len()
                }
            };
            let start = std::mem::replace(&mut self.start, (end + 1).min(input.len()));
            self.scan = self.start;
            let mut record = &input[start..end];
            if let [head @ .., b'\r'] = record {
                record = head;
            }
            if !record.is_empty() {
                let end = start + record.len();
                (self.record_start, self.record_end) = (start, end);
                return self.split(input, start, end).map(|()| true);
            }
        }
    }

    /// The record the last successful [`advance`](Self::advance) completed.
    /// It is validated as UTF-8 once, as a whole: a record is valid exactly
    /// when each of its fields is, since fields are separated by ASCII
    /// bytes. An invalid one is the CSV "invalid UTF-8" error at its line.
    fn record<'a>(&'a self, input: &'a [u8]) -> Result<Record<'a>, TableError> {
        let invalid = |_| TableError::invalid_utf8(self.line);
        Ok(Record {
            text: std::str::from_utf8(&input[self.record_start..self.record_end])
                .map_err(invalid)?,
            base: self.record_start,
            scratch: std::str::from_utf8(&self.scratch).map_err(invalid)?,
            spans: &self.spans,
            line: self.line,
        })
    }

    /// The single-pass path for a fresh record without quotes: splits it
    /// at delimiters up to its `\n`. `Some(false)` when that line was
    /// blank; `None`, with nothing consumed, when the record holds a quote
    /// or the input ends first — then the boundary scan and
    /// [`split`](Self::split) take it.
    fn split_plain(&mut self, input: &[u8]) -> Option<bool> {
        self.spans.clear();
        let mut field = self.start;
        for i in self.start..input.len() {
            match input[i] {
                b'"' => return None,
                b'\n' => {
                    let end = if i > self.start && input[i - 1] == b'\r' {
                        i - 1
                    } else {
                        i
                    };
                    let blank = end == self.start;
                    (self.record_start, self.record_end) = (self.start, end);
                    self.line += 1;
                    self.start = i + 1;
                    self.scan = self.start;
                    if !blank {
                        self.spans.push(Span {
                            start: field,
                            end,
                            unescaped: false,
                        });
                    }
                    return Some(!blank);
                }
                b if b == self.delimiter => {
                    self.spans.push(Span {
                        start: field,
                        end: i,
                        unescaped: false,
                    });
                    field = i + 1;
                }
                _ => {}
            }
        }
        None
    }

    /// Scans from `scan` for the `\n` that ends the current record, carrying
    /// quote parity; `None` (with the whole input scanned) if there is none.
    fn find_end(&mut self, input: &[u8]) -> Option<usize> {
        while let Some(offset) = input[self.scan..].iter().position(|&b| b == b'\n') {
            let newline = self.scan + offset;
            self.open ^= odd_quotes(&input[self.scan..newline]);
            self.scan = newline + 1;
            self.line += 1;
            if !self.open {
                return Some(newline);
            }
        }
        self.open ^= odd_quotes(&input[self.scan..]);
        self.scan = input.len();
        None
    }

    /// Splits `input[start..end]`, one complete record, into fields.
    /// Fields are checked left to right: a syntax error in field `j` is
    /// reported only when fields `0..j` are valid UTF-8 — otherwise the
    /// UTF-8 error is, as a field-by-field decoder would report it.
    fn split(&mut self, input: &[u8], start: usize, end: usize) -> Result<(), TableError> {
        self.spans.clear();
        self.scratch.clear();
        let Err(syntax) = self.split_fields(input, start, end) else {
            return Ok(());
        };
        let invalid = self
            .spans
            .iter()
            .any(|s| std::str::from_utf8(s.slice(input, &self.scratch)).is_err());
        Err(if invalid {
            TableError::invalid_utf8(self.line)
        } else {
            self.error(syntax)
        })
    }

    fn split_fields(&mut self, input: &[u8], mut i: usize, end: usize) -> Result<(), &'static str> {
        loop {
            if i < end && input[i] == b'"' {
                i += 1;
                let content = i;
                let mut escaped = false;
                loop {
                    if i >= end {
                        return Err("unterminated quoted field");
                    }
                    if input[i] == b'"' {
                        if i + 1 < end && input[i + 1] == b'"' {
                            escaped = true;
                            i += 2;
                            continue;
                        }
                        break;
                    }
                    i += 1;
                }
                let close = i;
                i += 1;
                if i < end && input[i] != self.delimiter {
                    return Err("garbage after closing quote");
                }
                let span = if escaped {
                    self.unescape(&input[content..close])
                } else {
                    Span {
                        start: content,
                        end: close,
                        unescaped: false,
                    }
                };
                self.spans.push(span);
            } else {
                let field = i;
                while i < end && input[i] != self.delimiter {
                    if input[i] == b'"' {
                        return Err("quote inside unquoted field");
                    }
                    i += 1;
                }
                self.spans.push(Span {
                    start: field,
                    end: i,
                    unescaped: false,
                });
            }
            if i == end {
                return Ok(());
            }
            i += 1; // the delimiter; a trailing one leaves an empty field
        }
    }

    /// Copies quoted-field content into the scratch buffer with each `""`
    /// collapsed to `"` (every quote in `content` is half of such a pair).
    fn unescape(&mut self, content: &[u8]) -> Span {
        let start = self.scratch.len();
        let mut i = 0;
        while i < content.len() {
            self.scratch.push(content[i]);
            i += if content[i] == b'"' { 2 } else { 1 };
        }
        Span {
            start,
            end: self.scratch.len(),
            unescaped: true,
        }
    }

    /// Drops the consumed prefix of `buf` once it is at least half of it,
    /// so each byte is moved at most once on average.
    fn compact(&mut self, buf: &mut Vec<u8>) {
        let done = self.start;
        if done > 0 && done * 2 >= buf.len() {
            buf.drain(..done);
            self.start = 0;
            self.scan -= done;
        }
    }

    fn error(&self, message: &str) -> TableError {
        TableError::Csv {
            line: self.line,
            message: message.into(),
        }
    }
}

fn odd_quotes(bytes: &[u8]) -> bool {
    bytes.iter().filter(|&&b| b == b'"').count() % 2 == 1
}

/// Streaming CSV record reader over any [`BufRead`].
#[derive(Debug)]
pub struct CsvReader<R> {
    inner: R,
    splitter: RecordSplitter,
    eof: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Creates a comma-separated reader.
    pub fn new(inner: R) -> Self {
        Self::with_delimiter(inner, b',')
    }

    /// Creates a reader with a custom single-byte delimiter.
    pub fn with_delimiter(inner: R, delimiter: u8) -> Self {
        Self {
            inner,
            splitter: RecordSplitter::with_delimiter(delimiter),
            eof: false,
        }
    }

    /// One-based line number of the last record read.
    pub fn line(&self) -> usize {
        self.splitter.line()
    }

    /// Reads the next record, or `None` at end of input.
    ///
    /// A record may span multiple physical lines when a quoted field contains
    /// newlines. Blank lines are skipped.
    pub fn next_record(&mut self) -> Result<Option<Vec<String>>, TableError> {
        while !self.splitter.advance(self.eof)? {
            if self.eof {
                return Ok(None);
            }
            self.eof = !fill(&mut self.inner, &mut self.splitter)?;
        }
        self.splitter.record().map(|r| Some(r.to_strings()))
    }

    /// Reads all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<Vec<String>>, TableError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Moves the reader's next buffered block into the splitter; `false` at end
/// of input.
fn fill<R: BufRead>(reader: &mut R, splitter: &mut RecordSplitter) -> Result<bool, TableError> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(false),
            Ok(block) => {
                let n = block.len();
                splitter.push(block);
                reader.consume(n);
                return Ok(true);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Push-based record splitter for CSV arriving in arbitrary byte slices
/// (e.g. decoded HTTP chunks), with the exact record semantics of
/// [`CsvReader`]: records may span physical lines inside quoted fields,
/// blank lines are skipped, and a trailing line without a newline is still
/// a record at [`finish`](Self::finish).
#[derive(Debug)]
pub struct RecordSplitter {
    tokenizer: Tokenizer,
    /// Unconsumed input: the tail of the record being assembled plus every
    /// byte pushed after it (the consumed prefix is dropped lazily).
    buf: Vec<u8>,
}

impl Default for RecordSplitter {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordSplitter {
    /// Creates a comma-separated splitter.
    pub fn new() -> Self {
        Self::with_delimiter(b',')
    }

    fn with_delimiter(delimiter: u8) -> Self {
        Self {
            tokenizer: Tokenizer::new(delimiter),
            buf: Vec::new(),
        }
    }

    /// One-based line number of the last physical line consumed.
    pub fn line(&self) -> usize {
        self.tokenizer.line
    }

    /// Appends raw input bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.tokenizer.compact(&mut self.buf);
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete record, or `Ok(None)` when more input is
    /// needed — call again after [`push`](Self::push), or call
    /// [`finish`](Self::finish) at end of input.
    pub fn next_record(&mut self) -> Result<Option<Vec<String>>, TableError> {
        self.next_strings(false)
    }

    /// Ends the input (call once [`next_record`](Self::next_record) has
    /// returned `Ok(None)`): a trailing line without a newline is still a
    /// record; ending inside an open quote is the same error [`CsvReader`]
    /// reports at EOF.
    pub fn finish(&mut self) -> Result<Option<Vec<String>>, TableError> {
        self.next_strings(true)
    }

    fn next_strings(&mut self, eof: bool) -> Result<Option<Vec<String>>, TableError> {
        if !self.advance(eof)? {
            return Ok(None);
        }
        self.record().map(|r| Some(r.to_strings()))
    }

    fn advance(&mut self, eof: bool) -> Result<bool, TableError> {
        self.tokenizer.advance(&self.buf, eof)
    }

    fn record(&self) -> Result<Record<'_>, TableError> {
        self.tokenizer.record(&self.buf)
    }
}

/// Decodes a CSV table straight into a [`ChunkedTableBuilder`]: the first
/// record fixes the schema, and every record after it is a row whose
/// borrowed fields go to [`ChunkedTableBuilder::push_fields`] — no
/// per-field `String`, no per-record `Vec`.
///
/// This is the workspace's one CSV-to-table path. The decoder is built with
/// `schema_of`, which it calls once, with the first record's fields and
/// line number, to get the schema (or the error that rejects the input).
/// Input arrives one of three ways, and one decoder uses exactly one of
/// them: pushed pieces ([`push`](Self::push) + [`decode`](Self::decode),
/// for bodies streamed off a socket), one complete in-memory slice
/// ([`decode_slice`](Self::decode_slice), no copy), or a [`BufRead`]
/// ([`decode_reader`](Self::decode_reader)). Errors are `E`, the error
/// type of `schema_of`, which every [`TableError`] converts into.
///
/// A syntax, encoding or arity error rejects one record; decoding may go
/// on after it. Once `schema_of` has failed, later records are skipped.
pub struct TableDecoder<F> {
    splitter: RecordSplitter,
    rows: RowSink<F>,
}

/// Where a [`TableDecoder`]'s records go: to `schema_of` first, then to
/// the builder it opens.
struct RowSink<F> {
    /// Taken when the first record is met.
    schema_of: Option<F>,
    /// Whether the first record is also the first row (a headerless file).
    headerless: bool,
    builder: Option<ChunkedTableBuilder>,
}

impl<F, E> TableDecoder<F>
where
    F: FnOnce(&[&str], usize) -> Result<Schema, E>,
    E: From<TableError>,
{
    /// A decoder whose first record is the header.
    pub fn new(schema_of: F) -> Self {
        Self::with_header(schema_of, false)
    }

    /// A decoder whose first record is already a row: `schema_of` sees it
    /// only to name the columns.
    pub fn headerless(schema_of: F) -> Self {
        Self::with_header(schema_of, true)
    }

    fn with_header(schema_of: F, headerless: bool) -> Self {
        Self {
            splitter: RecordSplitter::new(),
            rows: RowSink {
                schema_of: Some(schema_of),
                headerless,
                builder: None,
            },
        }
    }

    /// Appends a piece of streamed input; [`decode`](Self::decode) consumes it.
    pub fn push(&mut self, bytes: &[u8]) {
        self.splitter.push(bytes);
    }

    /// Decodes the pushed input's complete records; with `eof`, a final
    /// line without a newline too.
    pub fn decode(&mut self, eof: bool) -> Result<(), E> {
        let RecordSplitter { tokenizer, buf } = &mut self.splitter;
        self.rows.consume(tokenizer, buf, eof)
    }

    /// Decodes `input`, the complete CSV text, in place. After an error,
    /// pass the same slice again to go on past the rejected record.
    pub fn decode_slice(&mut self, input: &[u8]) -> Result<(), E> {
        self.rows.consume(&mut self.splitter.tokenizer, input, true)
    }

    /// Decodes `reader` to its end (after an error, pass it again to go on).
    pub fn decode_reader<R: BufRead>(&mut self, reader: &mut R) -> Result<(), E> {
        loop {
            self.decode(false)?;
            if !fill(reader, &mut self.splitter)? {
                return self.decode(true);
            }
        }
    }

    /// The table of every row decoded so far; `None` if the input held no
    /// record, or `schema_of` rejected its first.
    pub fn into_table(self) -> Option<Table> {
        self.rows.builder.map(ChunkedTableBuilder::build)
    }
}

impl<F, E> RowSink<F>
where
    F: FnOnce(&[&str], usize) -> Result<Schema, E>,
    E: From<TableError>,
{
    fn consume(&mut self, tokenizer: &mut Tokenizer, input: &[u8], eof: bool) -> Result<(), E> {
        while tokenizer.advance(input, eof)? {
            let record = tokenizer.record(input)?;
            if let Some(builder) = &mut self.builder {
                builder.push_fields(record.fields())?;
                continue;
            }
            let Some(schema_of) = self.schema_of.take() else {
                continue;
            };
            let first: Vec<&str> = record.fields().collect();
            let builder = self
                .builder
                .insert(ChunkedTableBuilder::new(schema_of(&first, record.line)?));
            if self.headerless {
                builder.push_fields(first)?;
            }
        }
        Ok(())
    }
}

/// CSV record writer over any [`Write`].
#[derive(Debug)]
pub struct CsvWriter<W> {
    inner: W,
    delimiter: u8,
}

impl<W: Write> CsvWriter<W> {
    /// Creates a comma-separated writer.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            delimiter: b',',
        }
    }

    /// Writes one record, quoting fields that need it.
    pub fn write_record<S: AsRef<str>>(&mut self, fields: &[S]) -> Result<(), TableError> {
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.inner.write_all(&[self.delimiter])?;
            }
            let f = f.as_ref();
            let needs_quote = f
                .bytes()
                .any(|b| b == self.delimiter || b == b'"' || b == b'\n' || b == b'\r');
            if needs_quote {
                self.inner.write_all(b"\"")?;
                self.inner.write_all(f.replace('"', "\"\"").as_bytes())?;
                self.inner.write_all(b"\"")?;
            } else {
                self.inner.write_all(f.as_bytes())?;
            }
        }
        self.inner.write_all(b"\n")?;
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> Result<(), TableError> {
        self.inner.flush()?;
        Ok(())
    }
}

/// Reads a whole table from CSV given a schema.
///
/// When `has_header` is set, the first record is validated against the schema
/// attribute names (order-sensitive).
pub fn read_table<R: BufRead>(
    mut reader: R,
    schema: crate::Schema,
    has_header: bool,
) -> Result<Table, TableError> {
    let empty = schema.clone();
    let schema_of = |header: &[&str], line| {
        if has_header {
            for (i, (name, attribute)) in header.iter().zip(schema.attributes()).enumerate() {
                let expected = attribute.name();
                if name.trim() != expected {
                    return Err(TableError::Csv {
                        line,
                        message: format!("header field {i} is {name:?}, expected {expected:?}"),
                    });
                }
            }
        }
        Ok(schema)
    };
    let mut decoder = if has_header {
        TableDecoder::new(schema_of)
    } else {
        TableDecoder::headerless(schema_of)
    };
    decoder.decode_reader(&mut reader)?;
    Ok(decoder
        .into_table()
        .unwrap_or_else(|| ChunkedTableBuilder::new(empty).build()))
}

/// Writes a whole table (with header) to CSV.
pub fn write_table<W: Write>(writer: W, table: &Table) -> Result<(), TableError> {
    let mut csv = CsvWriter::new(std::io::BufWriter::new(writer));
    let header: Vec<&str> = table
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name())
        .collect();
    csv.write_record(&header)?;
    for row in 0..table.n_rows() {
        let fields = table.row(row);
        csv.write_record(&fields)?;
    }
    csv.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attribute, AttributeKind, Schema};

    fn read_str(s: &str) -> Vec<Vec<String>> {
        CsvReader::new(s.as_bytes()).read_all().unwrap()
    }

    #[test]
    fn plain_fields() {
        assert_eq!(
            read_str("a,b,c\n1,2,3\n"),
            vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]
        );
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let recs = read_str("\"a,b\",\"say \"\"hi\"\"\"\n");
        assert_eq!(recs, vec![vec!["a,b".to_owned(), "say \"hi\"".to_owned()]]);
    }

    #[test]
    fn quoted_field_with_embedded_newline() {
        let recs = read_str("\"line1\nline2\",x\n");
        assert_eq!(recs, vec![vec!["line1\nline2".to_owned(), "x".to_owned()]]);
    }

    #[test]
    fn crlf_and_blank_lines() {
        let recs = read_str("a,b\r\n\r\nc,d\r\n");
        assert_eq!(recs, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn trailing_empty_field() {
        assert_eq!(read_str("a,\n"), vec![vec!["a".to_owned(), String::new()]]);
        assert_eq!(read_str(",\n"), vec![vec![String::new(), String::new()]]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = CsvReader::new("\"abc\n".as_bytes()).read_all().unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn garbage_after_quote_is_error() {
        let err = CsvReader::new("\"abc\"x,y\n".as_bytes())
            .read_all()
            .unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn writer_round_trips() {
        let mut out = Vec::new();
        {
            let mut w = CsvWriter::new(&mut out);
            w.write_record(&["plain", "with,comma", "with\"quote", "with\nnewline"])
                .unwrap();
            w.flush().unwrap();
        }
        let recs = CsvReader::new(out.as_slice()).read_all().unwrap();
        assert_eq!(
            recs,
            vec![vec![
                "plain".to_owned(),
                "with,comma".to_owned(),
                "with\"quote".to_owned(),
                "with\nnewline".to_owned(),
            ]]
        );
    }

    #[test]
    fn table_round_trip() {
        let schema = Schema::new(vec![
            Attribute::new("Age", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut b = crate::TableBuilder::new(schema.clone());
        b.push_row(&["23", "Flu"]).unwrap();
        b.push_row(&["25", "Lung Cancer"]).unwrap();
        let table = b.build();

        let mut bytes = Vec::new();
        write_table(&mut bytes, &table).unwrap();
        let back = read_table(bytes.as_slice(), schema, true).unwrap();
        assert_eq!(back, table);
    }

    #[test]
    fn header_mismatch_is_error() {
        let schema = Schema::new(vec![
            Attribute::new("Age", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let err = read_table("Wrong,Disease\n1,Flu\n".as_bytes(), schema, true).unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    /// Runs the splitter over `input` delivered in `step`-byte slices.
    fn split_str(input: &str, step: usize) -> Result<Vec<Vec<String>>, TableError> {
        let mut splitter = RecordSplitter::new();
        let mut out = Vec::new();
        for piece in input.as_bytes().chunks(step.max(1)) {
            splitter.push(piece);
            while let Some(rec) = splitter.next_record()? {
                out.push(rec);
            }
        }
        if let Some(rec) = splitter.finish()? {
            out.push(rec);
        }
        Ok(out)
    }

    #[test]
    fn record_splitter_matches_csv_reader_at_any_chunking() {
        let inputs = [
            "a,b,c\n1,2,3\n",
            "a,b\r\n\r\nc,d\r\n",
            "\"a,b\",\"say \"\"hi\"\"\"\n",
            "\"line1\nline2\",x\nnext,row\n",
            "trailing,no_newline",
            "a,\n,\n",
            "\n\n\nonly,after,blanks\n",
        ];
        for input in inputs {
            let expected = CsvReader::new(input.as_bytes()).read_all().unwrap();
            for step in 1..=input.len() {
                assert_eq!(
                    split_str(input, step).unwrap(),
                    expected,
                    "input {input:?} at step {step}"
                );
            }
        }
    }

    #[test]
    fn record_splitter_errors_match_csv_reader() {
        for input in ["\"abc\n", "\"abc\"x,y\n", "\"open quote, no end"] {
            let expected = CsvReader::new(input.as_bytes()).read_all();
            let got = split_str(input, 1);
            assert_eq!(
                expected.is_err(),
                got.is_err(),
                "input {input:?}: reader {expected:?} vs splitter {got:?}"
            );
        }
    }

    #[test]
    fn custom_delimiter() {
        let recs = CsvReader::with_delimiter("a|b\n".as_bytes(), b'|')
            .read_all()
            .unwrap();
        assert_eq!(recs, vec![vec!["a", "b"]]);
    }

    #[test]
    fn unquoted_fields_borrow_and_escaped_fields_unescape() {
        let input = b"plain,\"quoted\",\"a \"\"b\"\"\"\n";
        let mut tokenizer = Tokenizer::new(b',');
        assert!(tokenizer.advance(input, false).unwrap());
        let record = tokenizer.record(input).unwrap();
        let fields: Vec<&str> = record.fields().collect();
        assert_eq!(fields, ["plain", "quoted", "a \"b\""]);
        // The first two are slices of the input itself.
        assert!(input.as_ptr_range().contains(&fields[0].as_ptr()));
        assert!(input.as_ptr_range().contains(&fields[1].as_ptr()));
        assert!(!input.as_ptr_range().contains(&fields[2].as_ptr()));
        assert_eq!(record.line, 1);
    }

    #[test]
    fn records_are_validated_whole() {
        let mut input = "\u{e9},\"\u{3000}\"\"\",\u{ff}\n".as_bytes().to_vec();
        input.extend_from_slice(b"ok,\xc3\n");
        let mut tokenizer = Tokenizer::new(b',');
        assert!(tokenizer.advance(&input, false).unwrap());
        let fields: Vec<&str> = tokenizer.record(&input).unwrap().fields().collect();
        assert_eq!(fields, ["\u{e9}", "\u{3000}\"", "\u{ff}"]);
        assert!(tokenizer.advance(&input, false).unwrap());
        let err = tokenizer.record(&input).unwrap_err();
        assert_eq!(err.to_string(), "CSV error at line 2: invalid UTF-8");
    }

    #[test]
    fn carry_buffer_is_compacted_lazily() {
        let mut splitter = RecordSplitter::new();
        for _ in 0..1000 {
            splitter.push(b"a,b\nc,");
            while splitter.next_record().unwrap().is_some() {}
            splitter.push(b"d\n");
            while splitter.next_record().unwrap().is_some() {}
        }
        // Consumed records are dropped, not accumulated.
        assert!(splitter.buf.len() <= 16, "{}", splitter.buf.len());
        assert_eq!(splitter.line(), 2000);
    }

    /// Names the columns from a header: `B` is sensitive, the rest
    /// quasi-identifiers.
    fn schema_of(names: &[&str], _line: usize) -> Result<Schema, TableError> {
        let attributes = names
            .iter()
            .map(|n| {
                let kind = if n.trim() == "B" {
                    AttributeKind::Sensitive
                } else {
                    AttributeKind::QuasiIdentifier
                };
                Attribute::new(n.trim(), kind)
            })
            .collect();
        Schema::new(attributes)
    }

    #[test]
    fn decoder_reads_header_then_rows_in_every_mode() {
        let input = "A , B\nx, 1\r\n\"y\",2\nx,3";
        let mut slice = TableDecoder::new(schema_of);
        slice.decode_slice(input.as_bytes()).unwrap();
        let table = slice.into_table().unwrap();
        assert_eq!(table.n_rows(), 3);
        assert_eq!(table.schema().attribute(0).name(), "A");
        assert_eq!(table.row(1), ["y", "2"]);

        let mut pushed = TableDecoder::new(schema_of);
        for piece in input.as_bytes().chunks(3) {
            pushed.push(piece);
            pushed.decode(false).unwrap();
        }
        pushed.decode(true).unwrap();
        assert_eq!(pushed.into_table().unwrap(), table);

        let mut read = TableDecoder::new(schema_of);
        read.decode_reader(&mut input.as_bytes()).unwrap();
        assert_eq!(read.into_table().unwrap(), table);
    }

    #[test]
    fn headerless_decoder_keeps_the_first_record_as_a_row() {
        let mut seen = Vec::new();
        let mut decoder = TableDecoder::headerless(|first: &[&str], line| {
            seen.push((first.join("|"), line));
            schema_of(&["A", "B"], line)
        });
        decoder.decode_slice(b"\nx,1\ny,2\n").unwrap();
        let table = decoder.into_table().unwrap();
        assert_eq!(table.n_rows(), 2);
        assert_eq!(table.row(0), ["x", "1"]);
        assert_eq!(seen, [("x|1".to_owned(), 2)]);
    }

    #[test]
    fn decoder_without_records_or_with_a_rejected_header_has_no_table() {
        let mut decoder = TableDecoder::new(schema_of);
        decoder.decode_slice(b"\n\r\n").unwrap();
        assert!(decoder.into_table().is_none());

        let reject = |_: &[&str], line| -> Result<Schema, TableError> {
            Err(TableError::Csv {
                line,
                message: "no".into(),
            })
        };
        let mut decoder = TableDecoder::new(reject);
        let err = decoder.decode_slice(b"A,B\nx,1\n").unwrap_err();
        assert_eq!(err.to_string(), "CSV error at line 1: no");
        // Later records are skipped, not taken for a header.
        decoder.decode_slice(b"A,B\nx,1\n").unwrap();
        assert!(decoder.into_table().is_none());
    }
}
