//! Differential test of the CSV tokenizer and the borrowed-field encode path.
//!
//! The oracle below is the record-at-a-time decoder the tokenizer replaced
//! (`read_until` per physical line, a quote-balance rescan per line, one
//! `String` per field, then `TableBuilder::push_row` of the trimmed
//! fields), kept here verbatim as the reference. Every input goes through
//! every shipped entry point — pushed pieces at every chunk size, one
//! whole slice, a `BufRead` at several buffer sizes, and the
//! `RecordSplitter`/`CsvReader` adapters — and each must fail iff the oracle
//! fails, with the same message, and otherwise build an `==` table.

use std::io::{BufRead, BufReader};

use proptest::prelude::*;

use wcbk_table::csv::{CsvReader, RecordSplitter, TableDecoder};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder, TableError};

mod oracle {
    use std::io::BufRead;

    use wcbk_table::TableError;

    pub struct CsvReader<R> {
        inner: R,
        delimiter: u8,
        line: usize,
        buf: Vec<u8>,
    }

    impl<R: BufRead> CsvReader<R> {
        pub fn new(inner: R) -> Self {
            Self {
                inner,
                delimiter: b',',
                line: 0,
                buf: Vec::new(),
            }
        }

        pub fn next_record(&mut self) -> Result<Option<Vec<String>>, TableError> {
            loop {
                self.buf.clear();
                let n = self.inner.read_until(b'\n', &mut self.buf)?;
                if n == 0 {
                    return Ok(None);
                }
                self.line += 1;
                while has_open_quote(&self.buf) {
                    let n = self.inner.read_until(b'\n', &mut self.buf)?;
                    if n == 0 {
                        return Err(TableError::Csv {
                            line: self.line,
                            message: "unterminated quoted field at end of input".into(),
                        });
                    }
                    self.line += 1;
                }
                trim_trailing_newline(&mut self.buf);
                if self.buf.is_empty() {
                    continue;
                }
                return parse_record(&self.buf, self.delimiter, self.line).map(Some);
            }
        }
    }

    fn trim_trailing_newline(buf: &mut Vec<u8>) {
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }

    fn has_open_quote(buf: &[u8]) -> bool {
        let mut in_quotes = false;
        let mut i = 0;
        while i < buf.len() {
            if buf[i] == b'"' {
                if in_quotes && i + 1 < buf.len() && buf[i + 1] == b'"' {
                    i += 1;
                } else {
                    in_quotes = !in_quotes;
                }
            }
            i += 1;
        }
        in_quotes
    }

    fn parse_record(raw: &[u8], delimiter: u8, line: usize) -> Result<Vec<String>, TableError> {
        let mut fields = Vec::new();
        let mut field = Vec::new();
        let mut i = 0;
        let n = raw.len();
        while i <= n {
            if i == n {
                fields.push(bytes_to_string(&field, line)?);
                break;
            }
            let b = raw[i];
            if b == b'"' {
                if !field.is_empty() {
                    return Err(TableError::Csv {
                        line,
                        message: "quote inside unquoted field".into(),
                    });
                }
                i += 1;
                loop {
                    if i >= n {
                        return Err(TableError::Csv {
                            line,
                            message: "unterminated quoted field".into(),
                        });
                    }
                    if raw[i] == b'"' {
                        if i + 1 < n && raw[i + 1] == b'"' {
                            field.push(b'"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        field.push(raw[i]);
                        i += 1;
                    }
                }
                if i < n && raw[i] != delimiter {
                    return Err(TableError::Csv {
                        line,
                        message: "garbage after closing quote".into(),
                    });
                }
                fields.push(bytes_to_string(&field, line)?);
                field.clear();
                if i == n {
                    break;
                }
                i += 1;
                if i == n {
                    fields.push(String::new());
                    break;
                }
            } else if b == delimiter {
                fields.push(bytes_to_string(&field, line)?);
                field.clear();
                i += 1;
                if i == n {
                    fields.push(String::new());
                    break;
                }
            } else {
                field.push(b);
                i += 1;
            }
        }
        Ok(fields)
    }

    fn bytes_to_string(bytes: &[u8], line: usize) -> Result<String, TableError> {
        String::from_utf8(bytes.to_vec()).map_err(|_| TableError::Csv {
            line,
            message: "invalid UTF-8".into(),
        })
    }
}

/// A decode outcome: the table (`None` when the input has no header
/// record) or the error's `Display` text.
type Outcome = Result<Option<Table>, String>;

/// The roles every entry point assigns from a header: the last column is
/// sensitive, the rest quasi-identifiers (names trimmed, as the server
/// does).
fn schema_of(header: &[String]) -> Result<Schema, TableError> {
    let last = header.len().saturating_sub(1);
    let attributes = header
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let kind = if i == last {
                AttributeKind::Sensitive
            } else {
                AttributeKind::QuasiIdentifier
            };
            Attribute::new(name.trim(), kind)
        })
        .collect();
    Schema::new(attributes)
}

fn oracle_table(input: &[u8]) -> Outcome {
    let run = || -> Result<Option<Table>, TableError> {
        let mut reader = oracle::CsvReader::new(input);
        let Some(header) = reader.next_record()? else {
            return Ok(None);
        };
        let mut builder = TableBuilder::new(schema_of(&header)?);
        while let Some(record) = reader.next_record()? {
            let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
            builder.push_row(&trimmed)?;
        }
        Ok(Some(builder.build()))
    };
    run().map_err(|e| e.to_string())
}

fn oracle_records(input: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let mut reader = oracle::CsvReader::new(input);
    let mut out = Vec::new();
    while let Some(record) = reader.next_record().map_err(|e| e.to_string())? {
        out.push(record);
    }
    Ok(out)
}

/// A decoder whose header names the columns (roles as [`schema_of`]).
fn decoder() -> TableDecoder<impl FnOnce(&[&str], usize) -> Result<Schema, TableError>> {
    TableDecoder::new(|header: &[&str], _line| {
        let names: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        schema_of(&names)
    })
}

/// The upload path: the input pushed in `step`-byte pieces.
fn pushed(input: &[u8], step: usize) -> Outcome {
    let mut decoder = decoder();
    for piece in input.chunks(step) {
        decoder.push(piece);
        decoder.decode(false).map_err(|e| e.to_string())?;
    }
    decoder.decode(true).map_err(|e| e.to_string())?;
    Ok(decoder.into_table())
}

/// The whole-buffer path: the complete input decoded in place.
fn sliced(input: &[u8]) -> Outcome {
    let mut decoder = decoder();
    decoder.decode_slice(input).map_err(|e| e.to_string())?;
    Ok(decoder.into_table())
}

/// The reader path, through a `BufReader` of `capacity` bytes.
fn read(input: &[u8], capacity: usize) -> Outcome {
    let mut reader = BufReader::with_capacity(capacity, input);
    let mut decoder = decoder();
    decoder
        .decode_reader(&mut reader)
        .map_err(|e| e.to_string())?;
    Ok(decoder.into_table())
}

fn splitter_records(input: &[u8], step: usize) -> Result<Vec<Vec<String>>, String> {
    let mut splitter = RecordSplitter::new();
    let mut out = Vec::new();
    let mut run = || -> Result<(), TableError> {
        for piece in input.chunks(step) {
            splitter.push(piece);
            while let Some(record) = splitter.next_record()? {
                out.push(record);
            }
        }
        out.extend(splitter.finish()?);
        Ok(())
    };
    run().map_err(|e| e.to_string())?;
    Ok(out)
}

fn reader_records(input: impl BufRead) -> Result<Vec<Vec<String>>, String> {
    CsvReader::new(input).read_all().map_err(|e| e.to_string())
}

/// Every entry point agrees with the oracle on `input`, at every chunking.
fn check(input: &[u8]) {
    let table = oracle_table(input);
    let records = oracle_records(input);
    let shown = String::from_utf8_lossy(input);
    assert_eq!(sliced(input), table, "slice of {shown:?}");
    assert_eq!(reader_records(input), records, "CsvReader of {shown:?}");
    let large = [4096, 65_536, input.len() + 1];
    for step in (1..=input.len()).chain(large) {
        assert_eq!(
            pushed(input, step),
            table,
            "{step}-byte pushes of {shown:?}"
        );
        assert_eq!(
            splitter_records(input, step),
            records,
            "RecordSplitter at {step}-byte pushes of {shown:?}"
        );
    }
    for capacity in [1, 2, 7, 64, 8192] {
        assert_eq!(
            read(input, capacity),
            table,
            "reader({capacity}) of {shown:?}"
        );
        let reader = BufReader::with_capacity(capacity, input);
        assert_eq!(reader_records(reader), records, "CsvReader({capacity})");
    }
}

#[test]
fn fixed_corpus_matches_the_oracle() {
    let corpus: &[&[u8]] = &[
        // `""` escapes, quoted delimiters and newlines.
        b"A,B\n\"say \"\"hi\"\"\",x\n\"a,b\",\"line1\nline2\"\n\"\"\"\",\"\"\n",
        b"A,B\n\"multi\n\nline\r\n\",y\nz,\"\"\"\"\"\"\n",
        // CRLF, a lone CR, blank lines, CRLF-only lines.
        b"A,B\r\nx,1\r\n\r\n\r\ny,2\r\n",
        b"A,B\nx\r1,2\ny,2\r\r\n",
        b"A,B\n\n\n\r\n\rx,1\n",
        b"\r\n\r\nA,B\nx,1",
        b"A,B\nx,1\r",
        // Trailing empty fields; no final newline.
        b"A,B,C\nx,,\n,,\n,y,",
        b"A,B\nx,\"\"",
        // Non-ASCII whitespace at field edges: trimmed like ASCII spaces.
        "A,B\n\u{a0}x\u{2003},1\nx, 1\u{3000}\n\u{3000}x,\u{a0}1\u{a0}\n".as_bytes(),
        // Values that differ only in surrounding whitespace share a code.
        b"A,B\nx,1\n x,1\nx ,1 \n\tx\t,\" 1\"\n",
        b" A , B \nx,1\n",
        // Invalid UTF-8 on a first occurrence, and on a later row.
        b"A,B\n\xff,1\nx,2\n",
        b"A,B\nx,1\ny,2\nx,\xc3\n",
        b"A,B\n\"\xff\",1\n",
        b"A,\xff\nx,1\n",
        // Invalid UTF-8 in an earlier field beats a later syntax error, and
        // a syntax error beats invalid UTF-8 after it.
        b"A,B\n\xff,a\"b\"\n",
        b"A,B\na\"b\",\xff\n",
        b"A,B\n\xff,\"x\"y\n",
        b"A,B\n\"\xff\"x,1\n",
        // Invalid UTF-8 beats an arity mismatch.
        b"A,B\nx,1,\xff\n",
        b"A,B,C\n\xfe\n",
        // An arity mismatch right after a dictionary miss.
        b"A,B\nx,1\nnew,2,extra\n",
        b"A,B\nx,1\nfresh\n",
        // Quote misuse: mid-field, garbage after a close, a leading space.
        b"A,B\na\"b,1\n",
        b"A,B\n\"x\"y,1\n",
        b"A,B\n \"x\",1\n",
        b"A,B\nx,1\n\"x\"\"y\n",
        b"A,B\n\"open,1\nmore,2\n",
        b"A,B\nx,\"unterminated",
        b"A,B\nx,a\"b",
        b"\"",
        b"",
        b"\n\n",
        b"A\n",
        b"A,A\nx,y\n",
    ];
    for input in corpus {
        check(input);
    }
}

/// Byte fragments the generated CSV is assembled from: plain values,
/// whitespace of several kinds, every structural byte, invalid UTF-8.
fn fragment() -> impl Strategy<Value = &'static [u8]> {
    prop_oneof![
        Just(&b"x"[..]),
        Just(&b"y"[..]),
        Just(&b"42"[..]),
        Just(&b" "[..]),
        Just("\u{a0}".as_bytes()),
        Just("\u{3000}".as_bytes()),
        Just(&b","[..]),
        Just(&b"\""[..]),
        Just(&b"\n"[..]),
        Just(&b"\r"[..]),
        Just(&b"\xff"[..]),
    ]
}

/// Well-formed CSV: a header of `arity` names, then rows of `arity` fields
/// (quoted with `""` escapes when the content needs it, or by `quote_bits`),
/// with LF or CRLF terminators (`crlf_bits`) and an optional final one.
fn render(
    arity: usize,
    cells: &[Vec<&[u8]>],
    quote_bits: u32,
    crlf_bits: u32,
    final_newline: bool,
) -> Vec<u8> {
    let names = ["A", " B", "C "];
    let mut out = names[..arity].join(",").into_bytes();
    let whole_rows = cells.len() / arity * arity;
    for (i, cell) in cells[..whole_rows].iter().enumerate() {
        let bit = 1 << (i % 32);
        out.extend_from_slice(if i % arity == 0 {
            if crlf_bits & bit != 0 {
                b"\r\n"
            } else {
                b"\n"
            }
        } else {
            b","
        });
        let content = cell.concat();
        let special = content.iter().any(|b| b",\"\r\n".contains(b));
        if special || quote_bits & bit != 0 {
            out.push(b'"');
            for &b in &content {
                if b == b'"' {
                    out.push(b'"');
                }
                out.push(b);
            }
            out.push(b'"');
        } else {
            out.extend_from_slice(&content);
        }
    }
    if final_newline {
        out.push(b'\n');
    }
    out
}

/// Applies one mutation to well-formed CSV: flip a byte, truncate, or
/// splice a fragment in (`kind` 0 leaves it alone).
fn mutate(mut csv: Vec<u8>, kind: u8, at: usize, with: &[u8]) -> Vec<u8> {
    let at = at % (csv.len() + 1);
    match kind {
        1 if at < csv.len() => csv[at] = with[0],
        2 => csv.truncate(at),
        3 => {
            csv.splice(at..at, with.iter().copied());
        }
        _ => {}
    }
    csv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn generated_csv_matches_the_oracle(
        arity in 1..=3usize,
        cells in prop::collection::vec(prop::collection::vec(fragment(), 0..=3), 0..=12),
        bits in (0..=u32::MAX, 0..=u32::MAX),
        final_newline in 0..=1u8,
        mutation in (0..=3u8, 0..=4096usize, fragment()),
    ) {
        let csv = render(arity, &cells, bits.0, bits.1, final_newline == 1);
        let (kind, at, with) = mutation;
        check(&mutate(csv, kind, at, with));
    }
}
