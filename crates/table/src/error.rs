//! Error type for table construction and I/O.

use std::fmt;

/// Errors produced by the table substrate.
#[derive(Debug)]
pub enum TableError {
    /// A row had a different number of fields than the schema has attributes.
    ArityMismatch {
        /// Attributes in the schema.
        expected: usize,
        /// Fields in the offending row.
        found: usize,
        /// Zero-based row number (data rows, header excluded).
        row: usize,
    },
    /// The schema does not contain exactly one sensitive attribute.
    SensitiveAttributeCount(usize),
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// Duplicate attribute name in a schema.
    DuplicateAttribute(String),
    /// Reconstructing a table from pre-encoded parts failed validation
    /// (codes out of dictionary range, ragged columns, arity mismatch).
    InvalidParts(String),
    /// Malformed CSV input.
    Csv {
        /// One-based line number where the problem was detected.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch {
                expected,
                found,
                row,
            } => write!(
                f,
                "row {row} has {found} fields but the schema has {expected} attributes"
            ),
            TableError::SensitiveAttributeCount(n) => write!(
                f,
                "schema must contain exactly one sensitive attribute, found {n}"
            ),
            TableError::UnknownAttribute(name) => {
                write!(f, "attribute {name:?} not found in schema")
            }
            TableError::DuplicateAttribute(name) => {
                write!(f, "attribute {name:?} appears more than once in schema")
            }
            TableError::InvalidParts(m) => write!(f, "invalid table parts: {m}"),
            TableError::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            TableError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl TableError {
    /// The CSV error for a field that is not valid UTF-8.
    pub(crate) fn invalid_utf8(line: usize) -> Self {
        TableError::Csv {
            line,
            message: "invalid UTF-8".into(),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TableError::ArityMismatch {
            expected: 5,
            found: 4,
            row: 3,
        };
        assert!(e.to_string().contains("row 3"));
        let e = TableError::SensitiveAttributeCount(2);
        assert!(e.to_string().contains("exactly one"));
        let e = TableError::UnknownAttribute("Disease".into());
        assert!(e.to_string().contains("Disease"));
        let e = TableError::Csv {
            line: 9,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 9"));
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error;
        let e = TableError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
