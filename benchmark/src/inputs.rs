//! Seeded inputs: synthetic Adult tables, their wire encodings, and the
//! per-connection operation sequences of each workload. Everything here is
//! a pure function of the seed and is built before the server starts, so
//! data generation is never timed.

use std::io::BufReader;

use wcbk_adversary::ModelId;
use wcbk_datagen::adult::{synthetic_adult, AdultConfig};
use wcbk_hierarchy::{dataset_fingerprint, GenNode, GeneralizationLattice, Hierarchy};
use wcbk_table::csv::CsvReader;
use wcbk_table::{Attribute, AttributeKind, ChunkedTableBuilder, Schema, Table};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["ingest", "oneshot", "handles"];

pub const SENSITIVE: &str = "Occupation";
pub const QI: [&str; 4] = ["Age", "Marital-Status", "Race", "Gender"];
/// Interval widths of the Age hierarchy; the other QIs suppress. Together
/// they span a 5 × 2 × 2 × 2 = 40-node lattice.
pub const AGE_WIDTHS: [u64; 3] = [5, 10, 20];
/// Attacker power stays in 1..=8: much larger `k` makes MINIMIZE1 allocate
/// without bound and aborts the server.
pub const MAX_K: usize = 8;
/// Thresholds drawn for audits and searches.
pub const CS: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
/// Release nodes, rotated per handle. All sit at the lattice top (1–5
/// buckets each), so the release history, and with it the cost of a
/// composition audit, grows slowly.
pub const RELEASE_NODES: [[usize; 4]; 4] = [[4, 1, 1, 1], [4, 1, 1, 0], [3, 1, 1, 1], [4, 1, 0, 1]];
/// Models of the non-default handle audits.
pub const AUDIT_MODELS: [ModelId; 3] = [
    ModelId::Distribution,
    ModelId::Minimality,
    ModelId::Sequential,
];
/// Body chunk size of the `text/csv` uploads.
const UPLOAD_CHUNK: usize = 64 * 1024;

/// splitmix64: a tiny, well-mixed generator for seeded choices.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seed for a sub-stream, distinct per `(self, tag)`.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows per table.
    pub rows: usize,
    /// Distinct tables (ingest, oneshot) or registered handles (handles).
    pub tables: usize,
    /// Client connections (and threads).
    pub connections: usize,
}

pub fn sizes(workload: &str, tiny: bool) -> Sizes {
    match (workload, tiny) {
        ("ingest", false) => Sizes {
            rows: 200_000,
            tables: 8,
            connections: 1,
        },
        ("oneshot", false) => Sizes {
            rows: 50_000,
            tables: 16,
            connections: 2,
        },
        ("handles", false) => Sizes {
            rows: 50_000,
            tables: 8,
            connections: 2,
        },
        ("ingest", true) => Sizes {
            rows: 2_000,
            tables: 2,
            connections: 1,
        },
        (_, true) => Sizes {
            rows: 1_000,
            tables: 4,
            connections: 2,
        },
        _ => unreachable!("workload names are validated at argument parsing"),
    }
}

/// One generated table and its encodings.
pub struct Dataset {
    pub rows: usize,
    /// Size of the CSV text.
    pub csv_bytes: usize,
    /// CSV text with a header row, kept for in-process checks (empty on
    /// ingest, whose only check is the registration id).
    pub csv: String,
    /// The CSV as a JSON string literal (quotes and escapes included), for
    /// embedding into one-shot request bodies (oneshot workload only).
    pub csv_json: String,
    /// The full `POST /tables` request with a chunked `text/csv` body
    /// (ingest and handles workloads only).
    pub upload: Vec<u8>,
    /// The handle id the server must answer with: the in-process
    /// `dataset_fingerprint` of the table the upload decodes to.
    pub id: String,
}

pub fn dataset(workload: &str, rows: usize, seed: u64) -> Dataset {
    let table = synthetic_adult(AdultConfig { n_rows: rows, seed });
    let mut bytes = Vec::new();
    wcbk_table::csv::write_table(&mut bytes, &table).expect("writing CSV to memory");
    let csv = String::from_utf8(bytes).expect("generated CSV is UTF-8");
    let decoded = table_from_records(decode_csv(&csv));
    let lattice = lattice(&decoded);
    let id = format!("{:016x}", dataset_fingerprint(&decoded, &lattice));
    let oneshot = workload == "oneshot";
    Dataset {
        rows,
        csv_bytes: csv.len(),
        csv_json: if oneshot {
            wcbk_serve::Json::from(csv.as_str()).to_string()
        } else {
            String::new()
        },
        upload: if oneshot {
            Vec::new()
        } else {
            upload_request(&csv)
        },
        csv: if workload == "ingest" {
            String::new()
        } else {
            csv
        },
        id,
    }
}

/// The query string of a `text/csv` registration.
pub fn upload_target() -> String {
    let widths: Vec<String> = AGE_WIDTHS.iter().map(u64::to_string).collect();
    format!(
        "/tables?sensitive={SENSITIVE}&qi={}&hierarchy=Age:{}",
        QI.join(","),
        widths.join(",")
    )
}

/// A chunked `text/csv` registration of `csv`. The client never sends
/// `Expect: 100-continue`: the server does not answer it and every such
/// upload would stall one second.
fn upload_request(csv: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {} HTTP/1.1\r\nHost: wcbk\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\n\r\n",
        upload_target()
    )
    .into_bytes();
    for chunk in csv.as_bytes().chunks(UPLOAD_CHUNK) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// A `POST` with a JSON body.
pub fn json_request(path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: wcbk\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

pub fn delete_request(id: &str) -> Vec<u8> {
    format!("DELETE /tables/{id} HTTP/1.1\r\nHost: wcbk\r\n\r\n").into_bytes()
}

/// Decodes CSV text into records, as the server's JSON `"csv"` path does.
pub fn decode_csv(csv: &str) -> Vec<Vec<String>> {
    let mut reader = CsvReader::new(BufReader::new(csv.as_bytes()));
    reader.read_all().expect("generated CSV decodes")
}

/// Dictionary-encodes decoded records (header first) with the server's
/// column roles and trimming.
pub fn table_from_records(records: Vec<Vec<String>>) -> Table {
    let mut records = records.into_iter();
    let header = records.next().expect("CSV has a header");
    let mut builder = ChunkedTableBuilder::new(schema(&header));
    for record in records {
        let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
        builder
            .push_row(&trimmed)
            .expect("generated row fits schema");
    }
    builder.build()
}

pub fn schema(header: &[String]) -> Schema {
    let attributes = header
        .iter()
        .map(|name| {
            let name = name.trim();
            let kind = if name == SENSITIVE {
                AttributeKind::Sensitive
            } else if QI.contains(&name) {
                AttributeKind::QuasiIdentifier
            } else {
                AttributeKind::Insensitive
            };
            Attribute::new(name, kind)
        })
        .collect();
    Schema::new(attributes).expect("generated header is a valid schema")
}

/// The 4-QI lattice with the Age interval hierarchy, built as the server
/// builds it from the registration parameters.
pub fn lattice(table: &Table) -> GeneralizationLattice {
    let dims = QI
        .iter()
        .map(|name| {
            let col = table.schema().index_of(name).expect("QI column present");
            let dict = table.column(col).dictionary();
            let hierarchy = if *name == "Age" {
                Hierarchy::intervals(*name, dict, &AGE_WIDTHS).expect("Age hierarchy")
            } else {
                Hierarchy::suppression(*name, dict)
            };
            (col, hierarchy)
        })
        .collect();
    GeneralizationLattice::new(dims).expect("valid lattice")
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Upload table `table` as `text/csv`, then delete the handle.
    Register { table: usize },
    /// `POST /audit` of table `table`'s exact 4-QI buckets.
    OneshotAudit { table: usize, k: usize, c: f64 },
    /// `POST /search` of table `table` over the 40-node lattice.
    OneshotSearch { table: usize, k: usize, c: f64 },
    /// `POST /tables/{id}/audit`.
    Audit {
        handle: usize,
        k: usize,
        c: f64,
        model: ModelId,
    },
    /// `POST /tables/{id}/search`.
    Search { handle: usize, k: usize, c: f64 },
    /// `POST /tables/{id}/release`.
    Release { handle: usize, node: GenNode },
    /// `POST /tables/{id}/composition` (conjunction model).
    Composition { handle: usize, k: usize, c: f64 },
}

impl Op {
    /// The server endpoint this op is timed against (the normalized route
    /// `/metrics` labels by); for `Register` that is the upload.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Op::Register { .. } => "/tables",
            Op::OneshotAudit { .. } => "/audit",
            Op::OneshotSearch { .. } => "/search",
            Op::Audit { .. } => "/tables/{id}/audit",
            Op::Search { .. } => "/tables/{id}/search",
            Op::Release { .. } => "/tables/{id}/release",
            Op::Composition { .. } => "/tables/{id}/composition",
        }
    }

    /// The request bytes for this op. `ids` are the handle ids of the
    /// handles workload (unused elsewhere).
    pub fn request(&self, datasets: &[Dataset], ids: &[String]) -> Vec<u8> {
        let qi: Vec<String> = QI.iter().map(|q| format!("\"{q}\"")).collect();
        let qi = qi.join(",");
        match self {
            Op::Register { table } => datasets[*table].upload.clone(),
            Op::OneshotAudit { table, k, c } => json_request(
                "/audit",
                &format!(
                    "{{\"csv\":{},\"sensitive\":\"{SENSITIVE}\",\"qi\":[{qi}],\"k\":{k},\"c\":{c}}}",
                    datasets[*table].csv_json
                ),
            ),
            Op::OneshotSearch { table, k, c } => {
                let widths: Vec<String> = AGE_WIDTHS.iter().map(u64::to_string).collect();
                json_request(
                    "/search",
                    &format!(
                        "{{\"csv\":{},\"sensitive\":\"{SENSITIVE}\",\"qi\":[{qi}],\
                         \"hierarchy\":{{\"Age\":[{}]}},\"k\":{k},\"c\":{c},\"threads\":2}}",
                        datasets[*table].csv_json,
                        widths.join(",")
                    ),
                )
            }
            Op::Audit {
                handle,
                k,
                c,
                model,
            } => {
                let model = match model {
                    ModelId::Conjunction => String::new(),
                    m => format!(",\"model\":\"{}\"", m.name()),
                };
                json_request(
                    &format!("/tables/{}/audit", ids[*handle]),
                    &format!("{{\"k\":{k},\"c\":{c}{model}}}"),
                )
            }
            Op::Search { handle, k, c } => json_request(
                &format!("/tables/{}/search", ids[*handle]),
                &format!("{{\"c\":{c},\"k\":{k},\"threads\":2}}"),
            ),
            Op::Release { handle, node } => {
                let levels: Vec<String> = node.0.iter().map(usize::to_string).collect();
                json_request(
                    &format!("/tables/{}/release", ids[*handle]),
                    &format!("{{\"node\":[{}]}}", levels.join(",")),
                )
            }
            Op::Composition { handle, k, c } => json_request(
                &format!("/tables/{}/composition", ids[*handle]),
                &format!("{{\"k\":{k},\"c\":{c}}}"),
            ),
        }
    }
}

/// Ops each connection cycles through (far more than a run completes).
const SEQUENCE_LEN: usize = 100_000;

/// The seeded op sequence of connection `conn` of `connections`.
pub fn sequence(workload: &str, sizes: Sizes, rng: &Rng, conn: usize) -> Vec<Op> {
    let mut rng = rng.fork(0xC0_0000 + conn as u64);
    let k = |rng: &mut Rng| 1 + rng.below(MAX_K);
    let c = |rng: &mut Rng| CS[rng.below(CS.len())];
    match workload {
        // The pool cycles in order, so every table is uploaded equally often.
        "ingest" => (0..SEQUENCE_LEN)
            .map(|i| Op::Register {
                table: i % sizes.tables,
            })
            .collect(),
        "oneshot" => (0..SEQUENCE_LEN)
            .map(|i| {
                let table = rng.below(sizes.tables);
                if i % 2 == 0 {
                    Op::OneshotAudit {
                        table,
                        k: k(&mut rng),
                        c: c(&mut rng),
                    }
                } else {
                    Op::OneshotSearch {
                        table,
                        k: k(&mut rng),
                        c: c(&mut rng),
                    }
                }
            })
            .collect(),
        "handles" => {
            // Each connection owns the handles `h ≡ conn (mod connections)`,
            // so every handle's release history is one deterministic order.
            let owned: Vec<usize> = (conn..sizes.tables).step_by(sizes.connections).collect();
            let mut released = vec![0usize; sizes.tables];
            (0..SEQUENCE_LEN)
                .map(|_| {
                    let handle = owned[rng.below(owned.len())];
                    let u = rng.unit();
                    if u < 0.40 {
                        Op::Audit {
                            handle,
                            k: k(&mut rng),
                            c: c(&mut rng),
                            model: ModelId::Conjunction,
                        }
                    } else if u < 0.55 {
                        Op::Audit {
                            handle,
                            k: k(&mut rng),
                            c: c(&mut rng),
                            model: AUDIT_MODELS[rng.below(AUDIT_MODELS.len())],
                        }
                    } else if u < 0.85 {
                        Op::Search {
                            handle,
                            k: k(&mut rng),
                            c: c(&mut rng),
                        }
                    } else if u < 0.95 || released[handle] == 0 {
                        // A composition needs a release before it.
                        let node = release_node(handle, released[handle]);
                        released[handle] += 1;
                        Op::Release { handle, node }
                    } else {
                        Op::Composition {
                            handle,
                            k: k(&mut rng),
                            c: c(&mut rng),
                        }
                    }
                })
                .collect()
        }
        _ => unreachable!("workload names are validated at argument parsing"),
    }
}

/// The `n`-th release node of `handle`: the fixed list, rotated per handle.
pub fn release_node(handle: usize, n: usize) -> GenNode {
    GenNode(RELEASE_NODES[(handle + n) % RELEASE_NODES.len()].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_seeded_and_handles_are_partitioned() {
        let s = sizes("handles", true);
        let a = sequence("handles", s, &Rng::new(7), 1);
        let b = sequence("handles", s, &Rng::new(7), 1);
        let c = sequence("handles", s, &Rng::new(8), 1);
        assert_eq!(format!("{:?}", &a[..50]), format!("{:?}", &b[..50]));
        assert_ne!(format!("{:?}", &a[..50]), format!("{:?}", &c[..50]));
        let handle = |op: &Op| match op {
            Op::Audit { handle, .. }
            | Op::Search { handle, .. }
            | Op::Release { handle, .. }
            | Op::Composition { handle, .. } => *handle,
            _ => unreachable!(),
        };
        assert!(a.iter().all(|op| handle(op) % s.connections == 1));
        // Every composition follows a release of its handle.
        let mut seen = vec![false; s.tables];
        for op in &a {
            match op {
                Op::Release { handle, .. } => seen[*handle] = true,
                Op::Composition { handle, .. } => assert!(seen[*handle]),
                _ => {}
            }
        }
    }

    #[test]
    fn release_nodes_fit_the_lattice() {
        let d = dataset("handles", 300, 1);
        let table = table_from_records(decode_csv(&d.csv));
        let lattice = lattice(&table);
        assert_eq!(lattice.n_nodes(), 40);
        for node in RELEASE_NODES {
            lattice
                .validate(&GenNode(node.to_vec()))
                .expect("valid node");
        }
        assert_eq!(d.id.len(), 16);
    }
}
