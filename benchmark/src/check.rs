//! Bit-identity checks: a seeded sample of the server's audit, search and
//! composition answers is recomputed in process through `DatasetSession`
//! and must match exactly (the wire carries shortest round-trip `f64`s).

use wcbk_adversary::ModelId;
use wcbk_anonymize::{CkSafetyCriterion, DatasetSession, SearchConfig};
use wcbk_serve::Json;

use crate::drive::ConnLog;
use crate::inputs::{self, Dataset, Op};
use crate::Error;

/// A fresh in-process session over dataset `d`, built as the server builds
/// it from the same bytes.
pub fn session(d: &Dataset) -> DatasetSession {
    let table = inputs::table_from_records(inputs::decode_csv(&d.csv));
    let lattice = inputs::lattice(&table);
    DatasetSession::new(table, lattice).expect("non-empty table")
}

/// Returns one line per mismatching answer.
pub fn verify(
    workload: &str,
    datasets: &[Dataset],
    seqs: &[Vec<Op>],
    logs: &[ConnLog],
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut handles: Vec<Option<DatasetSession>> = (0..datasets.len()).map(|_| None).collect();
    for (conn, (seq, log)) in seqs.iter().zip(logs).enumerate() {
        let mut sampled = log.sampled.iter().peekable();
        for index in 0..log.executed {
            let op = &seq[index % seq.len()];
            let answer = match sampled.peek() {
                Some((i, json)) if *i == index => {
                    sampled.next();
                    Some(json)
                }
                _ => None,
            };
            // Releases always replay, so each handle's in-process history
            // follows the server's; other ops only when sampled.
            let is_release = matches!(op, Op::Release { .. });
            if answer.is_none() && !is_release {
                continue;
            }
            let result = match workload {
                "oneshot" => {
                    let table = match op {
                        Op::OneshotAudit { table, .. } | Op::OneshotSearch { table, .. } => *table,
                        _ => unreachable!("oneshot sequences hold one-shot ops"),
                    };
                    compare(&session(&datasets[table]), op, answer)
                }
                _ => {
                    let handle = match op {
                        Op::Audit { handle, .. }
                        | Op::Search { handle, .. }
                        | Op::Release { handle, .. }
                        | Op::Composition { handle, .. } => *handle,
                        _ => continue,
                    };
                    let s = handles[handle].get_or_insert_with(|| session(&datasets[handle]));
                    compare(s, op, answer)
                }
            };
            if let Err(e) = result {
                mismatches.push(format!("connection {conn} op {index} ({op:?}): {e}"));
            }
        }
    }
    mismatches
}

fn bits(json: &Json, key: &str, expected: f64) -> Result<(), Error> {
    match json.get(key).and_then(Json::as_f64) {
        Some(v) if v.to_bits() == expected.to_bits() => Ok(()),
        got => Err(format!("{key}: server {got:?}, library {expected:?}").into()),
    }
}

fn field<T: PartialEq + std::fmt::Debug>(
    key: &str,
    got: Option<T>,
    expected: T,
) -> Result<(), Error> {
    match got {
        Some(v) if v == expected => Ok(()),
        got => Err(format!("{key}: server {got:?}, library {expected:?}").into()),
    }
}

/// Runs `op` on `session` and, when `answer` is given, compares.
fn compare(session: &DatasetSession, op: &Op, answer: Option<&Json>) -> Result<(), Error> {
    match *op {
        Op::Release { ref node, .. } => {
            session.release_with_model(node, ModelId::Conjunction)?;
            Ok(())
        }
        Op::OneshotAudit { k, c, .. }
        | Op::Audit {
            k,
            c,
            model: ModelId::Conjunction,
            ..
        } => {
            let a = answer.expect("audits are compared only when sampled");
            let r = session.audit(Some(c), k)?;
            bits(a, "max_disclosure", r.disclosure.value)?;
            field(
                "safe",
                a.get("safe").and_then(Json::as_bool),
                r.safe.expect("c was given"),
            )?;
            field(
                "buckets",
                a.get("buckets").and_then(Json::as_u64),
                r.buckets as u64,
            )?;
            let witness = a.get("witness");
            field(
                "witness.predicts",
                witness
                    .and_then(|w| w.get("predicts"))
                    .and_then(Json::as_str),
                r.disclosure.witness.consequent.to_string().as_str(),
            )?;
            field(
                "witness.knowing",
                witness
                    .and_then(|w| w.get("knowing"))
                    .and_then(Json::as_str),
                r.disclosure.witness.knowledge().to_string().as_str(),
            )
        }
        Op::Audit { k, c, model, .. } => {
            let a = answer.expect("audits are compared only when sampled");
            let r = session.audit_model(model, Some(c), k)?;
            bits(a, "max_disclosure", r.value)?;
            field(
                "safe",
                a.get("safe").and_then(Json::as_bool),
                r.safe.expect("c was given"),
            )?;
            field("model", a.get("model").and_then(Json::as_str), model.name())?;
            let witness = a.get("witness");
            field(
                "witness.predicts",
                witness
                    .and_then(|w| w.get("predicts"))
                    .and_then(Json::as_str),
                r.witness.predicts.as_str(),
            )?;
            field(
                "witness.knowing",
                witness
                    .and_then(|w| w.get("knowing"))
                    .and_then(Json::as_str),
                r.witness.knowing.join("\n").as_str(),
            )
        }
        Op::OneshotSearch { k, c, .. } | Op::Search { k, c, .. } => {
            let a = answer.expect("searches are compared only when sampled");
            let criterion = CkSafetyCriterion::with_engine(c, session.engine(k))?;
            let report = session.search(&criterion, &SearchConfig::with_threads(2))?;
            let outcome = report.outcome;
            let minimal: Vec<Vec<u64>> = outcome
                .minimal_nodes
                .iter()
                .map(|n| n.0.iter().map(|&l| l as u64).collect())
                .collect();
            let got: Option<Vec<Vec<u64>>> = a.get("minimal").and_then(Json::as_array).map(|ns| {
                ns.iter()
                    .map(|n| {
                        n.as_array()
                            .unwrap_or_default()
                            .iter()
                            .filter_map(Json::as_u64)
                            .collect()
                    })
                    .collect()
            });
            field("minimal", got, minimal)?;
            field(
                "evaluated",
                a.get("evaluated").and_then(Json::as_u64),
                outcome.evaluated as u64,
            )?;
            field(
                "satisfied",
                a.get("satisfied").and_then(Json::as_u64),
                outcome.satisfied as u64,
            )
        }
        Op::Composition { k, c, .. } => {
            let a = answer.expect("compositions are compared only when sampled");
            let r = session.audit_composition(Some(c), k)?;
            bits(a, "max_disclosure", r.value)?;
            field(
                "releases",
                a.get("releases").and_then(Json::as_u64),
                r.releases as u64,
            )?;
            field(
                "buckets",
                a.get("buckets").and_then(Json::as_u64),
                r.buckets as u64,
            )?;
            field(
                "safe",
                a.get("safe").and_then(Json::as_bool),
                r.safe.expect("c was given"),
            )
        }
        Op::Register { .. } => Ok(()),
    }
}
