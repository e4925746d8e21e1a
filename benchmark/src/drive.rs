//! The closed-loop HTTP client: each connection sends its next request only
//! after the previous reply, as every caller of the service (`wcbk table …`)
//! does. Every response's status and shape are checked as it arrives.

use std::time::{Duration, Instant};

use wcbk_serve::http::client::{Client, Response};
use wcbk_serve::Json;

use crate::inputs::{delete_request, Dataset, Op, Rng};
use crate::Error;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub endpoint: &'static str,
    pub ms: f64,
}

/// What one connection did: its ops ran in sequence order `0..executed`.
#[derive(Default)]
pub struct ConnLog {
    pub executed: usize,
    pub samples: Vec<Sample>,
    /// `(op index, reason)` of ops that failed, were refused or answered
    /// with a wrong shape.
    pub failures: Vec<(usize, String)>,
    /// Parsed responses of the ops picked for the bit-identity check.
    pub sampled: Vec<(usize, Json)>,
}

/// Sends raw request bytes and reads the reply.
pub fn exchange(client: &mut Client, request: &[u8]) -> Result<Response, Error> {
    client.send_raw(request)?;
    Ok(client.read_response()?)
}

/// Whether op `index` of connection `conn` is checked bit for bit against
/// the in-process library (about one op in `every`).
pub fn is_sampled(rng: &Rng, conn: usize, index: usize, every: usize) -> bool {
    rng.fork(0x5A_0000 + conn as u64)
        .fork(index as u64)
        .next_u64()
        .is_multiple_of(every as u64)
}

/// Runs one connection's closed loop until `deadline` (at least one op).
#[allow(clippy::too_many_arguments)]
pub fn run_connection(
    addr: &str,
    conn: usize,
    seq: &[Op],
    datasets: &[Dataset],
    ids: &[String],
    deadline: Instant,
    rng: &Rng,
    sample_every: usize,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client: Option<Client> = None;
    for (index, op) in seq.iter().cycle().enumerate() {
        if index > 0 && Instant::now() >= deadline {
            break;
        }
        log.executed = index + 1;
        let request = op.request(datasets, ids);
        if client.is_none() {
            match Client::connect(addr, Some(Duration::from_secs(120))) {
                Ok(c) => client = Some(c),
                Err(e) => {
                    log.failures.push((index, format!("connect: {e}")));
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let started = Instant::now();
        let reply = exchange(c, &request);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let checked = reply.and_then(|r| check_shape(op, &r, datasets));
        let json = match checked {
            Ok(json) => json,
            Err(e) => {
                log.failures.push((index, e.to_string()));
                client = None;
                continue;
            }
        };
        log.samples.push(Sample {
            endpoint: op.endpoint(),
            ms,
        });
        if let Op::Register { table } = op {
            let deleted = exchange(c, &delete_request(&datasets[*table].id))
                .and_then(|r| expect_ok(&r))
                .and_then(|j| match j.get("deleted").and_then(Json::as_bool) {
                    Some(true) => Ok(()),
                    _ => Err("delete did not answer deleted: true".into()),
                });
            if let Err(e) = deleted {
                log.failures.push((index, format!("delete: {e}")));
                client = None;
            }
        } else if is_sampled(rng, conn, index, sample_every) {
            log.sampled.push((index, json));
        }
    }
    log
}

/// The reply's JSON body when the status is 200.
pub fn expect_ok(reply: &Response) -> Result<Json, Error> {
    if reply.status != 200 {
        let body: String = reply.body.chars().take(200).collect();
        return Err(format!("HTTP {}: {body}", reply.status).into());
    }
    Ok(reply.json()?)
}

/// Checks status and shape of `op`'s reply and returns its parsed body.
pub fn check_shape(op: &Op, reply: &Response, datasets: &[Dataset]) -> Result<Json, Error> {
    let json = expect_ok(reply)?;
    let has_number = |key: &str| json.get(key).and_then(Json::as_f64).is_some();
    let has_bool = |key: &str| json.get(key).and_then(Json::as_bool).is_some();
    let ok = match op {
        Op::Register { table } => {
            let d = &datasets[*table];
            let id = json.get("id").and_then(Json::as_str);
            if id != Some(d.id.as_str()) {
                return Err(format!(
                    "registration id {id:?} is not the in-process fingerprint {}",
                    d.id
                )
                .into());
            }
            json.get("rows").and_then(Json::as_u64) == Some(d.rows as u64)
                && json.get("created").and_then(Json::as_bool) == Some(true)
        }
        Op::OneshotAudit { .. } | Op::Audit { .. } => {
            json.get("max_disclosure")
                .and_then(Json::as_f64)
                .is_some_and(|v| (0.0..=1.0).contains(&v))
                && has_bool("safe")
                && json.get("witness").and_then(Json::as_object).is_some()
        }
        Op::OneshotSearch { .. } | Op::Search { .. } => {
            json.get("minimal").and_then(Json::as_array).is_some()
                && has_number("evaluated")
                && has_bool("safe")
        }
        Op::Release { .. } => has_number("index") && has_number("total_buckets"),
        Op::Composition { .. } => has_number("max_disclosure") && has_number("releases"),
    };
    if ok {
        Ok(json)
    } else {
        Err(format!("unexpected {} reply shape: {}", op.endpoint(), reply.body).into())
    }
}
