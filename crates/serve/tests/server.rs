//! End-to-end tests over the real TCP surface: concurrency, backpressure,
//! graceful shutdown, malformed traffic, and — the acceptance pin — batch
//! verdicts bit-identical to the CLI `audit`/`search` code paths.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use wcbk_anonymize::{search, CkSafetyCriterion, SearchConfig, MODEL_IDS};
use wcbk_core::{is_ck_safe, Bucketization, DisclosureEngine};
use wcbk_hierarchy::{GeneralizationLattice, Hierarchy};
use wcbk_serve::http::client::Client;
use wcbk_serve::json::Json;
use wcbk_serve::service::AuditService;
use wcbk_serve::{Server, ServerConfig};
use wcbk_table::{Attribute, AttributeKind, Schema, Table, TableBuilder};

type ServerThread = std::thread::JoinHandle<std::io::Result<()>>;

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    wcbk_serve::ServerHandle,
    Arc<AuditService>,
    ServerThread,
) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let service = server.service();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, service, join)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Some(Duration::from_secs(30))).expect("connect")
}

/// Table `i` of the test workload: six rows whose ages shift with `i`, so
/// tables are distinct but share histogram shapes (the cross-request cache
/// hit case).
fn workload_csv(i: usize) -> String {
    let base = 20 + (i % 7) as u32;
    let mut csv = String::from("Age,Sex,Disease\n");
    for (j, (sex, disease)) in [
        ("M", "Flu"),
        ("F", "Flu"),
        ("M", "Cold"),
        ("F", "Cold"),
        ("M", "Flu"),
        ("F", "Cold"),
    ]
    .iter()
    .enumerate()
    {
        csv.push_str(&format!("{},{sex},{disease}\n", base + 2 * j as u32));
    }
    csv
}

/// Builds table `i` the way the CLI's `load()` does (same schema roles).
fn workload_table(i: usize) -> Table {
    let csv = workload_csv(i);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let attributes: Vec<Attribute> = header
        .iter()
        .map(|n| {
            let kind = if *n == "Disease" {
                AttributeKind::Sensitive
            } else {
                AttributeKind::QuasiIdentifier
            };
            Attribute::new((*n).to_owned(), kind)
        })
        .collect();
    let mut builder = TableBuilder::new(Schema::new(attributes).unwrap());
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        builder.push_row(&fields).unwrap();
    }
    builder.build()
}

fn audit_job(i: usize) -> Json {
    Json::object(vec![
        ("op", "audit".into()),
        ("csv", workload_csv(i).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ("k", 1u64.into()),
        ("c", 0.9.into()),
    ])
}

fn search_job(i: usize) -> Json {
    // k = 0 so safe generalizations exist (two sensitive values disclose
    // fully under any implication) and minimal-node comparison is
    // non-trivial.
    Json::object(vec![
        ("op", "search".into()),
        ("csv", workload_csv(i).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ("k", 0u64.into()),
        ("c", 0.9.into()),
        ("threads", 2u64.into()),
    ])
}

/// The CLI `audit` computation for table `i`: exact-QI bucketization,
/// engine disclosure, (c,k) verdict.
fn expected_audit(i: usize) -> (f64, bool) {
    let table = workload_table(i);
    let qi_cols = [0usize, 1];
    let b = Bucketization::from_grouping(&table, |t| {
        qi_cols
            .iter()
            .map(|&col| table.column(col).code(t.index()))
            .collect::<Vec<u32>>()
    })
    .unwrap();
    let engine = DisclosureEngine::new(1);
    let value = engine.max_disclosure(&b).unwrap().value;
    let safe = is_ck_safe(&b, 0.9, 1).unwrap();
    (value, safe)
}

/// The CLI `search` computation for table `i`: suppression hierarchies on
/// the quasi-identifiers, (c,k)-safety, work stealing at 2 threads.
fn expected_search(i: usize) -> (Vec<Vec<usize>>, usize, usize) {
    let table = workload_table(i);
    let age = table.column(0).dictionary().clone();
    let sex = table.column(1).dictionary().clone();
    let lattice = GeneralizationLattice::new(vec![
        (0, Hierarchy::suppression("Age", &age)),
        (1, Hierarchy::suppression("Sex", &sex)),
    ])
    .unwrap();
    let criterion = CkSafetyCriterion::new(0.9, 0).unwrap();
    let config = SearchConfig::with_threads(2);
    let outcome = search(&table, &lattice, &criterion, &config)
        .unwrap()
        .outcome;
    assert!(
        !outcome.minimal_nodes.is_empty(),
        "workload should admit a safe generalization at k = 0"
    );
    (
        outcome.minimal_nodes.iter().map(|n| n.0.clone()).collect(),
        outcome.evaluated,
        outcome.satisfied,
    )
}

#[test]
fn healthz_and_stats_respond() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health = health.json().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("shutting_down").and_then(Json::as_bool),
        Some(false)
    );

    let stats = client.get("/stats").unwrap().json().unwrap();
    assert!(stats.get("engine_cache").is_some(), "{stats}");
    assert!(stats.get("rollup").is_some());
    assert!(stats.get("server").unwrap().get("workers").is_some());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The acceptance pin: a 32-table `/batch` from 8 concurrent connections
/// produces verdicts bit-identical to the CLI `audit`/`search` paths, and
/// `/stats` afterwards shows cross-request engine cache hits.
#[test]
fn concurrent_batches_match_cli_paths_bit_for_bit() {
    const TABLES: usize = 32;
    const CLIENTS: usize = 8;
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    let jobs: Vec<Json> = (0..TABLES)
        .map(|i| {
            if i % 2 == 0 {
                audit_job(i)
            } else {
                search_job(i)
            }
        })
        .collect();
    let batch = Json::object(vec![("tables", Json::Array(jobs))]).to_string();

    let mut all_lines: Vec<Vec<Json>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let batch = &batch;
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let response = client.post("/batch", batch).unwrap();
                    assert_eq!(response.status, 200);
                    response.ndjson().unwrap()
                })
            })
            .collect();
        for h in handles {
            all_lines.push(h.join().unwrap());
        }
    });

    for lines in &all_lines {
        // TABLES result lines plus the summary line.
        assert_eq!(lines.len(), TABLES + 1, "{lines:?}");
        let summary = lines.last().unwrap();
        assert_eq!(summary.get("done").and_then(Json::as_bool), Some(true));
        assert_eq!(
            summary.get("tables").and_then(Json::as_u64),
            Some(TABLES as u64)
        );
        // Every index exactly once; every result matching the CLI path.
        let mut seen = [false; TABLES];
        for line in &lines[..TABLES] {
            let i = line.get("index").and_then(Json::as_u64).unwrap() as usize;
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
            assert!(line.get("error").is_none(), "table {i}: {line}");
            if i % 2 == 0 {
                let (value, safe) = expected_audit(i);
                assert_eq!(
                    line.get("max_disclosure")
                        .and_then(Json::as_f64)
                        .unwrap()
                        .to_bits(),
                    value.to_bits(),
                    "table {i} disclosure diverged from the CLI path"
                );
                assert_eq!(line.get("safe").and_then(Json::as_bool), Some(safe));
            } else {
                let (minimal, evaluated, satisfied) = expected_search(i);
                let got: Vec<Vec<usize>> = line
                    .get("minimal")
                    .and_then(Json::as_array)
                    .unwrap()
                    .iter()
                    .map(|node| {
                        node.as_array()
                            .unwrap()
                            .iter()
                            .map(|l| l.as_u64().unwrap() as usize)
                            .collect()
                    })
                    .collect();
                assert_eq!(got, minimal, "table {i} minimal nodes diverged");
                assert_eq!(
                    line.get("evaluated").and_then(Json::as_u64),
                    Some(evaluated as u64)
                );
                assert_eq!(
                    line.get("satisfied").and_then(Json::as_u64),
                    Some(satisfied as u64)
                );
            }
        }
        assert!(seen.iter().all(|&s| s), "missing indices");
    }

    // Cross-request cache effectiveness is observable, not hypothetical.
    let stats = connect(addr).get("/stats").unwrap().json().unwrap();
    let hits = stats
        .get("engine_cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits > 0, "no cross-request engine cache hits: {stats}");
    let batch_tables = stats
        .get("service")
        .and_then(|s| s.get("batch_tables"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(batch_tables, (TABLES * CLIENTS) as u64);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn search_honors_schedule_threads_and_memo_cap() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let request = Json::object(vec![
        ("csv", workload_csv(0).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        (
            "hierarchy",
            Json::object(vec![("Age", Json::Array(vec![2u64.into(), 4u64.into()]))]),
        ),
        ("k", 1u64.into()),
        ("c", 0.9.into()),
        ("threads", 2u64.into()),
        // Unknown fields are ignored, so an old client's "schedule" must
        // not change the answer.
        ("schedule", "level".into()),
        ("memo_cap", 1u64.into()),
    ]);
    let out = client.post("/search", &request.to_string()).unwrap();
    assert_eq!(out.status, 200);
    let out = out.json().unwrap();

    // Library computation under the identical config.
    let table = workload_table(0);
    let age = table.column(0).dictionary().clone();
    let sex = table.column(1).dictionary().clone();
    let lattice = GeneralizationLattice::new(vec![
        (0, Hierarchy::intervals("Age", &age, &[2, 4]).unwrap()),
        (1, Hierarchy::suppression("Sex", &sex)),
    ])
    .unwrap();
    let outcome = search(
        &table,
        &lattice,
        &CkSafetyCriterion::new(0.9, 1).unwrap(),
        &SearchConfig {
            threads: 2,
            memo_capacity: Some(1),
            ..Default::default()
        },
    )
    .unwrap()
    .outcome;
    assert_eq!(
        out.get("evaluated").and_then(Json::as_u64),
        Some(outcome.evaluated as u64)
    );
    assert_eq!(
        out.get("minimal").and_then(Json::as_array).unwrap().len(),
        outcome.minimal_nodes.len()
    );
    // The memo budget reached the evaluator: at most 1 group retained.
    let memo_groups = out
        .get("rollup")
        .and_then(|r| r.get("memo_groups"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(memo_groups <= 1, "{out}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_get_4xx() {
    let (addr, handle, _service, join) = start(ServerConfig {
        max_body: 4096,
        ..ServerConfig::default()
    });

    // Garbage instead of a request line.
    let mut raw = connect(addr);
    raw.send_raw(b"EXPLODE\r\n\r\n").unwrap();
    assert_eq!(raw.read_response().unwrap().status, 400);

    // Bad JSON body.
    let mut client = connect(addr);
    let r = client.post("/audit", "{not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.json().unwrap().get("error").is_some());

    // Valid JSON, invalid request (missing sensitive).
    let r = client
        .post("/audit", "{\"csv\": \"A,B\\n1,2\\n\"}")
        .unwrap();
    assert_eq!(r.status, 400);

    // Batch with a non-array tables field.
    let r = client.post("/batch", "{\"tables\": 7}").unwrap();
    assert_eq!(r.status, 400);

    // Unknown endpoint and disallowed method.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    let mut raw = connect(addr);
    raw.send_raw(b"DELETE /audit HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(raw.read_response().unwrap().status, 405);

    // Oversized declared body.
    let mut raw = connect(addr);
    raw.send_raw(b"POST /audit HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
        .unwrap();
    assert_eq!(raw.read_response().unwrap().status, 413);

    // The service kept count.
    let stats = connect(addr).get("/stats").unwrap().json().unwrap();
    let bad = stats
        .get("service")
        .and_then(|s| s.get("bad_requests"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(bad >= 5, "{stats}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A huge `k` on a tiny table: MINIMIZE1 values are sized by the bucket,
/// so the search answers instead of allocating a `k³` table, and the
/// server stays up.
#[test]
fn large_k_search_answers_and_server_stays_up() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let job = Json::object(vec![
        ("csv", "Age,Sex,Disease\n21,M,Flu\n23,F,Cold\n".into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ("k", 1000u64.into()),
        ("c", 0.9.into()),
    ]);
    let r = client.post("/search", &job.to_string()).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A huge `k` on every audit route of a 2-row table, under every adversary
/// model: the witness profile is sized by the bucket's distinct values,
/// not by the `k+1` atoms it may place there (a `c`-sized MINIMIZE1 table
/// at k = 5000 would take about 1 TB and abort the process).
#[test]
fn large_k_audits_answer_and_server_stays_up() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let table = [
        ("csv", "Age,Sex,Disease\n21,M,Flu\n23,F,Cold\n".into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ];
    let params = [("k", 5000u64.into()), ("c", 0.9.into())];
    let assert_certain = |line: &Json| {
        assert_eq!(line.get("k").and_then(Json::as_u64), Some(5000), "{line}");
        assert_eq!(
            line.get("max_disclosure").and_then(Json::as_f64),
            Some(1.0),
            "{line}"
        );
    };

    let r = client
        .post("/tables", &Json::object(table.to_vec()).to_string())
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let id = r
        .json()
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    for model in MODEL_IDS {
        let model_params: Vec<(&str, Json)> = params
            .iter()
            .cloned()
            .chain([("model", model.name().into())])
            .collect();
        let audit = Json::object(table.iter().cloned().chain(model_params.clone()).collect());
        let r = client.post("/audit", &audit.to_string()).unwrap();
        assert_eq!(r.status, 200, "{model}: {}", r.body);
        assert_certain(&r.json().unwrap());

        let r = client
            .post(
                &format!("/tables/{id}/audit"),
                &Json::object(model_params).to_string(),
            )
            .unwrap();
        assert_eq!(r.status, 200, "{model}: {}", r.body);
        assert_certain(&r.json().unwrap());
    }

    let job = Json::object(
        std::iter::once(("op", "audit".into()))
            .chain(table.iter().chain(&params).cloned())
            .collect(),
    );
    let batch = Json::object(vec![("tables", Json::Array(vec![job]))]);
    let r = client.post("/batch", &batch.to_string()).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let lines = r.ndjson().unwrap();
    assert_eq!(lines.len(), 2, "1 result + summary");
    assert_certain(&lines[0]);

    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The hostile-`k` corpus: `"k": 1000000000` on every search and audit
/// route (one-shot, handle, and a `/batch` audit job plus a search job)
/// under every adversary model. Every set is saturated (`k + 1 ≥ d_min`),
/// so each request answers 200 with disclosure 1 (no search node safe)
/// within 100 ms, with no MINIMIZE1 table or DP row sized by `k`, and the
/// server stays up. `"k": 40000`, which a DP in `k²` per bucket would
/// take seconds on, answers as fast, and so does the largest `k` a request
/// can name (`u64::MAX`, where `k + 1` would overflow).
#[test]
fn hostile_k_corpus_answers_fast_on_every_route_and_model() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let table = [
        ("csv", "Age,Sex,Disease\n21,M,Flu\n23,F,Cold\n".into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ];
    let r = client
        .post("/tables", &Json::object(table.to_vec()).to_string())
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let id = r
        .json()
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let mut post = |path: &str, body: Json| {
        let started = std::time::Instant::now();
        let r = client.post(path, &body.to_string()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(r.status, 200, "{path} {body}: {}", r.body);
        assert!(
            elapsed < Duration::from_millis(100),
            "{path} {body}: {elapsed:?}"
        );
        r
    };
    let certain = |line: &Json| {
        assert_eq!(
            line.get("max_disclosure").and_then(Json::as_f64),
            Some(1.0),
            "{line}"
        );
    };
    let nothing_safe = |line: &Json| {
        assert_eq!(
            line.get("satisfied").and_then(Json::as_u64),
            Some(0),
            "{line}"
        );
        assert_eq!(
            line.get("safe").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
    };
    for k in [u64::MAX, 1_000_000_000, 40_000] {
        for model in MODEL_IDS {
            let params = vec![
                ("k", k.into()),
                ("c", 0.9.into()),
                ("model", model.name().into()),
            ];
            let job = |op: &str| {
                Json::object(
                    std::iter::once(("op", op.into()))
                        .chain(table.iter().cloned())
                        .chain(params.iter().cloned())
                        .collect(),
                )
            };
            let oneshot = Json::object(table.iter().cloned().chain(params.clone()).collect());
            let handle_body = Json::object(params.clone());

            certain(&post("/audit", oneshot.clone()).json().unwrap());
            certain(
                &post(&format!("/tables/{id}/audit"), handle_body.clone())
                    .json()
                    .unwrap(),
            );
            nothing_safe(&post("/search", oneshot).json().unwrap());
            nothing_safe(
                &post(&format!("/tables/{id}/search"), handle_body)
                    .json()
                    .unwrap(),
            );
            let batch = Json::object(vec![(
                "tables",
                Json::Array(vec![job("audit"), job("search")]),
            )]);
            let lines = post("/batch", batch).ndjson().unwrap();
            assert_eq!(lines.len(), 3, "2 results + summary");
            // Results stream in completion order; each names its job.
            let result = |index: u64| {
                let of_job = |l: &&Json| l.get("index").and_then(Json::as_u64) == Some(index);
                lines
                    .iter()
                    .find(of_job)
                    .unwrap_or_else(|| panic!("{lines:?}"))
            };
            certain(result(0));
            nothing_safe(result(1));
        }
    }
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `/stats` `engine_cache.saturated` and `/metrics`
/// `wcbk_engine_saturated_total` read one counter: after saturated audits
/// and a search they agree, and both moved.
#[test]
fn stats_saturated_agrees_with_metrics() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let id = register(&mut client, 0);
    for path in ["audit", "search"] {
        let body = Json::object(vec![("k", 1_000_000u64.into()), ("c", 0.9.into())]);
        let r = client
            .post(&format!("/tables/{id}/{path}"), &body.to_string())
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let stats = client.get("/stats").unwrap().json().unwrap();
    let saturated = stats
        .get("engine_cache")
        .and_then(|c| c.get("saturated"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no engine_cache.saturated in {stats}"));
    let metrics = client.get("/metrics").unwrap().body;
    let exposed = metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix("wcbk_engine_saturated_total ")?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or_else(|| panic!("no wcbk_engine_saturated_total in:\n{metrics}"));
    assert_eq!(saturated, exposed);
    assert!(saturated >= 2, "{stats}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// An audit whose witness could need a MINIMIZE1 profile table over more
/// than `MAX_WITNESS_ATOMS` atoms is refused with a 400 naming the limit,
/// before any DP, on every audit route: 800 rows of one bucket with 800
/// distinct sensitive values at k = 798 would otherwise size a table over
/// 799 atoms (about 4 GB). The closed-form models build no such table and
/// answer.
#[test]
fn oversized_witness_audit_is_a_400_and_server_stays_up() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let csv: String = std::iter::once("Q,S\n".to_owned())
        .chain((0..800).map(|i| format!("a,v{i}\n")))
        .collect();
    let table = [
        ("csv", Json::from(csv.as_str())),
        ("sensitive", "S".into()),
        ("qi", Json::Array(vec!["Q".into()])),
    ];
    let params = [("k", 798u64.into()), ("c", 0.9.into())];
    let limit = wcbk_core::disclosure::MAX_WITNESS_ATOMS.to_string();
    let r = client
        .post("/tables", &Json::object(table.to_vec()).to_string())
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let id = r
        .json()
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    for model in MODEL_IDS {
        let model_params: Vec<(&str, Json)> = params
            .iter()
            .cloned()
            .chain([("model", model.name().into())])
            .collect();
        let audit = Json::object(table.iter().cloned().chain(model_params.clone()).collect());
        let oneshot = client.post("/audit", &audit.to_string()).unwrap();
        let handle_audit = client
            .post(
                &format!("/tables/{id}/audit"),
                &Json::object(model_params).to_string(),
            )
            .unwrap();
        for r in [oneshot, handle_audit] {
            if model.name() == "conjunction" || model.name() == "sequential" {
                assert_eq!(r.status, 400, "{model}: {}", r.body);
                assert!(r.body.contains(&limit), "{model}: {}", r.body);
            } else {
                assert_eq!(r.status, 200, "{model}: {}", r.body);
            }
        }
    }

    let job = Json::object(
        std::iter::once(("op", "audit".into()))
            .chain(table.iter().chain(&params).cloned())
            .collect(),
    );
    let batch = Json::object(vec![("tables", Json::Array(vec![job]))]);
    let r = client.post("/batch", &batch.to_string()).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let lines = r.ndjson().unwrap();
    assert_eq!(lines.len(), 2, "1 result + summary");
    let error = lines[0].get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains(&limit), "{error}");

    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Shutdown during a streaming batch: the batch runs to completion (every
/// line plus the summary arrives), then the server exits and the port
/// closes.
#[test]
fn graceful_shutdown_mid_batch() {
    const TABLES: usize = 24;
    let (addr, handle, service, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let jobs: Vec<Json> = (0..TABLES).map(search_job).collect();
    let batch = Json::object(vec![("tables", Json::Array(jobs))]).to_string();

    let mut client = connect(addr);
    let response = std::thread::scope(|scope| {
        let batch_client = scope.spawn(move || {
            let r = client.post("/batch", &batch).unwrap();
            (r.status, r.ndjson().unwrap())
        });
        // Wait until the server has *accepted* the batch (its request fully
        // read and validated) before racing shutdown against the stream —
        // shutdown's read-half sweep may legitimately drop a request whose
        // bytes are still arriving, which is not what this test pins.
        // Correctness does not depend on shutdown overlapping the stream,
        // only the assertions below do not.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            let batches = service
                .stats()
                .into_iter()
                .find(|(k, _)| *k == "service")
                .and_then(|(_, v)| v.get("batches").and_then(Json::as_u64))
                .unwrap_or(0);
            if batches >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut killer = connect(addr);
        let r = killer.post("/shutdown", "{}").unwrap();
        assert_eq!(r.status, 200);
        batch_client.join().unwrap()
    });
    let (status, lines) = response;
    assert_eq!(status, 200);
    assert_eq!(lines.len(), TABLES + 1, "batch truncated by shutdown");
    assert_eq!(
        lines.last().unwrap().get("done").and_then(Json::as_bool),
        Some(true)
    );
    for line in &lines[..TABLES] {
        assert!(line.get("error").is_none(), "{line}");
    }

    assert!(handle.is_shutting_down());
    join.join().unwrap().unwrap();
    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "port still open");
}

/// Keep-alive reuse: many requests over one connection, mixed endpoints.
#[test]
fn persistent_connections_serve_sequential_requests() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    for i in 0..5 {
        let r = client.post("/audit", &audit_job(i).to_string()).unwrap();
        assert_eq!(r.status, 200, "request {i}");
        let body = r.json().unwrap();
        let (value, safe) = expected_audit(i);
        assert_eq!(
            body.get("max_disclosure")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            value.to_bits()
        );
        assert_eq!(body.get("safe").and_then(Json::as_bool), Some(safe));
    }
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Registers workload table `i` over HTTP and returns its handle id.
fn register(client: &mut Client, i: usize) -> String {
    let body = Json::object(vec![
        ("csv", workload_csv(i).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ]);
    let r = client.post("/tables", &body.to_string()).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    r.json()
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned()
}

/// Sends `DELETE /tables/{id}` (the client helper only speaks GET/POST).
fn delete_table(client: &mut Client, id: &str) -> u16 {
    client
        .send_raw(format!("DELETE /tables/{id} HTTP/1.1\r\nHost: wcbk\r\n\r\n").as_bytes())
        .unwrap();
    client.read_response().unwrap().status
}

/// The acceptance pin for the dataset-handle redesign: `POST /tables` then
/// N× `/tables/{id}/audit` performs **exactly one row scan total**
/// (`RollupStats::table_scans == 1` in the per-session `/stats` snapshot),
/// with every audit bit-identical to the one-shot path.
#[test]
fn register_then_n_audits_scans_once() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);

    let id = register(&mut client, 0);
    // Re-registering identical content returns the same handle.
    let body = Json::object(vec![
        ("csv", workload_csv(0).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ]);
    let again = client.post("/tables", &body.to_string()).unwrap();
    assert_eq!(
        again.json().unwrap().get("id").unwrap().as_str(),
        Some(id.as_str())
    );
    assert_eq!(
        again.json().unwrap().get("created").unwrap().as_bool(),
        Some(false)
    );

    let (want_value, want_safe) = expected_audit(0);
    let audit_body = Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string();
    for round in 0..8 {
        let r = client
            .post(&format!("/tables/{id}/audit"), &audit_body)
            .unwrap();
        assert_eq!(r.status, 200, "round {round}: {}", r.body);
        let out = r.json().unwrap();
        assert_eq!(
            out.get("max_disclosure")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            want_value.to_bits(),
            "round {round}"
        );
        assert_eq!(out.get("safe").unwrap().as_bool(), Some(want_safe));
    }
    // And a few handle searches for good measure — still no new scan.
    let search_body = Json::object(vec![
        ("k", 0u64.into()),
        ("c", 0.9.into()),
        ("threads", 2u64.into()),
    ])
    .to_string();
    let (want_minimal, want_evaluated, want_satisfied) = expected_search(0);
    for _ in 0..3 {
        let r = client
            .post(&format!("/tables/{id}/search"), &search_body)
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let out = r.json().unwrap();
        let minimal: Vec<Vec<usize>> = out
            .get("minimal")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|n| {
                n.as_array()
                    .unwrap()
                    .iter()
                    .map(|l| l.as_u64().unwrap() as usize)
                    .collect()
            })
            .collect();
        assert_eq!(minimal, want_minimal);
        assert_eq!(
            out.get("evaluated").unwrap().as_u64(),
            Some(want_evaluated as u64)
        );
        assert_eq!(
            out.get("satisfied").unwrap().as_u64(),
            Some(want_satisfied as u64)
        );
    }

    // The one-scan assertion, via the per-session /stats snapshot.
    let stats = client.get("/stats").unwrap().json().unwrap();
    let per_session = stats
        .get("sessions")
        .unwrap()
        .get("per_session")
        .unwrap()
        .as_array()
        .unwrap();
    let entry = per_session
        .iter()
        .find(|s| s.get("id").unwrap().as_str() == Some(id.as_str()))
        .expect("registered session missing from /stats");
    assert_eq!(
        entry
            .get("rollup")
            .unwrap()
            .get("table_scans")
            .unwrap()
            .as_u64(),
        Some(1),
        "register + N audits must scan exactly once: {entry}"
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The handle batch endpoint streams job results bit-identical to the
/// library paths, and the release → composition flow works over HTTP.
#[test]
fn handle_batch_release_and_composition_roundtrip() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let id = register(&mut client, 3);

    // Batch: alternating audit/search jobs against the one evaluator.
    let jobs: Vec<Json> = (0..6)
        .map(|j| {
            if j % 2 == 0 {
                Json::object(vec![
                    ("op", "audit".into()),
                    ("k", 1u64.into()),
                    ("c", 0.9.into()),
                ])
            } else {
                Json::object(vec![
                    ("op", "search".into()),
                    ("k", 0u64.into()),
                    ("c", 0.9.into()),
                    ("threads", 2u64.into()),
                ])
            }
        })
        .collect();
    let body = Json::object(vec![("jobs", Json::Array(jobs))]).to_string();
    let r = client.post(&format!("/tables/{id}/batch"), &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let lines = r.ndjson().unwrap();
    assert_eq!(lines.len(), 7, "6 results + summary");
    let (want_value, want_safe) = expected_audit(3);
    let (want_minimal, _, _) = expected_search(3);
    for line in &lines[..6] {
        assert!(line.get("error").is_none(), "{line}");
        assert_eq!(line.get("id").unwrap().as_str(), Some(id.as_str()));
        match line.get("op").unwrap().as_str().unwrap() {
            "audit" => {
                assert_eq!(
                    line.get("max_disclosure")
                        .unwrap()
                        .as_f64()
                        .unwrap()
                        .to_bits(),
                    want_value.to_bits()
                );
                assert_eq!(line.get("safe").unwrap().as_bool(), Some(want_safe));
            }
            "search" => {
                let minimal: Vec<Vec<usize>> = line
                    .get("minimal")
                    .unwrap()
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|n| {
                        n.as_array()
                            .unwrap()
                            .iter()
                            .map(|l| l.as_u64().unwrap() as usize)
                            .collect()
                    })
                    .collect();
                assert_eq!(minimal, want_minimal);
            }
            other => panic!("unexpected op {other}"),
        }
    }
    assert_eq!(lines[6].get("done").unwrap().as_bool(), Some(true));

    // Release twice, audit the composition, compare to the library.
    for node in [[1u64, 1u64], [1, 0]] {
        let body = Json::object(vec![(
            "node",
            Json::Array(node.iter().map(|&l| l.into()).collect()),
        )]);
        let r = client
            .post(&format!("/tables/{id}/release"), &body.to_string())
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let r = client
        .post(
            &format!("/tables/{id}/composition"),
            &Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string(),
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let out = r.json().unwrap();
    assert_eq!(out.get("releases").unwrap().as_u64(), Some(2));
    assert_eq!(out.get("buckets").unwrap().as_u64(), Some(3));
    // Direct: one value pass over the union of the two releases' histograms.
    let table = workload_table(3);
    let age = table.column(0).dictionary().clone();
    let sex = table.column(1).dictionary().clone();
    let lattice = GeneralizationLattice::new(vec![
        (0, Hierarchy::suppression("Age", &age)),
        (1, Hierarchy::suppression("Sex", &sex)),
    ])
    .unwrap();
    let mut histograms = Vec::new();
    for node in [vec![1usize, 1], vec![1, 0]] {
        let b = lattice
            .bucketize(&table, &wcbk_hierarchy::GenNode(node))
            .unwrap();
        histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));
    }
    let set =
        wcbk_core::HistogramSet::new(histograms, table.sensitive_cardinality() as u32).unwrap();
    let engine = DisclosureEngine::new(1);
    let direct = engine.max_disclosure_value_set(&set).unwrap();
    assert_eq!(
        out.get("max_disclosure")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits(),
        direct.to_bits()
    );

    // Info, then drop; the handle is gone (404) afterwards.
    assert_eq!(client.get(&format!("/tables/{id}")).unwrap().status, 200);
    assert_eq!(delete_table(&mut client, &id), 200);
    assert_eq!(client.get(&format!("/tables/{id}")).unwrap().status, 404);
    assert_eq!(
        client
            .post(&format!("/tables/{id}/audit"), "{}")
            .unwrap()
            .status,
        404
    );
    assert_eq!(delete_table(&mut client, &id), 404);
    // Wrong method on a handle action is 405; unknown action 404.
    assert_eq!(
        client.get(&format!("/tables/{id}/audit")).unwrap().status,
        405
    );
    assert_eq!(
        client
            .post(&format!("/tables/{id}/explode"), "{}")
            .unwrap()
            .status,
        404
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Concurrent register / audit / evict / delete races on a tiny session
/// budget: every audit answer is either the table's correct value or a
/// clean 404 (evicted/dropped handle) — never a wrong answer, and the
/// server survives to serve a correct audit afterwards.
#[test]
fn session_eviction_races_never_answer_wrong() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 4,
        limits: wcbk_serve::ServiceLimits {
            // Each 6-row workload table weighs 6 bottom groups: budget 13
            // holds at most two sessions, so registrations evict constantly.
            session_budget: Some(13),
            ..Default::default()
        },
        ..ServerConfig::default()
    });

    let n_tables = 4usize;
    let expected: Vec<(f64, bool)> = (0..n_tables).map(expected_audit).collect();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = connect(addr);
                let audit_body =
                    Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string();
                for round in 0..12 {
                    let i = (worker + round) % n_tables;
                    let id = register(&mut client, i);
                    // Audit the handle we just registered; it may already
                    // have been evicted by a racing registration, or even
                    // deleted by a racing worker — both must be clean 404s.
                    let r = client
                        .post(&format!("/tables/{id}/audit"), &audit_body)
                        .unwrap();
                    match r.status {
                        200 => {
                            let out = r.json().unwrap();
                            assert_eq!(
                                out.get("max_disclosure")
                                    .unwrap()
                                    .as_f64()
                                    .unwrap()
                                    .to_bits(),
                                expected[i].0.to_bits(),
                                "worker {worker} round {round} table {i}: wrong answer"
                            );
                            assert_eq!(out.get("safe").unwrap().as_bool(), Some(expected[i].1));
                        }
                        404 => {} // evicted or deleted underfoot — fine
                        other => panic!("worker {worker} round {round}: HTTP {other}: {}", r.body),
                    }
                    if round % 5 == 4 {
                        // Racing deletes: 200 or 404 both acceptable.
                        let status = delete_table(&mut client, &id);
                        assert!(status == 200 || status == 404, "delete: HTTP {status}");
                    }
                }
            });
        }
    });

    // After the storm: the store is within budget and still serves.
    let mut client = connect(addr);
    let id = register(&mut client, 0);
    let r = client
        .post(
            &format!("/tables/{id}/audit"),
            &Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string(),
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.json()
            .unwrap()
            .get("max_disclosure")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits(),
        expected[0].0.to_bits()
    );
    let stats = client.get("/stats").unwrap().json().unwrap();
    let sessions = stats.get("sessions").unwrap();
    assert!(sessions.get("groups").unwrap().as_u64().unwrap() <= 13);
    assert!(sessions.get("evictions").unwrap().as_u64().unwrap() > 0);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `GET /metrics` serves well-formed Prometheus text: HELP/TYPE lines per
/// family, every pre-registered series present on a cold scrape, and
/// traffic-driven counters moving after requests.
#[test]
fn metrics_exposition_is_well_formed_and_counts_requests() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);

    // Cold scrape: every family is pre-registered, all zeros.
    let cold = client.get("/metrics").unwrap();
    assert_eq!(cold.status, 200);
    assert!(
        cold.header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "{:?}",
        cold.headers
    );
    for family in [
        "wcbk_http_requests_total",
        "wcbk_http_request_micros",
        "wcbk_http_queue_wait_micros",
        "wcbk_http_response_bytes_total",
        "wcbk_http_slow_requests_total",
        "wcbk_sched_steals_total",
        "wcbk_sched_speculated_total",
        "wcbk_sched_abandoned_total",
        "wcbk_search_scan_micros_total",
        "wcbk_search_derive_micros_total",
        "wcbk_search_derived_total",
        "wcbk_search_table_scans_total",
        "wcbk_minimize1_build_micros_total",
        "wcbk_engine_saturated_total",
        "wcbk_store_wal_appends_total",
        "wcbk_pool_entries",
        "wcbk_pool_groups",
        "wcbk_pool_peak_groups",
    ] {
        assert!(
            cold.body.contains(&format!("# TYPE {family} ")),
            "missing TYPE for {family} in:\n{}",
            cold.body
        );
    }
    // Well-formed exposition: every non-comment line is `name{labels} value`.
    for line in cold.body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(
            series.starts_with("wcbk_"),
            "unexpected series name: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "bad value in: {line}"
        );
    }

    // Drive traffic, then check the counters moved.
    let audit = client.post("/audit", &audit_job(0).to_string()).unwrap();
    assert_eq!(audit.status, 200);
    let search = client.post("/search", &search_job(0).to_string()).unwrap();
    assert_eq!(search.status, 200);
    let warm = client.get("/metrics").unwrap().body;
    let series_value = |name: &str| -> f64 {
        warm.lines()
            .filter(|l| l.starts_with(name) && !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
            .sum()
    };
    assert!(
        series_value("wcbk_http_requests_total") >= 3.0,
        "requests_total:\n{warm}"
    );
    assert!(series_value("wcbk_http_response_bytes_total") > 0.0);
    assert!(series_value("wcbk_search_table_scans_total") >= 1.0);
    assert!(series_value("wcbk_minimize1_build_micros_total") > 0.0);
    // Histogram invariant: the +Inf bucket equals the count.
    let inf = warm
        .lines()
        .find(|l| l.starts_with("wcbk_http_queue_wait_micros_bucket") && l.contains("+Inf"))
        .and_then(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .expect("+Inf bucket");
    let count = series_value("wcbk_http_queue_wait_micros_count");
    assert_eq!(inf, count, "{warm}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `/stats` `rollup` and the `/metrics` roll-up series are one sum over the
/// absorbed one-shot searches and the live sessions: after a registration
/// and two handle searches the four shared fields agree.
#[test]
fn stats_rollup_agrees_with_metrics() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let id = register(&mut client, 0);
    let search_body = Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string();
    for _ in 0..2 {
        let r = client
            .post(&format!("/tables/{id}/search"), &search_body)
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let stats = client.get("/stats").unwrap().json().unwrap();
    let rollup = stats.get("rollup").unwrap();
    let metrics = client.get("/metrics").unwrap().body;
    for (field, series) in [
        ("table_scans", "wcbk_search_table_scans_total"),
        ("derived", "wcbk_search_derived_total"),
        ("scan_micros", "wcbk_search_scan_micros_total"),
        ("derive_micros", "wcbk_search_derive_micros_total"),
    ] {
        let exposed = metrics
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {series} in:\n{metrics}"));
        assert_eq!(
            rollup.get(field).and_then(Json::as_u64),
            Some(exposed),
            "{field} vs {series}"
        );
    }
    assert_eq!(rollup.get("table_scans").and_then(Json::as_u64), Some(1));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Trace propagation: a client-supplied `X-Request-Id` is echoed on the
/// response (JSON, plain-text, and chunked alike); absent or garbage ids
/// get a generated one.
#[test]
fn trace_id_echoes_on_every_response_shape() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);

    // Generated when absent.
    let r = client.get("/healthz").unwrap();
    let generated = r.header("x-request-id").expect("generated id").to_owned();
    assert!(!generated.is_empty() && generated.len() <= 64);

    // Echoed verbatim on a JSON response.
    client
        .send_raw(
            format!(
                "POST /audit HTTP/1.1\r\nHost: wcbk\r\nX-Request-Id: trace-me-42\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                audit_job(0).to_string().len(),
                audit_job(0)
            )
            .as_bytes(),
        )
        .unwrap();
    let r = client.read_response().unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-request-id"), Some("trace-me-42"));

    // Echoed on the plain-text /metrics response.
    client
        .send_raw(b"GET /metrics HTTP/1.1\r\nHost: wcbk\r\nX-Request-Id: scrape-7\r\n\r\n")
        .unwrap();
    let r = client.read_response().unwrap();
    assert_eq!(r.header("x-request-id"), Some("scrape-7"));

    // Echoed on a chunked batch response.
    let batch = Json::object(vec![(
        "tables",
        Json::Array(vec![audit_job(0), audit_job(1)]),
    )])
    .to_string();
    client
        .send_raw(
            format!(
                "POST /batch HTTP/1.1\r\nHost: wcbk\r\nX-Request-Id: batch-9\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{batch}",
                batch.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let r = client.read_response().unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-request-id"), Some("batch-9"));
    assert_eq!(r.ndjson().unwrap().len(), 3); // 2 results + summary

    // A header full of control bytes is replaced, not echoed.
    client
        .send_raw(b"GET /healthz HTTP/1.1\r\nHost: wcbk\r\nX-Request-Id: bad\x01id\r\n\r\n")
        .unwrap();
    let r = client.read_response().unwrap();
    let replaced = r.header("x-request-id").expect("replacement id");
    assert_ne!(replaced, "bad\x01id");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `"profile": true` returns a per-phase breakdown whose phases sum
/// exactly to `total_micros`, on both audit and search, without perturbing
/// the verdict.
#[test]
fn profile_flag_returns_phase_breakdown_that_sums_to_total() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);

    let plain = client
        .post("/audit", &audit_job(0).to_string())
        .unwrap()
        .json()
        .unwrap();
    assert!(plain.get("profile").is_none(), "{plain}");

    for job in [audit_job(0), search_job(0)] {
        let mut body = job;
        if let Json::Object(pairs) = &mut body {
            pairs.push(("profile".to_owned(), true.into()));
        }
        let op = body.get("op").and_then(Json::as_str).unwrap().to_owned();
        let out = client
            .post(&format!("/{op}"), &body.to_string())
            .unwrap()
            .json()
            .unwrap();
        let profile = out.get("profile").unwrap_or_else(|| panic!("{out}"));
        let field = |k: &str| profile.get(k).and_then(Json::as_u64).expect(k);
        let (parse, queue, compute, total) = (
            field("parse_micros"),
            field("queue_wait_micros"),
            field("compute_micros"),
            field("total_micros"),
        );
        assert_eq!(parse + queue + compute, total, "{op}: {profile}");
        let detail = profile.get("detail").expect("detail");
        assert!(detail.get("minimize1_build_micros").is_some(), "{detail}");
        // The one-shot table scan happened inside compute, on both ops.
        assert!(detail.get("scan_micros").is_some(), "{detail}");
        assert!(detail.get("derive_micros").is_some(), "{detail}");
        if op == "search" {
            assert!(field("compute_micros") >= 1);
        } else {
            assert!(detail.get("witness_micros").is_some(), "{detail}");
        }
        // The verdict fields are unchanged by profiling.
        assert!(out.get("max_disclosure").is_some() || out.get("minimal").is_some());
    }

    // Profile also rides on /tables/{id}/audit.
    let reg = Json::object(vec![
        ("csv", workload_csv(0).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ]);
    let id = client
        .post("/tables", &reg.to_string())
        .unwrap()
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let out = client
        .post(
            &format!("/tables/{id}/audit"),
            &Json::object(vec![
                ("k", 1u64.into()),
                ("c", 0.9.into()),
                ("profile", true.into()),
            ])
            .to_string(),
        )
        .unwrap()
        .json()
        .unwrap();
    let profile = out.get("profile").unwrap_or_else(|| panic!("{out}"));
    assert!(profile.get("total_micros").is_some(), "{profile}");
    // A registered handle was scanned at registration, never per audit.
    let detail = profile.get("detail").expect("detail");
    assert_eq!(
        detail.get("scan_micros").and_then(Json::as_u64),
        Some(0),
        "{detail}"
    );
    assert!(detail.get("witness_micros").is_some(), "{detail}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// `/stats` reports the observability additions: pool high-water marks and
/// reactor queue-wait totals.
#[test]
fn stats_reports_pool_peaks_and_queue_wait() {
    let (addr, handle, _service, join) = start(ServerConfig::default());
    let mut client = connect(addr);
    let r = client.post("/search", &search_job(0).to_string()).unwrap();
    assert_eq!(r.status, 200);

    let stats = client.get("/stats").unwrap().json().unwrap();
    let engine_cache = stats.get("engine_cache").unwrap();
    assert!(
        engine_cache
            .get("peak_groups")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "{engine_cache}"
    );
    assert!(engine_cache.get("build_micros").is_some());
    let sessions = stats.get("sessions").unwrap();
    assert!(sessions.get("peak_groups").is_some(), "{sessions}");
    let rollup = stats.get("rollup").unwrap();
    assert!(rollup.get("scan_micros").is_some(), "{rollup}");
    assert!(rollup.get("derive_micros").is_some());
    let server = stats.get("server").unwrap();
    let dispatched = server.get("dispatched").and_then(Json::as_u64).unwrap();
    assert!(dispatched >= 1, "{server}");
    assert!(server.get("queue_wait_micros").is_some());

    handle.shutdown();
    join.join().unwrap().unwrap();
}
