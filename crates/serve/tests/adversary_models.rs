//! Integration tests for the adversary-model plugin surface on the HTTP
//! service: `"model"` selection on `/audit`, `/search`, release and
//! composition endpoints, per-model `/metrics` families, and — the
//! durability pin — a non-conjunction release history that round-trips
//! through a server restart with byte-identical answers.

use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wcbk_anonymize::MODEL_NAMES;
use wcbk_serve::http::client::Client;
use wcbk_serve::json::Json;
use wcbk_serve::service::{AuditService, ServeError};
use wcbk_serve::{Server, ServerConfig};

const HOSPITAL_CSV: &str = "Age,Sex,Disease\n\
                            21,M,Flu\n22,F,Flu\n23,M,Cold\n24,F,Cold\n\
                            31,M,Flu\n32,F,Cold\n33,M,Cold\n34,F,Flu\n";

fn register_request() -> Json {
    Json::object(vec![
        ("csv", HOSPITAL_CSV.into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ])
}

fn audit_request(model: Option<&str>) -> Json {
    let mut fields = vec![
        ("csv", Json::from(HOSPITAL_CSV)),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ("k", 1u64.into()),
        ("c", 0.9.into()),
    ];
    if let Some(m) = model {
        fields.push(("model", m.into()));
    }
    Json::object(fields)
}

#[test]
fn unknown_model_is_a_400_listing_the_registry() {
    let service = AuditService::new();
    let err = service.audit(&audit_request(Some("bogus"))).unwrap_err();
    match err {
        ServeError::BadRequest(m) => {
            assert!(m.contains("conjunction"), "registry not listed: {m}");
            assert!(m.contains("sequential"), "registry not listed: {m}");
        }
        other => panic!("expected a 400, got {other:?}"),
    }
}

/// `"model": "conjunction"` (and an absent model) keep the classic
/// response bytes — the plugin layer is invisible until opted into.
#[test]
fn conjunction_model_is_byte_identical_to_absent() {
    let service = AuditService::new();
    let classic = service.audit(&audit_request(None)).unwrap().to_string();
    let tagged = service
        .audit(&audit_request(Some("conjunction")))
        .unwrap()
        .to_string();
    assert_eq!(classic, tagged);
    assert!(!classic.contains("\"model\""));
}

#[test]
fn model_audits_report_their_language_and_witness() {
    let service = AuditService::new();
    for model in ["distribution", "minimality", "sequential"] {
        let out = service.audit(&audit_request(Some(model))).unwrap();
        assert_eq!(out.get("model").and_then(Json::as_str), Some(model));
        let value = out.get("max_disclosure").and_then(Json::as_f64).unwrap();
        assert!(value > 0.0 && value <= 1.0, "{model}: {value}");
        let witness = out.get("witness").unwrap();
        assert!(!witness
            .get("predicts")
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());
    }
}

/// `"profile"` is honored and validated the same way under every model:
/// `true` appends a `profile` object with the compute time and otherwise
/// leaves the response untouched, and a non-boolean is the same 400.
#[test]
fn every_model_audit_honors_and_validates_profile() {
    let service = AuditService::new();
    let with_profile = |model: &str, profile: Json| {
        let mut request = audit_request(Some(model));
        if let Json::Object(fields) = &mut request {
            fields.push(("profile".to_owned(), profile));
        }
        service.audit(&request)
    };
    let bad_profile_message = |model: &str| match with_profile(model, "yes".into()) {
        Err(ServeError::BadRequest(m)) => m,
        other => panic!("{model}: expected a 400, got {other:?}"),
    };
    let conjunction_message = bad_profile_message("conjunction");
    for model in MODEL_NAMES {
        let plain = service.audit(&audit_request(Some(model))).unwrap();
        let mut profiled = with_profile(model, true.into()).unwrap();
        let compute = profiled
            .get("profile")
            .and_then(|p| p.get("compute_micros"))
            .and_then(Json::as_u64);
        assert!(compute.is_some(), "{model}: no profile.compute_micros");
        if let Json::Object(fields) = &mut profiled {
            fields.retain(|(key, _)| key != "profile");
        }
        assert_eq!(profiled.to_string(), plain.to_string(), "{model}");
        assert_eq!(bad_profile_message(model), conjunction_message, "{model}");
    }
}

/// Searching under a model threads it into the criterion (visible in the
/// criterion name) and tags the response.
#[test]
fn model_search_uses_the_model_criterion() {
    let service = AuditService::new();
    let id = service
        .register_table(&register_request())
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let search = |model: Option<&str>, handle: bool| {
        let mut fields = vec![
            ("k", Json::from(2u64)),
            ("c", 0.9.into()),
            (
                "hierarchy",
                Json::object(vec![("Age", Json::Array(vec![10u64.into()]))]),
            ),
        ];
        if let Some(m) = model {
            fields.push(("model", m.into()));
        }
        if handle {
            service.session_search(&id, &Json::object(fields)).unwrap()
        } else {
            let request = Json::object(
                [
                    ("csv", Json::from(HOSPITAL_CSV)),
                    ("sensitive", "Disease".into()),
                    ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
                ]
                .into_iter()
                .chain(fields)
                .collect(),
            );
            service.search(&request).unwrap()
        }
    };
    for handle in [false, true] {
        let criterion = |out: &Json| {
            out.get("criterion")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        };
        // An absent model and the conjunction model search under the
        // paper's (c,k)-safety, and the response stays model-free.
        for model in [None, Some("conjunction")] {
            let out = search(model, handle);
            assert_eq!(criterion(&out), "(0.9,2)-safety", "{model:?}");
            assert!(out.get("model").is_none(), "{model:?}");
        }
        for name in &MODEL_NAMES[1..] {
            let out = search(Some(name), handle);
            assert_eq!(criterion(&out), format!("(0.9,2)-{name}"));
            assert_eq!(out.get("model").and_then(Json::as_str), Some(*name));
        }
    }
}

/// Model-tagged releases flow through history and composition: the
/// sequential adversary's common-refinement bound is at least the
/// union-of-buckets bound over the same history.
#[test]
fn model_release_history_and_composition_flow() {
    let service = AuditService::new();
    let id = service
        .register_table(&register_request())
        .unwrap()
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let release = |node: Vec<u64>, model: Option<&str>| {
        let mut fields = vec![(
            "node",
            Json::Array(node.into_iter().map(Json::from).collect()),
        )];
        if let Some(m) = model {
            fields.push(("model", m.into()));
        }
        Json::object(fields)
    };
    let tagged = service
        .session_release(&id, &release(vec![1, 0], Some("sequential")))
        .unwrap();
    assert_eq!(
        tagged.get("model").and_then(Json::as_str),
        Some("sequential")
    );
    let plain = service
        .session_release(&id, &release(vec![0, 1], None))
        .unwrap();
    assert!(plain.get("model").is_none());

    let history = service.table_history(&id).unwrap();
    let entries = history.get("history").and_then(Json::as_array).unwrap();
    assert_eq!(
        entries[0].get("model").and_then(Json::as_str),
        Some("sequential")
    );
    assert!(entries[1].get("model").is_none());

    let params = |model: Option<&str>| {
        let mut fields = vec![("k", Json::from(1u64)), ("c", 0.9.into())];
        if let Some(m) = model {
            fields.push(("model", m.into()));
        }
        Json::object(fields)
    };
    let union = service.session_composition(&id, &params(None)).unwrap();
    let refined = service
        .session_composition(&id, &params(Some("sequential")))
        .unwrap();
    assert_eq!(
        refined.get("model").and_then(Json::as_str),
        Some("sequential")
    );
    let vu = union.get("max_disclosure").and_then(Json::as_f64).unwrap();
    let vr = refined
        .get("max_disclosure")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        vr >= vu,
        "refinement ({vr}) must be at least as disclosive as union ({vu})"
    );
    // Repeat audits reuse the cached refinement and stay identical.
    let again = service
        .session_composition(&id, &params(Some("sequential")))
        .unwrap();
    assert_eq!(again.to_string(), refined.to_string());
}

/// The full per-(model, op) matrix is pre-registered at zero and counts
/// requests as they happen.
#[test]
fn model_request_metrics_accumulate() {
    let service = AuditService::new();
    let metrics = wcbk_serve::metrics::ServeMetrics::new();
    let cold = metrics.render(&service);
    assert!(
        cold.contains("wcbk_model_requests_total{model=\"sequential\",op=\"composition\"} 0"),
        "cold scrape missing a matrix cell:\n{cold}"
    );
    service.audit(&audit_request(Some("distribution"))).unwrap();
    service.audit(&audit_request(None)).unwrap();
    let hot = metrics.render(&service);
    assert!(hot.contains("wcbk_model_requests_total{model=\"distribution\",op=\"audit\"} 1"));
    assert!(hot.contains("wcbk_model_requests_total{model=\"conjunction\",op=\"audit\"} 1"));
}

// ---- Durability: a non-conjunction history survives a restart. ----

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wcbk-models-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

type Running = (
    SocketAddr,
    wcbk_serve::ServerHandle,
    Arc<AuditService>,
    std::thread::JoinHandle<std::io::Result<()>>,
);

fn start(config: ServerConfig) -> Running {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let service = server.service();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, service, join)
}

/// A sequential-model release history rehydrates under the model it was
/// audited with: history, model audit, and model composition answers are
/// byte-identical across a restart on the same data dir.
#[test]
fn model_releases_round_trip_through_restart_byte_equal() {
    let scratch = Scratch::new("restart");
    let config = || ServerConfig {
        data_dir: Some(scratch.0.clone()),
        ..ServerConfig::default()
    };
    let connect = |addr| Client::connect(addr, Some(Duration::from_secs(30))).expect("connect");

    let (addr, handle, service, join) = start(config());
    let mut client = connect(addr);
    let reg = client
        .post("/tables", &register_request().to_string())
        .unwrap();
    assert_eq!(reg.status, 200, "register: {}", reg.body);
    let id = reg
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    for (node, model) in [("[1,0]", "sequential"), ("[0,1]", "distribution")] {
        let body = format!("{{\"node\": {node}, \"model\": \"{model}\"}}");
        let r = client
            .post(&format!("/tables/{id}/release"), &body)
            .unwrap();
        assert_eq!(r.status, 200, "release: {}", r.body);
    }
    let model_body = "{\"k\": 1, \"c\": 0.9, \"model\": \"sequential\"}";
    let audit_before = client
        .post(&format!("/tables/{id}/audit"), model_body)
        .unwrap();
    assert_eq!(audit_before.status, 200, "audit: {}", audit_before.body);
    let composition_before = client
        .post(&format!("/tables/{id}/composition"), model_body)
        .unwrap();
    assert_eq!(composition_before.status, 200);
    let history_before = client.get(&format!("/tables/{id}/history")).unwrap();
    assert!(history_before.body.contains("sequential"));
    drop(client);
    handle.shutdown();
    join.join().unwrap().unwrap();
    drop(service);

    let (addr, handle, service, join) = start(config());
    let mut client = connect(addr);
    let history_after = client.get(&format!("/tables/{id}/history")).unwrap();
    assert_eq!(
        history_after.body, history_before.body,
        "model-tagged history drifted"
    );
    let audit_after = client
        .post(&format!("/tables/{id}/audit"), model_body)
        .unwrap();
    assert_eq!(
        audit_after.body, audit_before.body,
        "model audit drifted across restart"
    );
    let composition_after = client
        .post(&format!("/tables/{id}/composition"), model_body)
        .unwrap();
    assert_eq!(
        composition_after.body, composition_before.body,
        "model composition drifted across restart"
    );
    drop(client);
    handle.shutdown();
    join.join().unwrap().unwrap();
    drop(service);
}
