//! The traced run: each op of a workload is replayed in process through the
//! public library calls the server makes for it, with no HTTP, and every
//! call is wrapped in a span. Spans are kept in memory and written out at
//! the end; per-layer metrics are their self times.
//!
//! A span marked *probe* is extra work the server does not do for that
//! request (a warm repeat, or a sub-step re-timed in isolation). Probes
//! give per-layer numbers but are left out of a request's layer sum.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wcbk_adversary::ModelId;
use wcbk_anonymize::{
    AuditReport, CkSafetyCriterion, DatasetSession, ModelAuditReport, PrivacyCriterion,
    SearchConfig, SearchReport, SessionOptions,
};
use wcbk_core::minimize2::{minimize2, BucketCosts};
use wcbk_core::{evaluate_work_stealing, EngineRegistry, HistogramSet, MonotoneDag};
use wcbk_hierarchy::{dataset_fingerprint, GenNode, NodeEvaluator, ScanOptions};
use wcbk_serve::http::RequestParser;
use wcbk_serve::{persist, Json};
use wcbk_store::DatasetStore;
use wcbk_table::csv::{CsvReader, RecordSplitter};
use wcbk_table::{ChunkedTableBuilder, Table};

use crate::inputs::{self, delete_request, Dataset, Op, QI, SENSITIVE};
use crate::server::ENGINE_CACHE_CAP;
use crate::Error;

/// The server's request-body cap.
const MAX_BODY: usize = 64 << 20;
/// Socket-read sized pieces the recorded request bytes are fed in.
const PIECE: usize = 64 * 1024;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
    pub probe: bool,
}

/// In-memory span recorder. Root spans (no parent) are requests, named by
/// the endpoint they replay, or `setup`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    pub fn request<T>(&mut self, endpoint: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.record(endpoint, false, f)
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, false, f)
    }

    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        probe: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            probe,
        });
        self.stack.push(index);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans[index].start_ns = start;
        self.spans[index].end_ns = end;
        out
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn write_tsv(&self, path: &Path) -> Result<(), Error> {
        let own = self.self_ns();
        let mut out = String::from("op\tname\tparent\tstart_ns\tend_ns\tself_ns\tprobe\n");
        for (s, own) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{own}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.probe
            );
        }
        std::fs::write(path, out)?;
        Ok(())
    }
}

/// Layer self-time totals over the timed requests of a replay.
#[derive(Default)]
pub struct Layers {
    /// Per span name: (Σ self ns, requests that called the layer).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Per endpoint: (Σ non-probe layer self ns, requests).
    pub by_endpoint: BTreeMap<&'static str, (u64, u64)>,
}

impl Layers {
    pub fn of(tracer: &Tracer) -> Layers {
        let own = tracer.self_ns();
        let mut root_of = vec![0usize; tracer.spans.len()];
        let mut last_root: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut layers = Layers::default();
        for (i, s) in tracer.spans.iter().enumerate() {
            let Some(p) = s.parent else {
                root_of[i] = i;
                if s.name != "setup" {
                    layers.by_endpoint.entry(s.name).or_default().1 += 1;
                }
                continue;
            };
            let root = root_of[p];
            root_of[i] = root;
            let endpoint = tracer.spans[root].name;
            if endpoint == "setup" {
                continue;
            }
            let entry = layers.by_name.entry(s.name).or_default();
            entry.0 += own[i];
            if last_root.insert(s.name, root) != Some(root) {
                entry.1 += 1;
            }
            if !s.probe {
                layers.by_endpoint.entry(endpoint).or_default().0 += own[i];
            }
        }
        layers
    }

    /// Mean self time of layer `name` per request that calls it, in µs (0
    /// when never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3)
    }

    /// Total self time of layer `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e9)
    }
}

/// Roll-up work of the replayed searches, from the evaluator's counters.
#[derive(Default)]
pub struct SearchCounts {
    pub searches: u64,
    pub nodes_evaluated: u64,
    pub derived: u64,
    pub derive_micros: u64,
    pub memo_hits: u64,
}

/// Work-stealing scheduler counts of the probe re-runs of each search.
#[derive(Default)]
pub struct SchedCounts {
    pub runs: u64,
    pub steals: u64,
    pub speculated: u64,
    /// Speculative evaluations discarded or abandoned.
    pub wasted: u64,
}

/// Spans plus the counts the replay takes at span boundaries.
#[derive(Default)]
pub struct Replay {
    pub tracer: Tracer,
    /// (first, warm) times in µs of two audits of one session: their
    /// difference is the lazy exact bucketization.
    pub first_audits: Vec<(f64, f64)>,
    pub search: SearchCounts,
    pub sched: SchedCounts,
    pub scan_rows: u64,
    pub csv_bytes: u64,
    /// Bytes the store wrote (WAL records plus checkpoint catalogs), and
    /// the CSV bytes of the registrations among them.
    pub store_bytes: u64,
    pub registered_csv_bytes: u64,
}

/// Feeds recorded request bytes through the server's incremental parser,
/// in socket-read sized pieces; `stream` hands the body out as it decodes,
/// as the server does for `text/csv` uploads. Returns the body.
fn parse_request(bytes: &[u8], stream: bool) -> Vec<u8> {
    let mut parser = RequestParser::new(MAX_BODY);
    let mut body = Vec::new();
    for piece in bytes.chunks(PIECE) {
        parser.push(piece);
        let next = parser.advance().expect("recorded request parses");
        if stream && parser.head_received() {
            parser.stream_body();
        }
        body.append(&mut parser.take_body());
        if let Some(request) = next {
            body.extend_from_slice(&request.body);
            return body;
        }
    }
    panic!("recorded request is incomplete")
}

/// Records decoded per `table.csv_decode` span before they are encoded.
const BATCH: usize = 4096;

/// Decodes records from `next` and dictionary-encodes them into a table,
/// alternating `table.csv_decode` and `table.dict_encode` spans batch by
/// batch: the server interleaves the two per record, and a span per record
/// would cost more than the work it times.
fn decode_encode(
    t: &mut Tracer,
    mut next: impl FnMut() -> Result<Option<Vec<String>>, Error>,
) -> Result<Table, Error> {
    let header = t.span("table.csv_decode", |_| next())?.ok_or("empty CSV")?;
    let mut builder = ChunkedTableBuilder::new(inputs::schema(&header));
    loop {
        let batch = t.span("table.csv_decode", |_| {
            let mut batch = Vec::with_capacity(BATCH);
            while batch.len() < BATCH {
                match next()? {
                    Some(record) => batch.push(record),
                    None => break,
                }
            }
            Ok::<_, Error>(batch)
        })?;
        let last = batch.len() < BATCH;
        // Records are freed inside the span, right after they are encoded,
        // as the server frees each one.
        t.span("table.dict_encode", |_| {
            for record in batch {
                let trimmed: Vec<&str> = record.iter().map(|s| s.trim()).collect();
                builder.push_row(&trimmed)?;
            }
            Ok::<_, Error>(())
        })?;
        if last {
            return Ok(t.span("table.dict_encode", |_| builder.build()));
        }
    }
}

fn parse_json(t: &mut Tracer, body: &[u8]) -> Result<Json, Error> {
    t.span("serve.json.parse", |_| {
        Ok(Json::parse(std::str::from_utf8(body)?)?)
    })
}

/// The one-shot request prefix: parse, decode the embedded CSV, build the
/// transient session (register → run → drop).
fn oneshot_session(
    t: &mut Tracer,
    request: &[u8],
    env: &Env,
    csv_bytes: &mut u64,
) -> Result<DatasetSession, Error> {
    let body = t.span("serve.http.parse", |_| parse_request(request, false));
    let json = parse_json(t, &body)?;
    let csv = json
        .get("csv")
        .and_then(Json::as_str)
        .ok_or("no csv field")?;
    *csv_bytes += csv.len() as u64;
    let mut reader = CsvReader::new(BufReader::new(csv.as_bytes()));
    let table = decode_encode(t, || Ok(reader.next_record()?))?;
    let lattice = inputs::lattice(&table);
    Ok(DatasetSession::with_options(
        table,
        lattice,
        options(&env.engines),
    )?)
}

/// A (c,k)-safety search on `session`, counting its roll-up work.
fn search(
    t: &mut Tracer,
    counts: &mut SearchCounts,
    session: &DatasetSession,
    criterion: &CkSafetyCriterion,
) -> Result<SearchReport, Error> {
    let before = session
        .rollup_stats()
        .map_or((0, 0, 0), |s| (s.derived, s.derive_micros, s.memo_hits));
    let report = t.span("anonymize.search", |_| {
        session.search(criterion, &SearchConfig::with_threads(2))
    })?;
    counts.searches += 1;
    counts.nodes_evaluated += report.outcome.evaluated as u64;
    if let Some(s) = report.rollup {
        counts.derived += s.derived - before.0;
        counts.derive_micros += s.derive_micros - before.1;
        counts.memo_hits += s.memo_hits - before.2;
    }
    render(t, || search_json(&report, session.lattice().n_nodes()));
    Ok(report)
}

fn render(t: &mut Tracer, build: impl FnOnce() -> Json) -> usize {
    t.span("serve.json.render", |_| build().to_string().len())
}

fn audit_json(r: &AuditReport) -> Json {
    Json::object(vec![
        ("op", "audit".into()),
        ("buckets", r.buckets.into()),
        ("tuples", r.tuples.into()),
        ("domain", r.domain.into()),
        ("k", r.k.into()),
        ("max_disclosure", r.disclosure.value.into()),
        (
            "witness",
            Json::object(vec![
                (
                    "predicts",
                    r.disclosure.witness.consequent.to_string().into(),
                ),
                (
                    "knowing",
                    r.disclosure.witness.knowledge().to_string().into(),
                ),
            ]),
        ),
        ("c", r.c.map(Json::from).unwrap_or(Json::Null)),
        ("safe", r.safe.map(Json::from).unwrap_or(Json::Null)),
    ])
}

fn model_audit_json(r: &ModelAuditReport) -> Json {
    Json::object(vec![
        ("op", "audit".into()),
        ("model", r.model.name().into()),
        ("buckets", r.buckets.into()),
        ("tuples", r.tuples.into()),
        ("k", r.k.into()),
        ("max_disclosure", r.value.into()),
        (
            "witness",
            Json::object(vec![
                ("predicts", r.witness.predicts.as_str().into()),
                ("knowing", r.witness.knowing.join("\n").into()),
            ]),
        ),
        ("safe", r.safe.map(Json::from).unwrap_or(Json::Null)),
    ])
}

fn search_json(r: &SearchReport, nodes: usize) -> Json {
    let minimal: Vec<Json> = r
        .outcome
        .minimal_nodes
        .iter()
        .map(|n| Json::Array(n.0.iter().map(|&l| l.into()).collect()))
        .collect();
    let rollup = r.rollup.map_or(Json::Null, |s| {
        Json::object(vec![
            ("table_scans", s.table_scans.into()),
            ("derived", s.derived.into()),
            ("memo_hits", s.memo_hits.into()),
            ("memo_groups", s.memo_groups.into()),
            ("bottom_groups", s.bottom_groups.into()),
        ])
    });
    Json::object(vec![
        ("op", "search".into()),
        ("qi", Json::Array(QI.iter().map(|&q| q.into()).collect())),
        ("nodes", nodes.into()),
        ("evaluated", r.outcome.evaluated.into()),
        ("satisfied", r.outcome.satisfied.into()),
        ("safe", (!r.outcome.minimal_nodes.is_empty()).into()),
        ("minimal", Json::Array(minimal)),
        ("rollup", rollup),
    ])
}

fn options(engines: &Arc<EngineRegistry>) -> SessionOptions {
    SessionOptions {
        engines: Some(Arc::clone(engines)),
        ..SessionOptions::default()
    }
}

/// Duration of the most recently closed leaf span, in µs.
fn last_us(t: &Tracer) -> f64 {
    let s = t.spans.last().expect("a span was recorded");
    (s.end_ns - s.start_ns) as f64 / 1e3
}

/// Times MINIMIZE2 over the audited grouping's bucket costs (fetched from
/// the engine cache untimed).
fn probe_minimize2(t: &mut Tracer, engines: &EngineRegistry, k: usize, exact: &HistogramSet) {
    let engine = engines.engine(k);
    let costs: Vec<BucketCosts> = exact.histograms().iter().map(|h| engine.costs(h)).collect();
    t.probe("core.minimize2", |_| minimize2(&costs, k).r_min);
}

/// Times `max_disclosure_value_set` on a warm engine cache for each of a
/// search's first three minimal nodes, fetching their histograms from
/// `eval` untimed.
fn probe_disclosure_sets(
    t: &mut Tracer,
    engines: &EngineRegistry,
    k: usize,
    eval: &NodeEvaluator,
    report: &SearchReport,
) -> Result<(), Error> {
    let engine = engines.engine(k);
    for node in report.outcome.minimal_nodes.iter().take(3) {
        let set = eval.histograms(node)?;
        engine.max_disclosure_value_set(&set)?;
        t.probe("core.disclosure_set", |_| {
            engine.max_disclosure_value_set(&set)
        })?;
    }
    Ok(())
}

/// Drains the search's lattice again through the public work-stealing
/// scheduler, with the 2 workers and speculation a `threads: 2` search
/// uses, and counts steals and wasted speculation. (The server's
/// `wcbk_sched_*` counters only count `/batch` runs.)
fn probe_sched(
    t: &mut Tracer,
    counts: &mut SchedCounts,
    eval: &NodeEvaluator,
    criterion: &CkSafetyCriterion,
) -> Result<(), Error> {
    let lattice = eval.lattice();
    let nodes: Vec<GenNode> = lattice.nodes_by_height().into_iter().flatten().collect();
    let index = |n: &GenNode| nodes.iter().position(|m| m == n).expect("lattice node") as u32;
    let preds = nodes
        .iter()
        .map(|n| lattice.predecessors(n).iter().map(index).collect())
        .collect();
    let dag = MonotoneDag::new(preds);
    let outcome = t.probe("core.sched", |_| {
        evaluate_work_stealing(&dag, 2, true, |i| -> Result<bool, Error> {
            Ok(criterion.is_satisfied_hist(&eval.histograms(&nodes[i])?)?)
        })
    })?;
    counts.runs += 1;
    counts.steals += outcome.steals as u64;
    counts.speculated += outcome.speculated as u64;
    counts.wasted += (outcome.discarded + outcome.abandoned) as u64;
    Ok(())
}

/// Bytes a store mutation wrote: the appended record, plus the rewritten
/// catalog when the mutation triggered a checkpoint.
fn store_written(
    store: &DatasetStore,
    dir: &Path,
    checkpoints_before: u64,
    appended: usize,
) -> u64 {
    let mut written = appended as u64;
    if store.stats().checkpoints > checkpoints_before {
        written += std::fs::metadata(dir.join("catalog")).map_or(0, |m| m.len());
    }
    written
}

/// A handle of the handles workload, with what its probes need: the exact
/// grouping's histograms, and a second evaluator (built untimed) that
/// fetches node histograms without touching the session's memo.
struct Handle {
    session: DatasetSession,
    fingerprint: u64,
    exact: HistogramSet,
    probe_eval: NodeEvaluator,
}

/// State shared by every replayed op.
struct Env<'a> {
    datasets: &'a [Dataset],
    ids: Vec<String>,
    handles: Vec<Handle>,
    engines: Arc<EngineRegistry>,
    store: DatasetStore,
    store_dir: &'a Path,
    qi: Vec<String>,
}

/// Replays the workload's warm-up ops untraced, then `seqs` round robin
/// over the connections (so each handle sees its ops in sequence order)
/// until `seconds` pass.
pub fn replay(
    workload: &str,
    datasets: &[Dataset],
    seqs: &[Vec<Op>],
    warmup: &[Op],
    seconds: f64,
    dir: &Path,
) -> Result<Replay, Error> {
    let store_dir = dir.join("trace-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut env = Env {
        datasets,
        ids: Vec::new(),
        handles: Vec::new(),
        engines: Arc::new(EngineRegistry::with_limits(Some(ENGINE_CACHE_CAP), None)),
        store: DatasetStore::open(&store_dir)?,
        store_dir: &store_dir,
        qi: QI.iter().map(|q| q.to_string()).collect(),
    };
    let mut r = Replay::default();
    if workload == "handles" {
        // Registered untimed, as in the HTTP set-up; the first audit of
        // each handle is paired with a warm repeat.
        for d in datasets {
            let table = inputs::table_from_records(inputs::decode_csv(&d.csv));
            let lattice = inputs::lattice(&table);
            let probe_eval = NodeEvaluator::new(&table, &lattice)?;
            let session = DatasetSession::with_options(table, lattice, options(&env.engines))?;
            let fingerprint = session.fingerprint();
            session.has_evaluator();
            let payload = persist::encode_session(&session, &env.qi, SENSITIVE);
            let before = env.store.stats().checkpoints;
            env.store.register(fingerprint, &payload)?;
            r.store_bytes += store_written(&env.store, env.store_dir, before, payload.len());
            r.registered_csv_bytes += d.csv_bytes as u64;
            let exact = probe_eval.histograms(&session.lattice().bottom())?;
            env.ids.push(d.id.clone());
            env.handles.push(Handle {
                session,
                fingerprint,
                exact,
                probe_eval,
            });
        }
        let handles = &env.handles;
        r.tracer.request("setup", |t| {
            for h in handles {
                t.span("anonymize.audit", |_| h.session.audit(None, 1))?;
                let first = last_us(t);
                t.probe("anonymize.audit_warm", |_| h.session.audit(None, 1))?;
                r.first_audits.push((first, last_us(t)));
            }
            Ok::<(), Error>(())
        })?;
    }
    for op in warmup {
        // Warm-up ops fill caches as the HTTP set-up does; their spans are
        // dropped.
        let mark = r.tracer.spans.len();
        replay_op(&mut r, &env, op)?;
        r.tracer.spans.truncate(mark);
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    'run: for i in 0.. {
        for seq in seqs {
            if i > 0 && Instant::now() >= deadline {
                break 'run;
            }
            replay_op(&mut r, &env, &seq[i % seq.len()])?;
        }
    }
    drop(env);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(r)
}

fn replay_op(r: &mut Replay, env: &Env, op: &Op) -> Result<(), Error> {
    let request = op.request(env.datasets, &env.ids);
    let engines = &*env.engines;
    match *op {
        Op::Register { table } => {
            let d = &env.datasets[table];
            let (store, store_dir) = (&env.store, env.store_dir);
            let (session, fingerprint) = r.tracer.request("/tables", |t| {
                let body = t.span("serve.http.parse", |_| parse_request(&request, true));
                let mut splitter = RecordSplitter::new();
                t.span("table.csv_decode", |_| {
                    splitter.push(&body);
                    drop(body);
                });
                let mut finished = false;
                let table = decode_encode(t, || match splitter.next_record()? {
                    Some(record) => Ok(Some(record)),
                    None if finished => Ok(None),
                    None => {
                        finished = true;
                        Ok(splitter.finish()?)
                    }
                })?;
                let lattice = inputs::lattice(&table);
                let fingerprint = t.span("hierarchy.fingerprint", |_| {
                    dataset_fingerprint(&table, &lattice)
                });
                let evaluator = t.span("hierarchy.scan", |_| {
                    NodeEvaluator::shared_with_scan(
                        &table,
                        Arc::new(lattice.clone()),
                        None,
                        ScanOptions::default(),
                    )
                })?;
                r.scan_rows += table.n_rows() as u64;
                r.csv_bytes += d.csv_bytes as u64;
                r.registered_csv_bytes += d.csv_bytes as u64;
                let session = DatasetSession::with_options(table, lattice, options(&env.engines))?;
                let payload = t.span("serve.persist.encode", |_| {
                    persist::encode_session(&session, &env.qi, SENSITIVE)
                });
                let before = store.stats().checkpoints;
                t.span("store.register", |_| store.register(fingerprint, &payload))?;
                r.store_bytes += store_written(store, store_dir, before, payload.len());
                render(t, || {
                    Json::object(vec![
                        ("op", "register".into()),
                        ("id", format!("{fingerprint:016x}").into()),
                        ("created", true.into()),
                        ("rows", d.rows.into()),
                        ("lattice_nodes", session.lattice().n_nodes().into()),
                        ("weight", evaluator.stats().bottom_groups.into()),
                    ])
                });
                Ok::<_, Error>((session, fingerprint))
            })?;
            let delete = delete_request(&d.id);
            r.tracer.request("/tables/{id}", |t| {
                t.span("serve.http.parse", |_| parse_request(&delete, false));
                t.span("store.delete", |_| store.delete(fingerprint))?;
                drop(session);
                render(t, || Json::object(vec![("deleted", true.into())]));
                Ok::<_, Error>(())
            })?;
        }
        Op::OneshotAudit { k, c, .. } => {
            r.tracer.request("/audit", |t| {
                let session = oneshot_session(t, &request, env, &mut r.csv_bytes)?;
                let report = t.span("anonymize.audit", |_| session.audit(Some(c), k))?;
                let first = last_us(t);
                render(t, || audit_json(&report));
                t.probe("anonymize.audit_warm", |_| session.audit(Some(c), k))?;
                r.first_audits.push((first, last_us(t)));
                let lattice = session.lattice();
                let exact = lattice.bucketize(session.table(), &lattice.bottom())?;
                probe_minimize2(t, engines, k, &HistogramSet::from_bucketization(&exact));
                Ok::<_, Error>(())
            })?;
        }
        Op::OneshotSearch { k, c, .. } => {
            r.tracer.request("/search", |t| {
                let session = oneshot_session(t, &request, env, &mut r.csv_bytes)?;
                t.span("hierarchy.scan", |_| session.has_evaluator());
                r.scan_rows += session.table().n_rows() as u64;
                let criterion = CkSafetyCriterion::with_engine(c, session.engine(k))?;
                let report = search(t, &mut r.search, &session, &criterion)?;
                let eval = NodeEvaluator::new(session.table(), session.lattice())?;
                probe_disclosure_sets(t, engines, k, &eval, &report)?;
                probe_sched(t, &mut r.sched, &eval, &criterion)
            })?;
        }
        Op::Audit {
            handle,
            k,
            c,
            model,
            ..
        } => {
            let h = &env.handles[handle];
            r.tracer.request("/tables/{id}/audit", |t| {
                let body = t.span("serve.http.parse", |_| parse_request(&request, false));
                parse_json(t, &body)?;
                if model == ModelId::Conjunction {
                    let report = t.span("anonymize.audit", |_| h.session.audit(Some(c), k))?;
                    render(t, || audit_json(&report));
                    probe_minimize2(t, engines, k, &h.exact);
                } else {
                    let report = t.span("anonymize.audit_model", |_| {
                        h.session.audit_model(model, Some(c), k)
                    })?;
                    render(t, || model_audit_json(&report));
                    let bound = model.resolve(h.session.engine(k));
                    let name = match model {
                        ModelId::Distribution => "adversary.distribution.bound",
                        ModelId::Minimality => "adversary.minimality.bound",
                        _ => "adversary.sequential.bound",
                    };
                    t.probe(name, |_| bound.max_disclosure(&h.exact))?;
                }
                Ok::<_, Error>(())
            })?;
        }
        Op::Search { handle, k, c } => {
            let h = &env.handles[handle];
            r.tracer.request("/tables/{id}/search", |t| {
                let body = t.span("serve.http.parse", |_| parse_request(&request, false));
                parse_json(t, &body)?;
                let criterion = CkSafetyCriterion::with_engine(c, h.session.engine(k))?;
                let report = search(t, &mut r.search, &h.session, &criterion)?;
                probe_disclosure_sets(t, engines, k, &h.probe_eval, &report)?;
                probe_sched(t, &mut r.sched, &h.probe_eval, &criterion)
            })?;
        }
        Op::Release { handle, ref node } => {
            let h = &env.handles[handle];
            let (store, store_dir) = (&env.store, env.store_dir);
            r.tracer.request("/tables/{id}/release", |t| {
                let body = t.span("serve.http.parse", |_| parse_request(&request, false));
                parse_json(t, &body)?;
                let record = persist::encode_release(node, ModelId::Conjunction);
                let before = store.stats().checkpoints;
                t.span("store.append_release", |_| {
                    store.append_release(h.fingerprint, &record)
                })?;
                r.store_bytes += store_written(store, store_dir, before, record.len());
                let report = t.span("anonymize.release", |_| {
                    h.session.release_with_model(node, ModelId::Conjunction)
                })?;
                render(t, || {
                    Json::object(vec![
                        ("op", "release".into()),
                        ("index", report.index.into()),
                        ("buckets", report.buckets.into()),
                        ("total_buckets", report.total_buckets.into()),
                    ])
                });
                Ok::<_, Error>(())
            })?;
        }
        Op::Composition { handle, k, c } => {
            let h = &env.handles[handle];
            r.tracer.request("/tables/{id}/composition", |t| {
                let body = t.span("serve.http.parse", |_| parse_request(&request, false));
                parse_json(t, &body)?;
                let report = t.span("anonymize.composition", |_| {
                    h.session.audit_composition(Some(c), k)
                })?;
                render(t, || {
                    Json::object(vec![
                        ("op", "composition".into()),
                        ("releases", report.releases.into()),
                        ("buckets", report.buckets.into()),
                        ("max_disclosure", report.value.into()),
                        ("safe", report.safe.map(Json::from).unwrap_or(Json::Null)),
                    ])
                });
                Ok::<_, Error>(())
            })?;
        }
    }
    Ok(())
}
