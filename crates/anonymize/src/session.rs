//! The dataset-handle API: **register once, audit forever**.
//!
//! The paper's core loop — publish a candidate generalization, check
//! worst-case (c,k)-disclosure, refine — is inherently *repeated* against
//! one table, and sequential-release monitoring makes the same table the
//! unit of many audits over time. A [`DatasetSession`] is that unit made
//! first-class: built **once** from a table plus its generalization
//! lattice, it owns
//!
//! * the shared roll-up [`NodeEvaluator`] (one columnar scan, built
//!   lazily on first need; every later audit and search derives histograms
//!   from the memo, never re-reading rows — audits read the scan's bottom
//!   histograms and fetch only the persons a witness names),
//! * a [`dataset_fingerprint`] — the stable content identity services key
//!   handles by,
//! * an [`EngineRegistry`] (own or shared with other sessions): one
//!   MINIMIZE1 cache, viewed at any `k`, and
//! * a per-release history for sequential-release composition audits: a
//!   union-of-buckets audit is one MINIMIZE2 pass over every released
//!   bucket, `O(|B|·k²)`, with MINIMIZE1 run only for histogram keys the
//!   shared cache is missing.
//!
//! Searches and sweeps run the same skeletons as the one-shot
//! [`search`](crate::search()) and [`sweep`](crate::sweep), over the
//! session's evaluator instead of a fresh one; of a [`SearchConfig`] only
//! `threads` applies per call, because the memo budget and the scan
//! threads were fixed at registration. Every method returns the **same
//! types as the one-shot entry points** ([`SearchReport`],
//! [`DisclosureResult`], …) with bit-identical values — pinned by
//! `tests/session_equivalence.rs` — so "one-shot" is just
//! "register → run → drop" over this API.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use wcbk_adversary::{CompositionStyle, ModelId, ModelWitness};
use wcbk_core::{
    Bucketization, CkSafety, DisclosureEngine, DisclosureResult, EngineRegistry, HistogramSet,
    SensitiveHistogram,
};
use wcbk_hierarchy::{
    dataset_fingerprint, GenNode, GeneralizationLattice, NodeEvaluator, RollupStats, ScanOptions,
};
use wcbk_table::{SValue, Table, TupleId};

use crate::search::{try_evaluator_shared, SearchConfig, Source};
use crate::{AnonymizeError, PrivacyCriterion, SearchReport};

/// Construction knobs for a [`DatasetSession`].
#[derive(Default, Clone)]
pub struct SessionOptions {
    /// Group budget for the session's roll-up memo (`None` = unbounded);
    /// fixed at registration — per-search configs cannot change it, because
    /// rebuilding the evaluator would re-scan the table.
    pub memo_capacity: Option<usize>,
    /// The engine registry to draw [`DisclosureEngine`]s from. `None` gives
    /// the session a private unbounded registry; services pass one shared
    /// registry so MINIMIZE1 values memoized through any session serve
    /// every other.
    pub engines: Option<Arc<EngineRegistry>>,
    /// Worker threads for the evaluator's one bottom scan (`0` = all
    /// available cores). Bit-neutral — results never depend on it.
    pub scan_threads: usize,
}

/// One audit of the registered dataset: maximum disclosure (with the
/// worst-case witness) at attacker power `k`, plus the (c,k)-safety verdict
/// when a threshold was given. Field values are bit-identical to the
/// one-shot `wcbk audit` path.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Buckets of the exact-quasi-identifier grouping.
    pub buckets: usize,
    /// Tuples in the table.
    pub tuples: u64,
    /// Sensitive domain size.
    pub domain: u32,
    /// Attacker power bound.
    pub k: usize,
    /// Maximum disclosure and its witness.
    pub disclosure: DisclosureResult,
    /// The threshold checked, when given.
    pub c: Option<f64>,
    /// The (c,k)-safety verdict, when `c` was given.
    pub safe: Option<bool>,
}

/// One recorded release of the dataset (a lattice node's bucketization
/// added to the sequential-release history).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseReport {
    /// Zero-based index of this release in the session history.
    pub index: usize,
    /// The node released.
    pub node: GenNode,
    /// Buckets this release contributed.
    pub buckets: usize,
    /// Total buckets across the whole history after this release.
    pub total_buckets: usize,
    /// The adversary model this release was audited under.
    pub model: ModelId,
}

/// A composition audit over **all** recorded releases under an adversary
/// model. `buckets` counts the **effective** buckets the adversary attacks:
/// the released buckets for union-of-buckets models, the common-refinement
/// cells for [`ModelId::Sequential`].
#[derive(Debug, Clone)]
pub struct CompositionReport {
    /// The model the bound was computed under.
    pub model: ModelId,
    /// Releases composed.
    pub releases: usize,
    /// Effective buckets audited (see type docs).
    pub buckets: usize,
    /// Attacker power bound.
    pub k: usize,
    /// The model's worst-case disclosure bound over the composition.
    pub value: f64,
    /// The threshold checked, when given.
    pub c: Option<f64>,
    /// Whether `value < c`, when `c` was given.
    pub safe: Option<bool>,
}

/// An audit of the exact-quasi-identifier grouping under a pluggable
/// [`AdversaryModel`](wcbk_adversary::AdversaryModel) — the model-generic
/// counterpart of [`AuditReport`]. Under [`ModelId::Conjunction`] the value
/// is bit-identical to [`AuditReport::disclosure`]'s.
#[derive(Debug, Clone)]
pub struct ModelAuditReport {
    /// The model the bound was computed under.
    pub model: ModelId,
    /// Buckets of the exact-quasi-identifier grouping.
    pub buckets: usize,
    /// Tuples in the table.
    pub tuples: u64,
    /// Sensitive domain size.
    pub domain: u32,
    /// Attacker power bound.
    pub k: usize,
    /// The model's worst-case disclosure bound.
    pub value: f64,
    /// An adversary achieving the bound.
    pub witness: ModelWitness,
    /// The threshold checked, when given.
    pub c: Option<f64>,
    /// Whether `value < c`, when `c` was given.
    pub safe: Option<bool>,
}

/// The sequential-release history: released bucket histograms in release
/// order, plus per-release bookkeeping (node, buckets contributed, and the
/// adversary model the release was audited under).
struct ReleaseHistory {
    histograms: Vec<SensitiveHistogram>,
    per_release: Vec<(GenNode, usize, ModelId)>,
}

/// Persistent common-refinement composition state (model-independent): for
/// each row, the id of its cell in the common refinement of every release
/// folded in so far. Folding a release is one bucketize + one O(rows)
/// renumbering; audits with no new release reuse the cells as-is.
struct RefinementComp {
    /// Releases already folded into `cells`.
    applied: usize,
    /// Per-row refinement cell ids, numbered by first appearance in row
    /// order (deterministic, so rebuilt sessions re-derive identical ids).
    cells: Vec<u32>,
    n_cells: u32,
}

/// A registered dataset: table + lattice + shared evaluation state — see
/// the module docs.
///
/// The expensive pieces (roll-up evaluator, fingerprint) are built
/// **lazily, at most once**: a transient register → audit → drop or
/// register → search → drop session pays for the one scan and never for
/// the fingerprint. Long-lived services force everything up front
/// (registration reports the fingerprint and the evaluator's weight),
/// after which every path is scan-free. No tuple-level grouping is ever
/// retained.
pub struct DatasetSession {
    table: Table,
    lattice: Arc<GeneralizationLattice>,
    memo_capacity: Option<usize>,
    scan_threads: usize,
    /// Lazily built; the inner `None` means the packed signature overflows
    /// 128 bits and searches fall back to per-node re-scans, exactly like
    /// the one-shot paths.
    evaluator: OnceLock<Option<NodeEvaluator>>,
    fingerprint: OnceLock<u64>,
    engines: Arc<EngineRegistry>,
    releases: Mutex<ReleaseHistory>,
    /// The common refinement of the history, folded release by release
    /// (always locked **after** `releases`; cleared together with it).
    refinement: Mutex<Option<RefinementComp>>,
}

impl DatasetSession {
    /// Registers `table` under `lattice` with default options (private
    /// unbounded engine registry, unbounded memo). The roll-up evaluator
    /// scans the table once, on first need; every audit and search after
    /// that is scan-free.
    pub fn new(table: Table, lattice: GeneralizationLattice) -> Result<Self, AnonymizeError> {
        Self::with_options(table, lattice, SessionOptions::default())
    }

    /// [`DatasetSession::new`] with explicit [`SessionOptions`].
    pub fn with_options(
        table: Table,
        lattice: GeneralizationLattice,
        options: SessionOptions,
    ) -> Result<Self, AnonymizeError> {
        if table.is_empty() {
            return Err(AnonymizeError::InvalidParameter(
                "dataset session needs a non-empty table".into(),
            ));
        }
        Ok(Self {
            table,
            lattice: Arc::new(lattice),
            memo_capacity: options.memo_capacity,
            scan_threads: options.scan_threads,
            evaluator: OnceLock::new(),
            fingerprint: OnceLock::new(),
            engines: options
                .engines
                .unwrap_or_else(|| Arc::new(EngineRegistry::new())),
            releases: Mutex::new(ReleaseHistory {
                histograms: Vec::new(),
                per_release: Vec::new(),
            }),
            refinement: Mutex::new(None),
        })
    }

    /// The shared evaluator, built (one table scan) on first need. `None`
    /// means the packed signature does not fit 128 bits — callers re-scan
    /// per node, like the one-shot paths.
    fn evaluator(&self) -> Option<&NodeEvaluator> {
        self.evaluator
            .get_or_init(|| {
                try_evaluator_shared(
                    &self.table,
                    Arc::clone(&self.lattice),
                    self.memo_capacity,
                    ScanOptions {
                        threads: self.scan_threads,
                        ..ScanOptions::default()
                    },
                )
                .unwrap_or(None)
            })
            .as_ref()
    }

    /// The exact-quasi-identifier grouping, materialized for one call —
    /// only the signature-overflow fallback needs it.
    fn bucketize_bottom(&self) -> Result<Bucketization, AnonymizeError> {
        Ok(self
            .lattice
            .bucketize(&self.table, &self.lattice.bottom())?)
    }

    /// Where node histograms come from: the shared evaluator, or per-call
    /// bucketizations under the fallback.
    fn source(&self) -> Source<'_> {
        Source {
            table: &self.table,
            lattice: &self.lattice,
            evaluator: self.evaluator(),
        }
    }

    /// The histograms of the exact-quasi-identifier grouping: the
    /// evaluator's bottom set (built by the one scan, shared, never
    /// evicted), or a per-call bucketization under the fallback.
    fn bottom_set(&self) -> Result<HistogramSet, AnonymizeError> {
        self.source().histograms(&self.lattice.bottom())
    }

    /// The stable content identity of this dataset (schema roles, hierarchy
    /// maps, dictionaries, row codes) — what services key handles by.
    /// Computed once, on first request.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| dataset_fingerprint(&self.table, &self.lattice))
    }

    /// The registered table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The generalization lattice the session audits against.
    pub fn lattice(&self) -> &GeneralizationLattice {
        &self.lattice
    }

    /// The memo budget fixed at construction (`None` = unbounded). A
    /// durable catalog persists this so a rehydrated session is rebuilt
    /// with the same options it was registered with.
    pub fn memo_capacity(&self) -> Option<usize> {
        self.memo_capacity
    }

    /// The scan thread count fixed at construction (0 = sequential).
    pub fn scan_threads(&self) -> usize {
        self.scan_threads
    }

    /// Whether the roll-up pipeline is active (`false`: the packed
    /// signature overflowed and searches re-scan per node). Forces the
    /// evaluator build.
    pub fn has_evaluator(&self) -> bool {
        self.evaluator().is_some()
    }

    /// Cumulative roll-up counters since the evaluator's one scan (`None`
    /// when the signature-overflow fallback is active). Forces the
    /// evaluator build; `table_scans` stays `1` for the session's whole
    /// life afterwards — the register-once contract.
    pub fn rollup_stats(&self) -> Option<RollupStats> {
        self.evaluator().map(NodeEvaluator::stats)
    }

    /// Like [`rollup_stats`](Self::rollup_stats) but never forces the
    /// evaluator build: returns `None` both when the fallback is active and
    /// when no search has needed the evaluator yet. Profiling callers take
    /// their "before" snapshot through this so the one table scan stays
    /// inside the timed section instead of being pulled forward.
    pub fn rollup_stats_peek(&self) -> Option<RollupStats> {
        self.evaluator
            .get()
            .and_then(|e| e.as_ref())
            .map(NodeEvaluator::stats)
    }

    /// Whether `other` holds exactly the same dataset: same schema (names
    /// and roles), same row codes and dictionary values in every column,
    /// and the same lattice structure (columns, level maps). This is the
    /// collision check behind fingerprint-keyed handle stores — two
    /// distinct datasets colliding on [`fingerprint`](Self::fingerprint)
    /// must be rejected, never silently merged.
    pub fn same_dataset(&self, other: &DatasetSession) -> bool {
        let (a, b) = (&self.table, &other.table);
        if a.n_rows() != b.n_rows() || a.schema().arity() != b.schema().arity() {
            return false;
        }
        let same_attr = a
            .schema()
            .attributes()
            .iter()
            .zip(b.schema().attributes())
            .all(|(x, y)| x.name() == y.name() && x.kind() == y.kind());
        if !same_attr {
            return false;
        }
        for col in 0..a.schema().arity() {
            let (ca, cb) = (a.column(col), b.column(col));
            if ca.codes() != cb.codes() || ca.dictionary().values() != cb.dictionary().values() {
                return false;
            }
        }
        let (la, lb) = (&self.lattice, &other.lattice);
        if la.n_dims() != lb.n_dims() {
            return false;
        }
        (0..la.n_dims()).all(|d| {
            la.column(d) == lb.column(d)
                && la.hierarchy(d).attribute() == lb.hierarchy(d).attribute()
                && la.hierarchy(d).n_levels() == lb.hierarchy(d).n_levels()
                && (0..la.hierarchy(d).n_levels())
                    .all(|l| la.hierarchy(d).level_map(l) == lb.hierarchy(d).level_map(l))
        })
    }

    /// The engine for attacker power `k`: a view over the session
    /// registry's cache — pass one registry to many sessions to share
    /// MINIMIZE1 values across them.
    pub fn engine(&self, k: usize) -> Arc<DisclosureEngine> {
        self.engines.engine(k)
    }

    /// Audits the exact-quasi-identifier grouping at attacker power `k`:
    /// maximum disclosure with witness, plus the (c,k)-safety verdict when
    /// `c` is given. Bit-identical to `wcbk audit` / `POST /audit`.
    ///
    /// The DP runs on the scan's bottom histograms; the witness's persons
    /// (at most `k+1` buckets' leading members) come from one member pass
    /// over the code columns.
    pub fn audit(&self, c: Option<f64>, k: usize) -> Result<AuditReport, AnonymizeError> {
        let engine = self.engines.engine(k);
        let (set, disclosure) = match self.evaluator() {
            Some(eval) => {
                let set = eval.histograms(&self.lattice.bottom())?;
                let disclosure = engine.max_disclosure_set(&set, |requests| {
                    eval.bottom_members(&self.table, requests)
                })?;
                (set, disclosure)
            }
            None => {
                let exact = self.bucketize_bottom()?;
                let disclosure = engine.max_disclosure(&exact)?;
                (HistogramSet::from_bucketization(&exact), disclosure)
            }
        };
        // The verdict `CkSafety::is_safe_set` would give, read off the
        // disclosure just computed instead of running the DP again.
        let safe = match c {
            Some(c) => {
                let c = CkSafety::new(c, k)?.c();
                Some(set.max_frequency_ratio() < c && disclosure.value < c)
            }
            None => None,
        };
        Ok(AuditReport {
            buckets: set.n_buckets(),
            tuples: set.n_tuples(),
            domain: set.domain_size(),
            k,
            disclosure,
            c,
            safe,
        })
    }

    /// Finds all ⪯-minimal nodes satisfying `criterion`, through the
    /// session's shared evaluator — no table scan, whatever `config` says.
    /// The outcome is bit-identical to [`crate::search()`]'s; the report's
    /// `rollup` is the session's **cumulative** counters. Only
    /// `config.threads` is read: the memo budget and the scan threads were
    /// fixed at registration.
    pub fn search<C: PrivacyCriterion>(
        &self,
        criterion: &C,
        config: &SearchConfig,
    ) -> Result<SearchReport, AnonymizeError> {
        let outcome = self.source().search(criterion, config)?;
        Ok(SearchReport {
            outcome,
            rollup: self.rollup_stats(),
        })
    }

    /// Evaluates `criterion` on **every** lattice node (the unpruned
    /// baseline), through the shared evaluator — bit-identical to
    /// [`crate::sweep`].
    pub fn sweep<C: PrivacyCriterion>(
        &self,
        criterion: &C,
    ) -> Result<Vec<(GenNode, bool)>, AnonymizeError> {
        self.source().sweep(criterion)
    }

    /// Records a release of `node`'s bucketization into the
    /// sequential-release history (histograms only — no tuple membership is
    /// retained, matching what a published anatomized table reveals). The
    /// release is tagged with the default (conjunction) adversary model.
    pub fn release(&self, node: &GenNode) -> Result<ReleaseReport, AnonymizeError> {
        self.release_with_model(node, ModelId::Conjunction)
    }

    /// [`DatasetSession::release`] tagged with the adversary model the
    /// release was audited under — what a durable catalog persists so the
    /// node rehydrates under the same model.
    pub fn release_with_model(
        &self,
        node: &GenNode,
        model: ModelId,
    ) -> Result<ReleaseReport, AnonymizeError> {
        let histograms = self.source().histograms(node)?.histograms().to_vec();
        let buckets = histograms.len();
        let mut history = self.releases.lock().expect("release history poisoned");
        history.histograms.extend(histograms);
        history.per_release.push((node.clone(), buckets, model));
        Ok(ReleaseReport {
            index: history.per_release.len() - 1,
            node: node.clone(),
            buckets,
            total_buckets: history.histograms.len(),
            model,
        })
    }

    /// The recorded release history as `(node, buckets)` pairs in release
    /// order. Replaying these nodes through [`DatasetSession::release`] on
    /// a fresh session of the same dataset reproduces the composition
    /// history bit-identically.
    pub fn release_history(&self) -> Vec<(GenNode, usize)> {
        self.releases
            .lock()
            .expect("release history poisoned")
            .per_release
            .iter()
            .map(|(node, buckets, _)| (node.clone(), *buckets))
            .collect()
    }

    /// The recorded release history with model tags, in release order —
    /// what a durable catalog persists and an export endpoint serves.
    pub fn release_history_models(&self) -> Vec<(GenNode, usize, ModelId)> {
        self.releases
            .lock()
            .expect("release history poisoned")
            .per_release
            .clone()
    }

    /// Number of releases recorded so far.
    pub fn releases(&self) -> usize {
        self.releases
            .lock()
            .expect("release history poisoned")
            .per_release
            .len()
    }

    /// Forgets the release history (the next composition starts empty)
    /// along with the common refinement derived from it.
    pub fn clear_releases(&self) {
        let mut history = self.releases.lock().expect("release history poisoned");
        let mut refinement = self.refinement.lock().expect("refinement poisoned");
        history.histograms.clear();
        history.per_release.clear();
        *refinement = None;
    }

    /// Audits the **composition** of every recorded release under the
    /// paper's conjunction adversary: [`DatasetSession::audit_composition_model`]
    /// at [`ModelId::Conjunction`].
    ///
    /// Errors when no release has been recorded.
    pub fn audit_composition(
        &self,
        c: Option<f64>,
        k: usize,
    ) -> Result<CompositionReport, AnonymizeError> {
        self.audit_composition_model(ModelId::Conjunction, c, k)
    }

    /// Audits the exact-quasi-identifier grouping under the adversary
    /// `model` at attacker power `k`: the model's worst-case disclosure
    /// bound plus a reconstructed witness, from one
    /// [`witness`](wcbk_adversary::AdversaryModel::witness) pass, and the
    /// safety verdict when `c` is given. Under [`ModelId::Conjunction`] the
    /// value is bit-identical to [`DatasetSession::audit`].
    pub fn audit_model(
        &self,
        model: ModelId,
        c: Option<f64>,
        k: usize,
    ) -> Result<ModelAuditReport, AnonymizeError> {
        let resolved = model.resolve(self.engines.engine(k));
        let set = self.bottom_set()?;
        let (value, witness) = resolved.witness(&set)?;
        let safe = c
            .map(|c| CkSafety::new(c, k).map(|_| value < c))
            .transpose()?;
        Ok(ModelAuditReport {
            model,
            buckets: set.n_buckets(),
            tuples: set.n_tuples(),
            domain: set.domain_size(),
            k,
            value,
            witness,
            c,
            safe,
        })
    }

    /// Audits the composition of every recorded release under the adversary
    /// `model`, honoring the model's [`CompositionStyle`]:
    ///
    /// - [`CompositionStyle::UnionOfBuckets`] prices the union of all
    ///   released bucket histograms with the model's own bound — for
    ///   [`ModelId::Conjunction`], one MINIMIZE2 pass, `O(|B|·k²)` over the
    ///   union's `|B|` buckets, with MINIMIZE1 run only for histogram keys
    ///   missing from the shared cache.
    /// - [`CompositionStyle::CommonRefinement`] intersects the released
    ///   groupings tuple-by-tuple (the linkage attacker knows each
    ///   individual appears in every release), prices the refined cells,
    ///   and keeps the refined partition in the session so each audit folds
    ///   in only releases recorded since the last one.
    ///
    /// Errors when no release has been recorded.
    pub fn audit_composition_model(
        &self,
        model: ModelId,
        c: Option<f64>,
        k: usize,
    ) -> Result<CompositionReport, AnonymizeError> {
        let resolved = model.resolve(self.engines.engine(k));
        let (releases, set) = match resolved.composition() {
            CompositionStyle::UnionOfBuckets => self.union_composition_set()?,
            CompositionStyle::CommonRefinement => self.refined_composition_set()?,
        };
        let value = resolved.max_disclosure(&set)?;
        let safe = c
            .map(|c| CkSafety::new(c, k).map(|_| value < c))
            .transpose()?;
        Ok(CompositionReport {
            model,
            releases,
            buckets: set.n_buckets(),
            k,
            value,
            c,
            safe,
        })
    }

    /// Every released bucket histogram, in release order, as one set.
    fn union_composition_set(&self) -> Result<(usize, HistogramSet), AnonymizeError> {
        let history = self.releases.lock().expect("release history poisoned");
        if history.per_release.is_empty() {
            return Err(AnonymizeError::InvalidParameter(
                "composition audit needs at least one recorded release".into(),
            ));
        }
        let set = HistogramSet::new(
            history.histograms.clone(),
            self.table.sensitive_cardinality() as u32,
        )?;
        Ok((history.per_release.len(), set))
    }

    /// The common refinement of all recorded releases as a histogram set,
    /// folding releases newer than the cached refined partition into it —
    /// each release costs one bucketization plus one pass over the rows.
    /// Cell ids are assigned by first appearance in row order, so replaying
    /// the same releases on a fresh session reproduces the partition (and
    /// therefore the priced set) bit-identically.
    fn refined_composition_set(&self) -> Result<(usize, HistogramSet), AnonymizeError> {
        let history = self.releases.lock().expect("release history poisoned");
        if history.per_release.is_empty() {
            return Err(AnonymizeError::InvalidParameter(
                "composition audit needs at least one recorded release".into(),
            ));
        }
        let releases = history.per_release.len();
        let rows = self.table.n_rows();
        let mut refinement = self.refinement.lock().expect("refinement poisoned");
        let state = refinement.get_or_insert_with(|| RefinementComp {
            applied: 0,
            cells: vec![0; rows],
            n_cells: 1,
        });
        for (node, _, _) in &history.per_release[state.applied..] {
            let grouping = self.lattice.bucketize(&self.table, node)?;
            let mut owner = vec![0u32; rows];
            for (b, bucket) in grouping.buckets().iter().enumerate() {
                for t in bucket.members() {
                    owner[t.index()] = b as u32;
                }
            }
            let mut renumber: HashMap<(u32, u32), u32> = HashMap::new();
            let mut next = 0u32;
            for (row, &own) in owner.iter().enumerate() {
                let key = (state.cells[row], own);
                let cell = *renumber.entry(key).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                state.cells[row] = cell;
            }
            state.n_cells = next;
        }
        state.applied = releases;
        let mut members: Vec<Vec<SValue>> = vec![Vec::new(); state.n_cells as usize];
        for row in 0..rows {
            members[state.cells[row] as usize]
                .push(self.table.sensitive_value(TupleId(row as u32)));
        }
        let histograms = members
            .iter()
            .map(|vals| SensitiveHistogram::from_values(vals))
            .collect();
        let set = HistogramSet::new(histograms, self.table.sensitive_cardinality() as u32)?;
        Ok((releases, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search, sweep};
    use crate::CkSafetyCriterion;
    use wcbk_hierarchy::Hierarchy;
    use wcbk_table::datasets::hospital_table;

    fn hospital_lattice(table: &Table) -> GeneralizationLattice {
        let zip = table.column(1).dictionary().clone();
        let age = table.column(2).dictionary().clone();
        let sex = table.column(3).dictionary().clone();
        GeneralizationLattice::new(vec![
            (1, Hierarchy::suppression("Zip", &zip)),
            (2, Hierarchy::intervals("Age", &age, &[5]).unwrap()),
            (3, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap()
    }

    fn session() -> DatasetSession {
        let table = hospital_table();
        let lattice = hospital_lattice(&table);
        DatasetSession::new(table, lattice).unwrap()
    }

    /// A table whose four exact-QI `(Zip, Sex)` buckets hold 4, 5, 5 and
    /// 4 distinct diseases: below saturation at every `k ≤ 2`, so audits
    /// run the DP and look MINIMIZE1 entries up. (Every hospital-table
    /// bucket holds one person, saturated at every `k`.)
    fn wide_table() -> (Table, GeneralizationLattice) {
        use wcbk_table::{Attribute, AttributeKind, Schema, TableBuilder};
        let schema = Schema::new(vec![
            Attribute::new("Zip", AttributeKind::QuasiIdentifier),
            Attribute::new("Sex", AttributeKind::QuasiIdentifier),
            Attribute::new("Disease", AttributeKind::Sensitive),
        ])
        .unwrap();
        let mut builder = TableBuilder::new(schema);
        for (zip, sex, diseases) in [
            ("A", "M", "01230"),
            ("A", "F", "12345"),
            ("B", "M", "001234"),
            ("B", "F", "23455"),
        ] {
            for d in diseases.chars() {
                builder.push_row(&[zip, sex, &format!("d{d}")]).unwrap();
            }
        }
        let table = builder.build();
        let zip = table.column(0).dictionary().clone();
        let sex = table.column(1).dictionary().clone();
        let lattice = GeneralizationLattice::new(vec![
            (0, Hierarchy::suppression("Zip", &zip)),
            (1, Hierarchy::suppression("Sex", &sex)),
        ])
        .unwrap();
        (table, lattice)
    }

    #[test]
    fn audit_matches_the_oneshot_engine_path() {
        let s = session();
        for k in 0..=2 {
            let report = s.audit(Some(0.9), k).unwrap();
            // The one-shot path: exact-QI grouping through a fresh engine.
            let table = hospital_table();
            let qi = [1usize, 2, 3];
            let b = Bucketization::from_grouping(&table, |t| {
                qi.iter()
                    .map(|&col| table.column(col).code(t.index()))
                    .collect::<Vec<u32>>()
            })
            .unwrap();
            let engine = DisclosureEngine::new(k);
            let direct = engine.max_disclosure(&b).unwrap();
            assert_eq!(
                report.disclosure.value.to_bits(),
                direct.value.to_bits(),
                "k={k}"
            );
            assert_eq!(report.disclosure.witness, direct.witness, "k={k}");
            assert_eq!(report.buckets, b.n_buckets());
            assert_eq!(report.tuples, b.n_tuples());
            assert_eq!(
                report.safe,
                Some(
                    CkSafety::new(0.9, k)
                        .unwrap()
                        .is_safe_set(&engine, &HistogramSet::from_bucketization(&b))
                        .unwrap()
                )
            );
        }
    }

    /// The audit verdict, derived from the reported disclosure, equals
    /// `is_safe_set` at every threshold — including `c` exactly at the
    /// disclosure value and exactly at the `k = 0` frequency ratio, where
    /// the strict inequalities decide. Grouped by Sex (Figure 3) and not at
    /// all, so both values sit strictly inside `(0, 1)`.
    #[test]
    fn audit_verdict_matches_is_safe_with_on_a_threshold_grid() {
        let table = hospital_table();
        let by_sex = GeneralizationLattice::new(vec![(
            3,
            Hierarchy::suppression("Sex", table.column(3).dictionary()),
        )])
        .unwrap();
        let ungrouped = GeneralizationLattice::new(Vec::new()).unwrap();
        for lattice in [by_sex, ungrouped] {
            let s = DatasetSession::new(table.clone(), lattice).unwrap();
            let exact = &s.bucketize_bottom().unwrap();
            let ratio = exact.max_frequency_ratio();
            assert!(ratio < 1.0);
            for k in 0..=3 {
                let engine = DisclosureEngine::new(k);
                let value = engine.max_disclosure(exact).unwrap().value;
                let mut grid = vec![value, ratio, 1.0, 0.05];
                for x in [value, ratio] {
                    grid.extend([x - 1e-12, x + 1e-12, x / 2.0, (x + 1.0) / 2.0]);
                }
                for c in grid.into_iter().filter(|&c| c > 0.0 && c <= 1.0) {
                    let report = s.audit(Some(c), k).unwrap();
                    let want = CkSafety::new(c, k)
                        .unwrap()
                        .is_safe_set(&engine, &HistogramSet::from_bucketization(exact))
                        .unwrap();
                    assert_eq!(report.safe, Some(want), "k={k} c={c}");
                    assert_eq!(report.disclosure.value.to_bits(), value.to_bits());
                }
                for bad in [0.0, -0.5, 1.5, f64::NAN] {
                    assert!(s.audit(Some(bad), k).is_err(), "k={k} c={bad}");
                }
            }
        }
    }

    #[test]
    fn repeated_audits_never_rescan() {
        let s = session();
        for _ in 0..5 {
            s.audit(Some(0.7), 1).unwrap();
        }
        let stats = s.rollup_stats().unwrap();
        assert_eq!(stats.table_scans, 1, "{stats:?}");
    }

    #[test]
    fn search_and_sweep_match_the_oneshot_paths() {
        let s = session();
        let table = hospital_table();
        let lattice = hospital_lattice(&table);
        for (c, k) in [(0.5, 0), (0.7, 1), (0.9, 1), (1.0, 2)] {
            for config in [
                SearchConfig::default(),
                SearchConfig::with_threads(3),
                SearchConfig::with_threads(2),
            ] {
                let criterion = CkSafetyCriterion::new(c, k).unwrap();
                let via_session = s.search(&criterion, &config).unwrap();
                let direct = search(
                    &table,
                    &lattice,
                    &CkSafetyCriterion::new(c, k).unwrap(),
                    &config,
                )
                .unwrap();
                assert_eq!(
                    via_session.outcome, direct.outcome,
                    "(c,k)=({c},{k}) {config:?}"
                );
            }
            let via_session = s.sweep(&CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            let direct = sweep(&table, &lattice, &CkSafetyCriterion::new(c, k).unwrap()).unwrap();
            assert_eq!(via_session, direct, "sweep (c,k)=({c},{k})");
        }
        // All of the above cost exactly one scan.
        assert_eq!(s.rollup_stats().unwrap().table_scans, 1);
    }

    #[test]
    fn shared_registry_shares_minimize1_tables() {
        let registry = Arc::new(EngineRegistry::new());
        let (table, lattice) = wide_table();
        let s1 = DatasetSession::with_options(
            table.clone(),
            lattice.clone(),
            SessionOptions {
                memo_capacity: None,
                engines: Some(Arc::clone(&registry)),
                scan_threads: 0,
            },
        )
        .unwrap();
        s1.audit(None, 1).unwrap();
        let after_first = registry.stats();
        assert!(after_first.misses > 0);
        // A second session over the same data hits the shared cache.
        let s2 = DatasetSession::with_options(
            table,
            lattice,
            SessionOptions {
                memo_capacity: None,
                engines: Some(registry.clone()),
                scan_threads: 0,
            },
        )
        .unwrap();
        s2.audit(None, 1).unwrap();
        let after_second = registry.stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);
        assert_eq!(after_second.saturated, 0);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn composition_audit_prices_the_union() {
        let s = session();
        assert_eq!(s.releases(), 0);
        assert!(s.audit_composition(None, 1).is_err(), "empty history");

        let lattice = hospital_lattice(&hospital_table());
        let first = s.release(&lattice.top()).unwrap();
        assert_eq!(first.index, 0);
        assert_eq!(first.buckets, 1);
        let node = GenNode(vec![1, 2, 0]); // the Figure 3 by-sex split
        let second = s.release(&node).unwrap();
        assert_eq!(second.index, 1);
        assert_eq!(second.total_buckets, 3);

        let report = s.audit_composition(Some(0.9), 1).unwrap();
        assert_eq!(report.model, ModelId::Conjunction);
        assert_eq!(report.releases, 2);
        assert_eq!(report.buckets, 3);

        // Direct recomputation over the concatenated histograms.
        let table = hospital_table();
        let mut histograms: Vec<SensitiveHistogram> = Vec::new();
        for n in [lattice.top(), node] {
            let b = lattice.bucketize(&table, &n).unwrap();
            histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));
        }
        let set = HistogramSet::new(histograms, b_domain(&table)).unwrap();
        let engine = DisclosureEngine::new(1);
        let direct = engine.max_disclosure_value_set(&set).unwrap();
        assert_eq!(report.value.to_bits(), direct.to_bits());
        assert_eq!(report.safe, Some(direct < 0.9));

        s.clear_releases();
        assert_eq!(s.releases(), 0);
    }

    fn b_domain(table: &Table) -> u32 {
        table.sensitive_cardinality() as u32
    }

    /// The conjunction model through the plugin surface is bit-identical
    /// to the classic audit path — value bits and safety verdict.
    #[test]
    fn model_audit_conjunction_is_bit_identical_to_plain_audit() {
        let s = session();
        for k in 0..=2 {
            let plain = s.audit(Some(0.9), k).unwrap();
            let model = s.audit_model(ModelId::Conjunction, Some(0.9), k).unwrap();
            assert_eq!(model.value.to_bits(), plain.disclosure.value.to_bits());
            assert_eq!(model.safe, plain.safe);
            assert_eq!(model.buckets, plain.buckets);
            assert_eq!(model.tuples, plain.tuples);
            assert_eq!(model.k, k);
            assert!(!model.witness.predicts.is_empty());
        }
    }

    /// A model audit takes its bound and witness from one MINIMIZE2 pass:
    /// on a fresh registry it looks each bucket up once, not once for the
    /// bound and again for the witness.
    #[test]
    fn sequential_model_audit_looks_up_each_bucket_once() {
        let (table, lattice) = wide_table();
        let s = DatasetSession::new(table, lattice).unwrap();
        let report = s.audit_model(ModelId::Sequential, Some(0.9), 2).unwrap();
        let stats = s.engine(2).stats();
        assert_eq!(report.buckets, 4);
        assert_eq!(stats.hits + stats.misses, report.buckets as u64);
        assert_eq!(stats.saturated, 0);
    }

    /// A saturated audit (`k + 1 ≥ d_min`; each hospital bucket holds one
    /// person) answers disclosure 1, unsafe, with its witness, and makes
    /// no cache lookup.
    #[test]
    fn saturated_audit_makes_no_lookups() {
        let s = session();
        let report = s.audit(Some(0.9), 1_000_000_000).unwrap();
        assert_eq!(report.disclosure.value, 1.0);
        assert_eq!(report.safe, Some(false));
        let stats = s.engine(0).stats();
        assert_eq!((stats.hits, stats.misses, stats.saturated), (0, 0, 1));
    }

    /// A composition audit re-prices the whole union but builds MINIMIZE1
    /// values only for keys the shared cache lacks: a repeat audit builds
    /// none, and an audit after one more release builds at most that
    /// release's bucket count — observed through the cache's miss counter.
    /// Values stay bit-identical to a fresh engine over the whole union.
    #[test]
    fn composition_cache_folds_only_new_buckets() {
        let s = session();
        let lattice = hospital_lattice(&hospital_table());
        let engine = s.engine(1);
        s.release(&lattice.top()).unwrap();
        s.release(&GenNode(vec![1, 2, 0])).unwrap();

        let first = s.audit_composition(None, 1).unwrap();
        let after_build = engine.stats();

        // No new release: every key is cached.
        let repeat = s.audit_composition(None, 1).unwrap();
        assert_eq!(repeat.value.to_bits(), first.value.to_bits());
        assert_eq!(engine.stats().misses, after_build.misses);

        // One more release: at most its buckets are built.
        let third = s.release(&GenNode(vec![1, 1, 1])).unwrap();
        let report = s.audit_composition(None, 1).unwrap();
        let built = engine.stats().misses - after_build.misses;
        assert!(
            built <= third.buckets as u64,
            "released {} buckets, built {built}",
            third.buckets
        );

        // Bit-identical to a fresh engine over the whole union.
        let table = hospital_table();
        let mut histograms: Vec<SensitiveHistogram> = Vec::new();
        for n in [
            lattice.top(),
            GenNode(vec![1, 2, 0]),
            GenNode(vec![1, 1, 1]),
        ] {
            let b = lattice.bucketize(&table, &n).unwrap();
            histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));
        }
        let set = HistogramSet::new(histograms, b_domain(&table)).unwrap();
        let direct = DisclosureEngine::new(1)
            .max_disclosure_value_set(&set)
            .unwrap();
        assert_eq!(report.value.to_bits(), direct.to_bits());
        assert_eq!(report.buckets, set.n_buckets());
    }

    /// `audit_composition` is `audit_composition_model` under the
    /// conjunction model — identical reports.
    #[test]
    fn model_composition_conjunction_is_bit_identical_to_plain() {
        let s = session();
        let lattice = hospital_lattice(&hospital_table());
        s.release(&lattice.top()).unwrap();
        s.release(&GenNode(vec![1, 2, 0])).unwrap();
        for k in 0..=2 {
            let plain = s.audit_composition(Some(0.9), k).unwrap();
            let model = s
                .audit_composition_model(ModelId::Conjunction, Some(0.9), k)
                .unwrap();
            assert_eq!(model.value.to_bits(), plain.value.to_bits());
            assert_eq!(model.safe, plain.safe);
            assert_eq!(model.releases, plain.releases);
            assert_eq!(model.buckets, plain.buckets);
        }
    }

    /// The sequential model composes by **common refinement**: the linked
    /// adversary confines each tuple to the intersection of its buckets
    /// across releases, so the audited set is the per-row
    /// (bucket-in-A, bucket-in-B) partition — not the union of histograms.
    #[test]
    fn sequential_composition_prices_the_common_refinement() {
        let s = session();
        let table = hospital_table();
        let lattice = hospital_lattice(&table);
        let by_sex = GenNode(vec![1, 2, 0]);
        let by_age = GenNode(vec![1, 1, 1]);
        s.release_with_model(&by_sex, ModelId::Sequential).unwrap();
        s.release_with_model(&by_age, ModelId::Sequential).unwrap();
        let report = s
            .audit_composition_model(ModelId::Sequential, None, 1)
            .unwrap();

        // Manual refinement: group rows on their (bucket-in-A, bucket-in-B)
        // pair and price the resulting cells through the same engine.
        let a = lattice.bucketize(&table, &by_sex).unwrap();
        let b = lattice.bucketize(&table, &by_age).unwrap();
        let rows = table.n_rows();
        let mut owner_a = vec![0usize; rows];
        let mut owner_b = vec![0usize; rows];
        for (i, bucket) in a.buckets().iter().enumerate() {
            for t in bucket.members() {
                owner_a[t.index()] = i;
            }
        }
        for (i, bucket) in b.buckets().iter().enumerate() {
            for t in bucket.members() {
                owner_b[t.index()] = i;
            }
        }
        let mut cells: HashMap<(usize, usize), Vec<SValue>> = HashMap::new();
        for row in 0..rows {
            cells
                .entry((owner_a[row], owner_b[row]))
                .or_default()
                .push(table.sensitive_value(TupleId(row as u32)));
        }
        let histograms: Vec<SensitiveHistogram> = cells
            .values()
            .map(|vals| SensitiveHistogram::from_values(vals))
            .collect();
        assert_eq!(report.buckets, histograms.len());
        let set = HistogramSet::new(histograms, b_domain(&table)).unwrap();
        let direct = DisclosureEngine::new(1)
            .max_disclosure_value_set(&set)
            .unwrap();
        assert_eq!(report.value.to_bits(), direct.to_bits());

        // Folding is idempotent: a repeat audit reuses the cached cells.
        let repeat = s
            .audit_composition_model(ModelId::Sequential, None, 1)
            .unwrap();
        assert_eq!(repeat.value.to_bits(), report.value.to_bits());
        assert_eq!(repeat.buckets, report.buckets);

        // The linked adversary is at least as strong as union-of-buckets.
        let union = s.audit_composition(None, 1).unwrap();
        assert!(report.value >= union.value);
    }

    /// Stateless union models (distribution, minimality) price the union
    /// of released histograms directly.
    #[test]
    fn stateless_models_compose_over_the_union() {
        let s = session();
        let table = hospital_table();
        let lattice = hospital_lattice(&table);
        s.release(&lattice.top()).unwrap();
        s.release(&GenNode(vec![1, 2, 0])).unwrap();
        let mut histograms: Vec<SensitiveHistogram> = Vec::new();
        for n in [lattice.top(), GenNode(vec![1, 2, 0])] {
            let b = lattice.bucketize(&table, &n).unwrap();
            histograms.extend(b.buckets().iter().map(|x| x.histogram().clone()));
        }
        let set = HistogramSet::new(histograms, b_domain(&table)).unwrap();
        for model in [ModelId::Distribution, ModelId::Minimality] {
            let report = s.audit_composition_model(model, None, 2).unwrap();
            let direct = model.resolve(s.engine(2)).max_disclosure(&set).unwrap();
            assert_eq!(report.value.to_bits(), direct.to_bits());
            assert_eq!(report.buckets, set.n_buckets());
        }
    }

    /// `clear_releases` drops the common refinement along with the history
    /// — a later composition starts from scratch, not from stale cells.
    #[test]
    fn clear_releases_resets_composition_state() {
        let s = session();
        let lattice = hospital_lattice(&hospital_table());
        s.release(&lattice.top()).unwrap();
        s.release(&GenNode(vec![1, 2, 0])).unwrap();
        s.audit_composition(None, 1).unwrap();
        s.audit_composition_model(ModelId::Sequential, None, 1)
            .unwrap();
        s.clear_releases();
        assert!(s.audit_composition(None, 1).is_err());

        s.release(&GenNode(vec![1, 2, 0])).unwrap();
        let after = s.audit_composition(None, 1).unwrap();
        let seq_after = s
            .audit_composition_model(ModelId::Sequential, None, 1)
            .unwrap();

        let fresh = session();
        fresh.release(&GenNode(vec![1, 2, 0])).unwrap();
        let expected = fresh.audit_composition(None, 1).unwrap();
        let seq_expected = fresh
            .audit_composition_model(ModelId::Sequential, None, 1)
            .unwrap();
        assert_eq!(after.value.to_bits(), expected.value.to_bits());
        assert_eq!(after.buckets, expected.buckets);
        assert_eq!(seq_after.value.to_bits(), seq_expected.value.to_bits());
        assert_eq!(seq_after.buckets, seq_expected.buckets);
    }

    /// Model tags ride the release history (what a durable catalog
    /// persists), while the untagged accessor stays shape-compatible.
    #[test]
    fn release_history_carries_model_tags() {
        let s = session();
        let lattice = hospital_lattice(&hospital_table());
        let plain = s.release(&lattice.top()).unwrap();
        assert_eq!(plain.model, ModelId::Conjunction);
        let tagged = s
            .release_with_model(&GenNode(vec![1, 2, 0]), ModelId::Distribution)
            .unwrap();
        assert_eq!(tagged.model, ModelId::Distribution);
        let tags: Vec<ModelId> = s
            .release_history_models()
            .into_iter()
            .map(|(_, _, m)| m)
            .collect();
        assert_eq!(tags, vec![ModelId::Conjunction, ModelId::Distribution]);
        assert_eq!(
            s.release_history(),
            s.release_history_models()
                .into_iter()
                .map(|(n, b, _)| (n, b))
                .collect::<Vec<_>>()
        );
    }

    /// The fingerprint-collision guard: identical datasets compare equal;
    /// any difference in rows, values, or hierarchy structure does not.
    #[test]
    fn same_dataset_detects_content_differences() {
        let table = hospital_table();
        let a = DatasetSession::new(table.clone(), hospital_lattice(&table)).unwrap();
        let b = DatasetSession::new(table.clone(), hospital_lattice(&table)).unwrap();
        assert!(a.same_dataset(&b));
        assert!(b.same_dataset(&a));

        // Different hierarchy structure over the same table.
        let zip = table.column(1).dictionary().clone();
        let narrower =
            GeneralizationLattice::new(vec![(1, Hierarchy::suppression("Zip", &zip))]).unwrap();
        let c = DatasetSession::new(table.clone(), narrower).unwrap();
        assert!(!a.same_dataset(&c));

        // Different rows.
        let mut builder = wcbk_table::TableBuilder::new(table.schema().clone());
        builder
            .push_row(&["Zed", "13068", "21", "M", "Flu"])
            .unwrap();
        let other = builder.build();
        let lattice = GeneralizationLattice::new(vec![(
            1,
            Hierarchy::suppression("Zip", other.column(1).dictionary()),
        )])
        .unwrap();
        let d = DatasetSession::new(other, lattice).unwrap();
        assert!(!c.same_dataset(&d));
    }

    #[test]
    fn empty_tables_are_rejected_at_registration() {
        let table = hospital_table();
        let schema = table.schema().clone();
        let empty = wcbk_table::TableBuilder::new(schema).build();
        let lattice = GeneralizationLattice::new(Vec::new()).unwrap();
        assert!(DatasetSession::new(empty, lattice).is_err());
    }

    #[test]
    fn zero_quasi_identifiers_means_one_bucket() {
        // An empty lattice (no dims) groups everything into one bucket —
        // the `wcbk audit` behavior with no --qi.
        let table = hospital_table();
        let lattice = GeneralizationLattice::new(Vec::new()).unwrap();
        let s = DatasetSession::new(table, lattice).unwrap();
        let report = s.audit(Some(0.9), 0).unwrap();
        assert_eq!(report.buckets, 1);
        assert_eq!(report.tuples, 10);
    }
}
