//! The traced pass: spans recorded from the benchmark's own code around
//! calls into each layer's public entry points, kept in memory and
//! written out at exit.
//!
//! The end-to-end call (`deliver`, `deliver_batch`, an audit pass) is the
//! parent span of a request. Each layer's entry point is then called
//! again on the identical inputs — the same request, the same pinned
//! warehouse snapshot, the same journal entry — and recorded as a child
//! span of it. A span's self time is its duration minus its children's;
//! the parent's self time is the residual no layer call accounts for.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bi_core::audit::{AuditEntry, AuditLog, Outcome};
use bi_core::etl::{check_pipeline, run_pipeline_with, Pipeline};
use bi_core::exec::{ExecConfig, ObsSnapshot};
use bi_core::pla::{CheckProgram, CombinedPolicy};
use bi_core::query::Catalog;
use bi_core::report::{render_checked, EngineConfig, ReportSpec};
use bi_core::types::SourceId;
use bi_core::warehouse::Warehouse;
use bi_core::{read_wal, BiSystem, WalRecord, WalWriter};

use crate::stats::{mean, median, ratio};
use crate::Report;

/// One recorded span. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// MVCC resolutions made by the audit probes: (exact, fallback).
    pub resolves: (u64, u64),
    /// Entries in the journal slice the audit probes ran over.
    pub journal_len: usize,
    /// Entries the dispute probe ran over.
    pub dispute_entries: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            resolves: (0, 0),
            journal_len: 0,
            dispute_entries: 0,
        }
    }

    /// Runs `f` as span `name`; returns its result and the span id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (out, id)
    }

    /// Durations of every span called `name`, in seconds.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64())
            .collect()
    }

    /// Self times of every span called `name` (its duration minus its
    /// children's), in seconds.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        let child = self.child_secs();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() - child.get(&s.id).copied().unwrap_or(0.0))
            .collect()
    }

    /// Summed child durations per parent span id.
    fn child_secs(&self) -> BTreeMap<u64, f64> {
        let mut child: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child.entry(s.parent).or_default() += s.dur().as_secs_f64();
            }
        }
        child
    }

    /// Mean self share of the root spans called `name`: the part of each
    /// end-to-end call that no child layer span accounts for.
    pub fn residual_share(&self, name: &str) -> f64 {
        let child = self.child_secs();
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let total = s.dur().as_secs_f64();
                ratio(total - child.get(&s.id).copied().unwrap_or(0.0), total)
            })
            .collect();
        mean(&shares)
    }
}

/// Writes spans as JSON lines (`id`, `parent`, `request`, `name`,
/// `start_us`, `end_us`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
            s.id,
            s.parent,
            s.request,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()
}

/// Scratch sinks the record/append probes write to, so the live
/// journal and WAL never see a probe.
pub struct Sinks {
    pub log: AuditLog,
    pub wal: WalWriter,
    pub wal_bytes: Vec<f64>,
}

impl Sinks {
    pub fn new(wal: &Path) -> Result<Self, String> {
        Ok(Sinks {
            log: AuditLog::new(),
            wal: WalWriter::create(wal).map_err(|e| format!("probe WAL: {e}"))?,
            wal_bytes: Vec::new(),
        })
    }
}

/// Re-runs the gate and render of one journaled delivery on `cat` as
/// child spans of `parent`: check compile (a root span of the same
/// request — serving reuses a cached program), check run, render with
/// the plan execution beside it. Returns false when a re-rendered
/// delivery disagrees with the journal.
pub fn probe_render(
    t: &mut Tracer,
    parent: u64,
    request: u64,
    spec: &ReportSpec,
    entry: &AuditEntry,
    cat: &Catalog,
    sys: &BiSystem,
) -> bool {
    let policy = sys.policy();
    let (program, _) = t.span("pla.check_compile", 0, request, || {
        CheckProgram::compile(&spec.plan, cat, &policy, sys.table_source())
    });
    let Ok(program) = program else { return false };
    let (outcome, _) = t.span("pla.check_run", parent, request, || {
        program.run(&entry.roles, entry.purpose.as_deref(), entry.when)
    });
    let Ok(outcome) = outcome else { return false };
    // A refusal may come from checks outside the program (distribution
    // list, join permissions); only deliveries are re-rendered.
    if !matches!(entry.outcome, Outcome::Delivered { .. }) {
        return true;
    }
    let engine = EngineConfig::default();
    let (rendered, render_id) = t.span("report.render", parent, request, || {
        render_checked(spec, cat, outcome, &engine)
    });
    let (executed, _) = t.span("query.execute", render_id, request, || {
        bi_core::query::execute_with(&spec.plan, cat, &ExecConfig::default())
    });
    match (&rendered, &entry.outcome) {
        (Ok(r), Outcome::Delivered { rows, .. }) => r.table.len() == *rows && executed.is_ok(),
        _ => false,
    }
}

/// Times the journal append and the WAL append of one journaled entry
/// into scratch sinks, as children of `parent`.
pub fn probe_journal(
    t: &mut Tracer,
    parent: u64,
    request: u64,
    entry: &AuditEntry,
    sinks: &mut Sinks,
) {
    let e = entry.clone();
    t.span("audit.record", parent, request, || {
        sinks.log.record(
            e.when,
            e.consumer,
            e.roles,
            e.report,
            e.plan,
            e.purpose,
            e.actions,
            e.outcome,
            e.provenance,
        )
    });
    let rec = WalRecord::Delivery {
        entry: entry.clone(),
    };
    let (bytes, _) = t.span("core.wal.append", parent, request, || {
        sinks.wal.append(&rec)
    });
    if let Ok(b) = bytes {
        sinks.wal_bytes.push(b as f64);
    }
}

/// Layer calls that are not per request: the nightly ETL split into
/// check / run / load, WAL read vs recovery on the workload's fixed
/// WAL, and the audit layer over `journal`.
pub struct Offline<'a> {
    pub sys: &'a BiSystem,
    pub sources: &'a BTreeMap<SourceId, Catalog>,
    pub pipeline: &'a Pipeline,
    pub fixed_wal: &'a Path,
    pub journal: &'a [AuditEntry],
    /// Dispute resolution re-executes each plan with provenance; it runs
    /// over the first `dispute_entries` entries of `journal` only.
    pub dispute_entries: usize,
    pub reps: usize,
}

impl Offline<'_> {
    /// Returns an error when a probe fails or disagrees with serving.
    pub fn probe(&self, t: &mut Tracer, request: u64) -> Result<(), String> {
        for _ in 0..self.reps {
            t.span("warehouse.snapshot", 0, request, || {
                self.sys.warehouse().snapshot()
            });
            probe_etl(t, 0, request, self.sys, self.sources, self.pipeline)?;
            let (read, read_id) = t.span("core.recover", 0, request, || {
                BiSystem::recover(self.fixed_wal).map(drop)
            });
            read.map_err(|e| format!("recover probe: {e}"))?;
            let (readout, _) = t.span("core.wal.read", read_id, request, || {
                read_wal(self.fixed_wal).map(|r| r.records.len())
            });
            readout.map_err(|e| format!("WAL read probe: {e}"))?;
        }
        self.probe_audit(t, 0, request)?;
        self.probe_dispute(t, request)
    }

    /// Recheck and version resolution of each delivered entry over the
    /// journal slice, as children of `parent`.
    pub fn probe_audit(&self, t: &mut Tracer, parent: u64, request: u64) -> Result<(), String> {
        let policy = &self.sys.policy();
        let (log, _) = scratch_log(self.journal);
        let wh = self.sys.warehouse();
        let exact = std::cell::Cell::new(0u64);
        let fallback = std::cell::Cell::new(0u64);
        let resolve = |name: &str, version: u64| {
            let hit = wh.table_at(name, version).cloned();
            let c = if hit.is_some() { &exact } else { &fallback };
            c.set(c.get() + 1);
            hit
        };
        // The workloads add their PLAs once, at set-up, so every journaled
        // epoch was served by today's policy.
        let snapshots: BTreeMap<u64, Arc<CombinedPolicy>> = self
            .journal
            .iter()
            .map(|e| (e.provenance.policy_epoch, Arc::clone(policy)))
            .collect();
        let (findings, _) = t.span("audit.recheck", parent, request, || {
            bi_core::audit::recheck_log_at_versions(
                &log,
                wh.catalog(),
                policy,
                &snapshots,
                self.sys.table_source(),
                &resolve,
            )
        });
        for e in self.journal {
            if !matches!(e.outcome, Outcome::Delivered { .. }) {
                continue;
            }
            t.span("audit.catalog_at_versions", parent, request, || {
                bi_core::audit::catalog_at_versions(
                    wh.catalog(),
                    &e.provenance.source_versions,
                    &resolve,
                )
            });
        }
        t.resolves.0 += exact.get();
        t.resolves.1 += fallback.get();
        t.journal_len = self.journal.len();
        match findings {
            Ok(f) if f.is_empty() => Ok(()),
            Ok(f) => Err(format!("recheck probe: {} finding(s)", f.len())),
            Err(e) => Err(format!("recheck probe: {e}")),
        }
    }

    /// Dispute resolution over the first `dispute_entries` entries.
    fn probe_dispute(&self, t: &mut Tracer, request: u64) -> Result<(), String> {
        let (log, len) = scratch_log(&self.journal[..self.dispute_entries.min(self.journal.len())]);
        let wh = self.sys.warehouse();
        let (disputed, _) = t.span("audit.dispute", 0, request, || {
            bi_core::audit::responsible_deliveries(
                &log,
                wh.catalog(),
                "FactPrescriptions",
                "Patient",
            )
        });
        t.dispute_entries = len;
        disputed
            .map(drop)
            .map_err(|e| format!("dispute probe: {e}"))
    }
}

/// The nightly ETL split into its layers, as children of `parent`:
/// static check, pipeline run, and the warehouse load into a scratch
/// warehouse.
pub fn probe_etl(
    t: &mut Tracer,
    parent: u64,
    request: u64,
    sys: &BiSystem,
    sources: &BTreeMap<SourceId, Catalog>,
    pipeline: &Pipeline,
) -> Result<(), String> {
    let policy = sys.policy();
    t.span("etl.check", parent, request, || {
        check_pipeline(pipeline, &policy, Some("quality"))
    });
    let (ran, _) = t.span("etl.run", parent, request, || {
        run_pipeline_with(
            pipeline,
            sources,
            Some(&*policy),
            sys.today(),
            &ExecConfig::default(),
        )
    });
    let ran = ran.map_err(|e| format!("ETL probe: {e}"))?;
    let mut scratch = Warehouse::new();
    t.span("warehouse.load", parent, request, || {
        for (table, _) in &ran.loaded {
            scratch.load_table(table.clone());
        }
    });
    Ok(())
}

/// A journal copy of `entries`, for probes that take an `AuditLog`.
fn scratch_log(entries: &[AuditEntry]) -> (AuditLog, usize) {
    let mut log = AuditLog::new();
    for e in entries {
        let e = e.clone();
        log.record(
            e.when,
            e.consumer,
            e.roles,
            e.report,
            e.plan,
            e.purpose,
            e.actions,
            e.outcome,
            e.provenance,
        );
    }
    (log, entries.len())
}

/// Delivered entries per distinct enforcement key (report, effective
/// roles, purpose, policy epoch, data versions): how often replay redoes
/// a render (and compiles a check program) it has already done.
pub fn replay_redundancy(journal: &[AuditEntry]) -> f64 {
    let delivered: Vec<&AuditEntry> = journal
        .iter()
        .filter(|e| matches!(e.outcome, Outcome::Delivered { .. }))
        .collect();
    let keys: BTreeSet<String> = delivered
        .iter()
        .map(|e| {
            format!(
                "{}|{:?}|{:?}|{}|{:?}",
                e.report,
                e.roles,
                e.purpose,
                e.provenance.policy_epoch,
                e.provenance.source_versions
            )
        })
        .collect();
    ratio(delivered.len() as f64, keys.len() as f64)
}

/// Every per-layer metric, from the spans, the scratch-sink byte counts,
/// the system's observability counters over the traced pass and the
/// number of end-to-end calls it made.
pub fn layer_metrics(
    r: &mut Report,
    t: &Tracer,
    root: &str,
    sinks: &Sinks,
    counters: &ObsSnapshot,
    calls: u64,
    journal: &[AuditEntry],
) {
    let m_ms = |n: &str| mean(&t.secs(n)) * 1e3;
    let m_us = |n: &str| mean(&t.secs(n)) * 1e6;
    let c = |n: &str| counters.counters.get(n).copied().unwrap_or(0) as f64;
    let journal_len = t.journal_len.max(1) as f64;
    r.metric("query.execute_ms", m_ms("query.execute"), "ms");
    r.metric("report.render_ms", m_ms("report.render"), "ms");
    r.metric(
        "report.enforce_ms",
        mean(&t.self_secs("report.render")) * 1e3,
        "ms",
    );
    r.metric("pla.check_run_us", m_us("pla.check_run"), "us");
    r.metric("pla.check_compile_us", m_us("pla.check_compile"), "us");
    let redundancy = replay_redundancy(journal);
    r.metric("pla.compiles_per_key", redundancy, "ratio");
    r.metric("audit.record_us", m_us("audit.record"), "us");
    r.metric("core.wal.append_us", m_us("core.wal.append"), "us");
    r.metric("core.wal.bytes_per_record", mean(&sinks.wal_bytes), "B");
    r.metric(
        "core.render_cache.hit_ratio",
        ratio(
            c("render.cache.hit"),
            c("render.cache.hit") + c("render.cache.miss"),
        ),
        "ratio",
    );
    r.metric(
        "core.render_shared_ratio",
        ratio(
            c("deliver.render.shared"),
            c("deliver.render.shared") + c("deliver.render.unique"),
        ),
        "ratio",
    );
    r.metric(
        "core.renders_per_call",
        ratio(c("report.renders"), calls as f64),
        "count",
    );
    r.metric("etl.check_ms", m_ms("etl.check"), "ms");
    r.metric("etl.run_ms", m_ms("etl.run"), "ms");
    r.metric("warehouse.load_ms", m_ms("warehouse.load"), "ms");
    r.metric("core.wal.read_ms", m_ms("core.wal.read"), "ms");
    r.metric(
        "core.recover.replay_ms",
        median(&t.self_secs("core.recover")) * 1e3,
        "ms",
    );
    r.metric(
        "audit.recheck_us_per_entry",
        mean(&t.secs("audit.recheck")) * 1e6 / journal_len,
        "us",
    );
    r.metric(
        "audit.catalog_at_versions_us",
        m_us("audit.catalog_at_versions"),
        "us",
    );
    r.metric(
        "warehouse.exact_resolve_ratio",
        ratio(t.resolves.0 as f64, (t.resolves.0 + t.resolves.1) as f64),
        "ratio",
    );
    r.metric("audit.replay_redundancy", redundancy, "ratio");
    r.metric(
        "audit.dispute_us_per_entry",
        mean(&t.secs("audit.dispute")) * 1e6 / t.dispute_entries.max(1) as f64,
        "us",
    );
    r.metric("warehouse.snapshot_us", m_us("warehouse.snapshot"), "us");
    r.metric("core.residual_share", t.residual_share(root), "ratio");
}
