//! `dashboard` — a refresh of thousands of consumers over few role
//! profiles through `BiSystem::deliver_batch`, with an ETL commit
//! between batches.
//!
//! Why: warm batches render nothing, so their time goes to grouping,
//! render-cache probes and one journal record plus one WAL record per
//! consumer; cold batches re-render every profile. Writes (ETL commits
//! and MVCC versions) run beside the reads. An identity reload keeps
//! every cached render valid; a storage-rebuilding one (which also drops
//! a month or more of old prescriptions) invalidates them. Commits repeat
//! identity ×4, then rebuilding: a fifth of the batches are cold. The
//! latencies are each step's best over the rounds (20 steps, every
//! commit variant once), so p50 is a warm batch and p90 a cold one,
//! neither on the warm/cold boundary. The 16 live profiles fit the
//! 256-entry render cache.
//!
//! Predicted no-change layers: query execution and enforcement move only
//! the cold batches (p90); the audit replay path is never called.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bi_core::exec::Obs;
use bi_core::query::plan::{scan, AggFunc, AggItem};
use bi_core::relation::expr::{col, lit};
use bi_core::report::{EnforcedReport, ReportSpec};
use bi_core::types::{ConsumerId, ReportId, RoleId, Value};
use bi_core::{BiSystem, SystemError};

use crate::deploy::{self, EndToEnd, Inputs, OneShots};
use crate::stats::{best_per_key, median, ms, Rng};
use crate::trace::{self, Offline, Sinks, Tracer};
use crate::{Params, Report};

struct Sizes {
    patients: usize,
    prescriptions: usize,
    consumers: usize,
    /// Fewest set-up and recovery samples a run takes.
    min_samples: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            patients: 60,
            prescriptions: 400,
            consumers: 64,
            min_samples: 3,
        }
    } else {
        Sizes {
            patients: 300,
            prescriptions: 3_000,
            consumers: 1_000,
            min_samples: 50,
        }
    }
}

/// Role profiles; each has its own report and role.
pub const PROFILES: usize = 16;

/// Commits per cycle; the last one of each cycle rebuilds storage, so
/// a fifth of the batches are cold and p90 falls midway through the cold
/// ones, as far from the warm/cold boundary (at the 80th percentile) as
/// it gets.
const CYCLE: usize = 5;

/// Batches per round: every commit variant once. Each round serves a
/// fresh deployment, so the journal and the WAL stay bounded however
/// many rounds a run fits.
const ROUND: usize = CYCLE * deploy::CUTOFFS.len();

/// The ETL variant committed before batch `step`: `None` is the
/// identity reload, `Some(i)` rebuilds with cutoff `i`.
fn variant(step: usize) -> Option<usize> {
    (step % CYCLE == CYCLE - 1).then_some((step / CYCLE) % deploy::CUTOFFS.len())
}

fn pipeline(state: Option<usize>) -> bi_core::etl::Pipeline {
    match state {
        None => deploy::nightly(),
        Some(i) => deploy::rebuild(deploy::CUTOFFS[i]),
    }
}

fn profile_reports() -> Vec<ReportSpec> {
    let windows = ["2006-01-01", "2006-07-01", "2007-01-01", "2007-07-01"];
    (0..PROFILES)
        .map(|i| {
            let from = Value::date(windows[i / 4]).expect("valid window date");
            let base = scan("FactPrescriptions").filter(col("Date").ge(lit(from)));
            let count = vec![AggItem::count_star("N")];
            let plan = match i % 4 {
                0 => base.aggregate(vec!["Disease".into()], count),
                1 => base.aggregate(vec!["Patient".into(), "Drug".into()], count),
                2 => base
                    .join(scan("DimCost"), vec![("Drug".into(), "Drug".into())], "c")
                    .aggregate(
                        vec!["Disease".into()],
                        vec![AggItem::new("Cost", AggFunc::Sum, "Cost")],
                    ),
                _ => base.aggregate(vec!["Drug".into(), "Disease".into()], count),
            };
            ReportSpec::new(
                format!("dash-{i:02}"),
                format!("Dashboard tile {i:02}"),
                plan,
                [RoleId::new(format!("tile-{i:02}"))],
            )
            .for_purpose("quality")
        })
        .collect()
}

fn consumer(c: usize) -> ConsumerId {
    ConsumerId::new(format!("viewer-{c:05}"))
}

/// One batch: every consumer pulls its profile's report, in a seeded
/// order. Returns the requests and each request's profile.
fn batch_requests(consumers: usize, seed: u64) -> (Vec<(ReportId, ConsumerId)>, Vec<usize>) {
    let mut order: Vec<usize> = (0..consumers).collect();
    Rng::new(seed).shuffle(&mut order);
    let requests = order
        .iter()
        .map(|&c| {
            (
                ReportId::new(format!("dash-{:02}", c % PROFILES)),
                consumer(c),
            )
        })
        .collect();
    (requests, order.iter().map(|c| c % PROFILES).collect())
}

/// Expected per-profile outcome for each data state, from a serial
/// `deliver` on the live system the first time the state is loaded.
struct Oracle {
    /// (state, profile) → (fingerprint, rows, suppressed groups).
    expected: HashMap<(Option<usize>, usize), (u64, usize, usize)>,
    /// Serial deliveries the oracle journaled.
    serial_deliveries: usize,
}

impl Oracle {
    fn ensure(&mut self, sys: &mut BiSystem, state: Option<usize>, r: &mut Report) {
        for p in 0..PROFILES {
            if self.expected.contains_key(&(state, p)) {
                continue;
            }
            let res = sys.deliver(&ReportId::new(format!("dash-{p:02}")), &consumer(p));
            self.serial_deliveries += 1;
            r.check(res.is_ok(), || {
                format!("serial oracle for profile {p}: {:?}", res.as_ref().err())
            });
            if let Ok(e) = &res {
                let fp = deploy::fingerprint(&res);
                self.expected
                    .insert((state, p), (fp, e.table.len(), e.suppressed_groups));
            }
        }
    }

    /// Every result must be the profile's expected delivery: counts for
    /// each member, the full fingerprint for one member per profile.
    fn check(
        &self,
        r: &mut Report,
        state: Option<usize>,
        profiles: &[usize],
        results: &[Result<EnforcedReport, SystemError>],
    ) {
        let mut seen = [false; PROFILES];
        for (&p, res) in profiles.iter().zip(results) {
            let Some(&(fp, rows, suppressed)) = self.expected.get(&(state, p)) else {
                r.check(false, || format!("no serial oracle for profile {p}"));
                continue;
            };
            let ok = match res {
                Ok(e) => {
                    let full = if seen[p] {
                        true
                    } else {
                        seen[p] = true;
                        deploy::fingerprint(res) == fp
                    };
                    full && e.table.len() == rows && e.suppressed_groups == suppressed
                }
                Err(_) => false,
            };
            r.check(ok, || match res {
                Ok(_) => {
                    format!("profile {p}: batch output differs from a serial deliver (stale serve)")
                }
                Err(e) => format!("profile {p}: {e}"),
            });
        }
    }
}

/// The per-request results of one batch.
type Batch = Vec<Result<EnforcedReport, SystemError>>;

/// One step: an ETL commit, then one batch. Returns the commit and batch
/// times and the batch results.
fn step(
    sys: &mut BiSystem,
    n: usize,
    requests: &[(ReportId, ConsumerId)],
) -> Result<(Duration, Duration, Batch), String> {
    let pipeline = pipeline(variant(n));
    let t = Instant::now();
    sys.run_etl(&pipeline, Some("quality"))
        .map_err(|e| format!("ETL commit {n}: {e}"))?;
    let commit = t.elapsed();
    let t = Instant::now();
    let results = sys.deliver_batch(requests);
    Ok((commit, t.elapsed(), results))
}

/// A fresh deployment for one round, warmed by one untimed batch that
/// renders every profile, so the round's first batch is warm.
fn fresh_round(
    inputs: &Inputs,
    wal: &std::path::Path,
    requests: &[(ReportId, ConsumerId)],
    profiles: &[usize],
    r: &mut Report,
    oracle: &Oracle,
) -> Result<BiSystem, String> {
    let mut sys = deploy::build(inputs, wal)?;
    let results = sys.deliver_batch(requests);
    oracle.check(r, None, profiles, &results);
    Ok(sys)
}

/// Observes, without counting it as a check, whether a WAL holding an
/// identity ETL reload recovers. Today it does not: the reload keeps the
/// table's data version (its storage is unchanged), while replay loads
/// the logged rows into fresh storage and assigns the next version,
/// which recovery rejects as a mismatch. The line printed says which.
fn identity_reload_recovery(p: &Params) -> Result<String, String> {
    let wal = p.wal("identity-reload");
    let inputs = Inputs {
        scenario: deploy::scenario(p.seed, 20, 60),
        reports: Vec::new(),
        grants: Vec::new(),
    };
    let mut sys = deploy::build(&inputs, &wal)?;
    sys.run_etl(&deploy::nightly(), Some("quality"))
        .map_err(|e| format!("identity reload: {e}"))?;
    drop(sys);
    Ok(match BiSystem::recover(&wal) {
        Ok(_) => "a WAL holding an identity ETL reload recovers".into(),
        Err(e) => {
            format!("known defect: a WAL holding an identity ETL reload does not recover: {e}")
        }
    })
}

pub fn run(p: &Params) -> Result<Report, String> {
    let sz = sizes(p.tiny);
    let reports = profile_reports();
    let grants = (0..sz.consumers)
        .map(|c| {
            (
                consumer(c),
                RoleId::new(format!("tile-{:02}", c % PROFILES)),
            )
        })
        .collect();
    let inputs = Inputs {
        scenario: deploy::scenario(p.seed, sz.patients, sz.prescriptions),
        reports,
        grants,
    };
    let (requests, profiles) = batch_requests(sz.consumers, p.seed);
    let mut r = Report::default();
    let live = p.wal("dashboard");
    let fixed = p.wal("dashboard-fixed");
    let (mut sys, first_build) = deploy::timed_build(&inputs, &live)?;
    let mut oracle = Oracle {
        expected: HashMap::new(),
        serial_deliveries: 0,
    };

    // The fixed batch sequence recovery is timed on: one batch after
    // each storage-rebuilding commit. Its WAL is fixed by this
    // definition, not by how many batches the timed phase fits. Identity
    // reloads stay out of it: a WAL holding one does not recover today
    // (see `identity_reload_recovery`).
    oracle.ensure(&mut sys, None, &mut r);
    for (i, cutoff) in deploy::CUTOFFS.iter().enumerate() {
        sys.run_etl(&deploy::rebuild(cutoff), Some("quality"))
            .map_err(|e| format!("fixed-sequence ETL {i}: {e}"))?;
        let results = sys.deliver_batch(&requests);
        oracle.ensure(&mut sys, Some(i), &mut r);
        oracle.check(&mut r, Some(i), &profiles, &results);
    }
    std::fs::copy(&live, &fixed).map_err(|e| format!("copy WAL: {e}"))?;
    let seconds = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let mut shots = OneShots::new(
        &inputs,
        p.wal("setup"),
        fixed.clone(),
        sys.audit_log().entries().to_vec(),
        first_build,
        seconds,
    );
    drop(sys);

    let round_wal = p.wal("dashboard-round");
    let mut batch_ms: Vec<(usize, f64)> = Vec::new();
    let mut step_ms: Vec<(usize, f64)> = Vec::new();
    let mut commit_ms = Vec::new();
    let mut wall = Duration::ZERO;
    let (mut wal_bytes, mut journaled, mut rounds) = (0, 0, 0);
    let mut after_sample = false;
    while wall.as_secs_f64() < seconds || rounds == 0 {
        let mut sys = fresh_round(&inputs, &round_wal, &requests, &profiles, &mut r, &oracle)?;
        let wal_before = deploy::file_len(&round_wal);
        let journal_before = sys.audit_log().entries().len();
        let oracle_before = oracle.serial_deliveries;
        for n in 0..ROUND {
            let (commit, batch, results) = step(&mut sys, n, &requests)?;
            wall += commit + batch;
            if !after_sample {
                commit_ms.push(ms(commit));
                batch_ms.push((n, ms(batch)));
                step_ms.push((n, ms(commit + batch)));
            }
            oracle.ensure(&mut sys, variant(n), &mut r);
            oracle.check(&mut r, variant(n), &profiles, &results);
            after_sample = shots.between(wall, &mut r)?;
        }
        wal_bytes += deploy::file_len(&round_wal) - wal_before;
        let grew = sys.audit_log().entries().len() - journal_before;
        let expected = ROUND * requests.len() + oracle.serial_deliveries - oracle_before;
        r.check(grew == expected, || {
            format!("journal grew by {grew} entries for {expected} requests")
        });
        journaled += grew;
        rounds += 1;
    }
    r.note(identity_reload_recovery(p)?);
    shots.at_least(sz.min_samples, &mut r)?;
    r.note(format!(
        "dashboard: {rounds} rounds of {ROUND} batches of {} requests over {PROFILES} profiles; ETL commit p50 {:.3} ms over {} commits; fixed WAL {} B",
        requests.len(),
        median(&commit_ms),
        commit_ms.len(),
        deploy::file_len(&fixed)
    ));
    if !p.trace {
        // A round serves ROUND batches; at each step's best commit and
        // batch time it takes the sum of those bests.
        let best_steps: f64 = best_per_key(&step_ms).iter().sum();
        EndToEnd {
            setup_s: shots.setup_s,
            best_ms: best_per_key(&batch_ms),
            repeats: rounds,
            throughput_per_s: (ROUND * requests.len()) as f64 / (best_steps / 1e3),
            recover_s: shots.recover_s,
            wal_bytes_per_delivery: wal_bytes as f64 / journaled.max(1) as f64,
        }
        .report(&mut r);
        return Ok(r);
    }

    // Traced pass: a fresh deployment with observability on, the same
    // steps; every commit and batch is a root span with its layer calls
    // re-run on the same inputs as children.
    let untraced_p50 = median(&batch_ms.iter().map(|&(_, b)| b).collect::<Vec<_>>());
    let mut tsys = deploy::build(&inputs, &live)?;
    let obs = Obs::enabled();
    tsys.engine_mut().exec.obs = obs.clone();
    oracle.ensure(&mut tsys, None, &mut r);
    let mut t = Tracer::new();
    let mut sinks = Sinks::new(&p.wal("probe"))?;
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    let mut n = 0;
    let mut batches = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        request += 1;
        let state = variant(n);
        let pipeline = pipeline(state);
        let (committed, root) = t.span("core.run_etl", 0, request, || {
            tsys.run_etl(&pipeline, Some("quality"))
        });
        committed.map_err(|e| format!("ETL commit {n}: {e}"))?;
        trace::probe_etl(
            &mut t,
            root,
            request,
            &tsys,
            &inputs.scenario.sources,
            &pipeline,
        )?;

        request += 1;
        let renders_before = obs.snapshot().counters.get("report.renders").copied();
        let (results, root) = t.span("core.deliver_batch", 0, request, || {
            tsys.deliver_batch(&requests)
        });
        batches += 1;
        traced_ms.push(t.spans[root as usize - 1].dur().as_secs_f64() * 1e3);
        let rendered = obs.snapshot().counters.get("report.renders").copied() != renders_before;
        let (snap, _) = t.span("warehouse.snapshot", root, request, || {
            tsys.warehouse().snapshot()
        });
        let entries = tsys.audit_log().entries();
        let batch_entries = entries[entries.len() - results.len()..].to_vec();
        if rendered {
            let mut done = [false; PROFILES];
            for (e, &prof) in batch_entries.iter().zip(&profiles) {
                if std::mem::replace(&mut done[prof], true) {
                    continue;
                }
                let spec = &inputs.reports[prof];
                let agrees =
                    trace::probe_render(&mut t, root, request, spec, e, snap.catalog(), &tsys);
                r.check(agrees, || {
                    format!("probe re-render of {} disagrees", e.report)
                });
            }
        }
        // A sample of each batch's entries keeps the span file small.
        for e in batch_entries.iter().take(64) {
            trace::probe_journal(&mut t, root, request, e, &mut sinks);
        }
        oracle.ensure(&mut tsys, state, &mut r);
        oracle.check(&mut r, state, &profiles, &results);
        n += 1;
    }
    let journal = tsys.audit_log().entries().to_vec();
    let tail = &journal[journal.len().saturating_sub(64)..];
    Offline {
        sys: &tsys,
        sources: &inputs.scenario.sources,
        pipeline: &deploy::nightly(),
        fixed_wal: &fixed,
        journal: tail,
        dispute_entries: 4,
        reps: 3,
    }
    .probe(&mut t, request + 1)?;
    trace::layer_metrics(
        &mut r,
        &t,
        "core.deliver_batch",
        &sinks,
        &obs.snapshot(),
        batches,
        &journal,
    );
    r.metric(
        "bench.trace_overhead_ms",
        median(&traced_ms) - untraced_p50,
        "ms",
    );
    r.spans = t.spans;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch serving rows that differ from the serial deliver of the
    /// same data (a stale serve) trips the oracle check.
    #[test]
    fn stale_rows_trip_the_oracle_check() {
        let p = crate::tests::tiny("dashboard-corrupt", false);
        let inputs = Inputs {
            scenario: deploy::scenario(p.seed, 60, 400),
            reports: profile_reports(),
            grants: (0..PROFILES)
                .map(|c| (consumer(c), RoleId::new(format!("tile-{c:02}"))))
                .collect(),
        };
        let mut sys = deploy::build(&inputs, &p.wal("live")).expect("tiny deployment builds");
        let mut oracle = Oracle {
            expected: HashMap::new(),
            serial_deliveries: 0,
        };
        let mut r = Report::default();
        oracle.ensure(&mut sys, None, &mut r);
        let (requests, profiles) = batch_requests(PROFILES, p.seed);
        let mut results = sys.deliver_batch(&requests);
        oracle.check(&mut r, None, &profiles, &results);
        assert!(r.correct(), "{:?}", r.notes);

        let Ok(served) = &mut results[0] else {
            panic!("profile delivered")
        };
        let row = served.table.rows()[0].clone();
        served.table.push_row(row).expect("row conforms");
        oracle.check(&mut r, None, &profiles, &results);
        assert_eq!(r.failed, 1, "{:?}", r.notes);
        let _ = std::fs::remove_dir_all(&p.scratch);
    }
}
