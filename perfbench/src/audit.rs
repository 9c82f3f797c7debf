//! `audit` — an auditor re-examines history: every pass runs
//! `recheck_at_delivery`, `replay_at_delivery` and a `dispute` over a
//! fixed journal.
//!
//! Why: set-up journals a fixed history of nightly storage-rebuilding
//! ETL commits, each followed by a delivery batch, within the default
//! 8-version MVCC retention, so every replay resolves the exact data and
//! policy that served it — the journal alone is enough to replay any
//! output. Replay compiles a check program and re-renders once per
//! journaled delivery, so audit-path changes (for example sharing
//! replays across equal enforcement keys) show up here only.
//!
//! Predicted no-change layers: there is no live delivery and no WAL
//! append in the timed passes, so changes to the delivery path, the
//! render cache, the scheduler and the WAL writer leave the pass
//! latency unchanged (recovery still reads the history's WAL).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bi_core::audit::{AuditEntry, Outcome, SnapshotFidelity};
use bi_core::exec::Obs;
use bi_core::BiSystem;

use crate::deploy::{self, EndToEnd, Inputs, MixReport, OneShots};
use crate::stats::{best_of_groups, median, ms, Rng};
use crate::trace::{self, Offline, Sinks, Tracer};
use crate::{Params, Report};

struct Sizes {
    patients: usize,
    prescriptions: usize,
    /// Fewest set-up and recovery samples a run takes.
    min_samples: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            patients: 40,
            prescriptions: 200,
            min_samples: 3,
        }
    } else {
        Sizes {
            patients: 100,
            prescriptions: 1_000,
            min_samples: 50,
        }
    }
}

/// The role subset each history batch serves, fixed so every seed
/// journals the same mix of outcomes: pharmacist + controller, analyst
/// + controller, auditor + pharmacist, analyst + auditor.
fn history_masks(batch: usize) -> impl Iterator<Item = usize> {
    (0..deploy::MIX_CONSUMERS).filter(move |m| m % 8 == batch && m / 8 == 3 - batch)
}

/// The fixed history: after each storage-rebuilding commit, one batch
/// of a quarter of the reports (every fourth) for that commit's
/// [`history_masks`] subset, in a seeded order: every report once, 23
/// entries, so one pass takes a few ms and a run times thousands. Four commits plus the initial load keep the fact table
/// at five data versions, inside the retention.
fn journal_history(
    sys: &mut BiSystem,
    mix: &[MixReport],
    seed: u64,
    r: &mut Report,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    for (b, cutoff) in deploy::CUTOFFS.iter().enumerate() {
        sys.run_etl(&deploy::rebuild(cutoff), Some("quality"))
            .map_err(|e| format!("history ETL: {e}"))?;
        let mut keys: Vec<(usize, usize)> = (0..mix.len())
            .filter(|ri| ri % deploy::CUTOFFS.len() == b)
            .flat_map(|ri| history_masks(b).map(move |m| (ri, m)))
            .collect();
        rng.shuffle(&mut keys);
        let requests: Vec<_> = keys
            .iter()
            .map(|&(ri, m)| (mix[ri].spec.id.clone(), deploy::mix_consumer(m)))
            .collect();
        for (&(ri, m), res) in keys.iter().zip(sys.deliver_batch(&requests)) {
            let ok = match &res {
                Ok(_) => mix[ri].expect_delivered(m),
                Err(_) => !mix[ri].expect_delivered(m) && deploy::is_refusal(&res),
            };
            r.check(ok, || {
                format!(
                    "history delivery of {}: unexpected outcome",
                    mix[ri].spec.id
                )
            });
        }
    }
    Ok(())
}

/// Timed passes, at random points of the run, whose best is one latency
/// value.
const PASS_GROUP: usize = 40;

/// Entries the history journals.
fn history_len(mix: &[MixReport]) -> usize {
    (0..deploy::CUTOFFS.len())
        .map(|b| {
            let reports = (0..mix.len()).filter(|ri| ri % deploy::CUTOFFS.len() == b);
            reports.count() * history_masks(b).count()
        })
        .sum()
}

/// One pass: recheck, then replay, each checked. Returns how many
/// deliveries replayed and the time of each of the two calls.
fn pass(sys: &BiSystem, r: &mut Report) -> (usize, [Duration; 2]) {
    let t = Instant::now();
    let findings = sys.recheck_at_delivery();
    let recheck = t.elapsed();
    let t = Instant::now();
    let replays = sys.replay_at_delivery();
    let replay = t.elapsed();

    match &findings {
        Ok(f) => r.check(f.is_empty(), || {
            format!("recheck found {} violation(s)", f.len())
        }),
        Err(e) => r.check(false, || format!("recheck failed: {e}")),
    }
    let replayed = match &replays {
        Ok(rs) => {
            for rep in rs {
                let exact = rep.policy_snapshot == SnapshotFidelity::Exact
                    && rep.data_snapshot == SnapshotFidelity::Exact;
                r.check(rep.matches_journal && exact, || {
                    format!(
                        "replay of seq {} ({}): matches_journal={} policy={:?} data={:?}",
                        rep.seq,
                        rep.report,
                        rep.matches_journal,
                        rep.policy_snapshot,
                        rep.data_snapshot
                    )
                });
            }
            rs.len()
        }
        Err(e) => {
            r.check(false, || format!("replay failed: {e}"));
            0
        }
    };
    (replayed, [recheck, replay])
}

/// Dispute resolution over the whole journal: which deliveries exposed
/// `FactPrescriptions.Patient`. It re-executes every delivered plan with
/// provenance, about twenty times a replay, so it runs once per run
/// rather than in every pass. Returns its time in ms.
fn dispute(sys: &BiSystem, journal: &[AuditEntry], r: &mut Report) -> f64 {
    let t = Instant::now();
    let disputed = sys.dispute("FactPrescriptions", "Patient");
    let took = ms(t.elapsed());
    // Exposures name delivered entries only, and every delivery grouped
    // by Patient is among them.
    let delivered_seqs: BTreeSet<u64> = journal
        .iter()
        .filter(|e| matches!(e.outcome, Outcome::Delivered { .. }))
        .map(|e| e.seq)
        .collect();
    let by_patient: BTreeSet<u64> = journal
        .iter()
        .filter(|e| {
            delivered_seqs.contains(&e.seq) && e.report.to_string().starts_with("PatientDrug")
        })
        .map(|e| e.seq)
        .collect();
    match disputed {
        Ok(x) => {
            let named: BTreeSet<u64> = x.iter().map(|e| e.seq).collect();
            r.check(
                named.is_subset(&delivered_seqs) && by_patient.is_subset(&named),
                || format!("dispute named {} deliveries, not a superset of the {} grouped by Patient within the delivered ones", named.len(), by_patient.len()),
            )
        }
        Err(e) => r.check(false, || format!("dispute failed: {e}")),
    }
    took
}

fn delivered(journal: &[AuditEntry]) -> usize {
    journal
        .iter()
        .filter(|e| matches!(e.outcome, Outcome::Delivered { .. }))
        .count()
}

pub fn run(p: &Params) -> Result<Report, String> {
    let sz = sizes(p.tiny);
    let mix = deploy::report_mix();
    let inputs = Inputs {
        scenario: deploy::scenario(p.seed, sz.patients, sz.prescriptions),
        reports: mix.iter().map(|m| m.spec.clone()).collect(),
        grants: deploy::mix_grants(),
    };
    let mut r = Report::default();
    let wal = p.wal("audit");
    let (mut sys, first_build) = deploy::timed_build(&inputs, &wal)?;
    let wal_setup = deploy::file_len(&wal);
    journal_history(&mut sys, &mix, p.seed, &mut r)?;
    let journal = sys.audit_log().entries().to_vec();
    let wal_bytes = deploy::file_len(&wal) - wal_setup;
    r.check(journal.len() == history_len(&mix), || {
        format!("history journaled {} entries", journal.len())
    });
    let seconds = if p.trace { p.seconds / 2.0 } else { p.seconds };
    let mut shots = OneShots::new(
        &inputs,
        p.wal("setup"),
        wal.clone(),
        journal.clone(),
        first_build,
        seconds,
    );

    // Warm-up pass, then timed passes; each must replay every delivery.
    let passes_ok = |replayed: usize, r: &mut Report| {
        let want = delivered(&journal);
        r.check(replayed == want, || {
            format!("replayed {replayed} of {want} delivered entries")
        });
    };
    let (replayed, _) = pass(&sys, &mut r);
    passes_ok(replayed, &mut r);
    let mut pass_ms = Vec::new();
    let mut parts: [Vec<f64>; 2] = Default::default();
    let mut wall = Duration::ZERO;
    let mut after_sample = false;
    while wall.as_secs_f64() < seconds || pass_ms.is_empty() {
        let (replayed, times) = pass(&sys, &mut r);
        let total: Duration = times.iter().sum();
        wall += total;
        if !after_sample {
            pass_ms.push(ms(total));
            for (v, d) in parts.iter_mut().zip(times) {
                v.push(ms(d));
            }
        }
        passes_ok(replayed, &mut r);
        after_sample = shots.between(wall, &mut r)?;
    }
    let dispute_ms = dispute(&sys, &journal, &mut r);
    shots.at_least(sz.min_samples, &mut r)?;
    r.note(format!(
        "audit: {} passes over a {}-entry journal ({} delivered, {} distinct enforcement keys); recheck p50 {:.3} ms, replay p50 {:.3} ms; one dispute {:.3} ms",
        pass_ms.len(),
        journal.len(),
        delivered(&journal),
        (delivered(&journal) as f64 / trace::replay_redundancy(&journal)).round(),
        median(&parts[0]),
        median(&parts[1]),
        dispute_ms,
    ));
    if !p.trace {
        // Every pass does the same work: the latency values are the
        // bests of random groups of passes, and throughput is
        // journal entries audited per second at their median.
        let best = best_of_groups(&pass_ms, PASS_GROUP);
        EndToEnd {
            setup_s: shots.setup_s,
            throughput_per_s: journal.len() as f64 / (median(&best) / 1e3),
            repeats: pass_ms.len() / best.len().max(1),
            best_ms: best,
            recover_s: shots.recover_s,
            wal_bytes_per_delivery: wal_bytes as f64 / journal.len().max(1) as f64,
        }
        .report(&mut r);
        return Ok(r);
    }

    // Traced pass: the same history on a deployment with observability
    // on; each audit pass is a root span, its layer calls re-run per
    // journal entry as children.
    let untraced_p50 = median(&pass_ms);
    drop(sys);
    let mut tsys = deploy::build(&inputs, &wal)?;
    let obs = Obs::enabled();
    tsys.engine_mut().exec.obs = obs.clone();
    journal_history(&mut tsys, &mix, p.seed, &mut r)?;
    obs.reset();
    let journal = tsys.audit_log().entries().to_vec();
    let mut t = Tracer::new();
    let mut sinks = Sinks::new(&p.wal("probe"))?;
    let offline = Offline {
        sys: &tsys,
        sources: &inputs.scenario.sources,
        pipeline: &deploy::rebuild(deploy::CUTOFFS[0]),
        fixed_wal: &wal,
        journal: &journal,
        dispute_entries: 16,
        reps: 5,
    };
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        request += 1;
        let ((replayed, _), root) = t.span("audit.pass", 0, request, || pass(&tsys, &mut r));
        traced_ms.push(t.spans[root as usize - 1].dur().as_secs_f64() * 1e3);
        passes_ok(replayed, &mut r);
        offline.probe_audit(&mut t, root, request)?;
        let wh = tsys.warehouse();
        let resolve = |name: &str, version: u64| wh.table_at(name, version).cloned();
        for e in journal
            .iter()
            .filter(|e| matches!(e.outcome, Outcome::Delivered { .. }))
        {
            let (versioned, _) = bi_core::audit::catalog_at_versions(
                wh.catalog(),
                &e.provenance.source_versions,
                &resolve,
            );
            let Some(m) = mix.iter().find(|m| m.spec.id == e.report) else {
                r.check(false, || {
                    format!("journal names unknown report {}", e.report)
                });
                continue;
            };
            let agrees = trace::probe_render(
                &mut t,
                root,
                request,
                &m.spec,
                e,
                versioned.as_ref().unwrap_or(wh.catalog()),
                &tsys,
            );
            r.check(agrees, || {
                format!("probe re-render of seq {} disagrees", e.seq)
            });
        }
    }
    offline.probe(&mut t, request + 1)?;
    // Journal and WAL appends happen in the history only; time them on
    // its entries so the per-layer set is complete.
    for e in journal.iter().take(64) {
        trace::probe_journal(&mut t, 0, request + 1, e, &mut sinks);
    }
    trace::layer_metrics(
        &mut r,
        &t,
        "audit.pass",
        &sinks,
        &obs.snapshot(),
        request,
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

    /// A recovered journal that differs from the journaled one, entry
    /// for entry, trips the recovery check.
    #[test]
    fn altered_journal_trips_the_recovery_check() {
        let p = crate::tests::tiny("audit-corrupt", false);
        let mix = deploy::report_mix();
        let inputs = Inputs {
            scenario: deploy::scenario(p.seed, 40, 200),
            reports: mix.iter().map(|m| m.spec.clone()).collect(),
            grants: deploy::mix_grants(),
        };
        let wal = p.wal("audit");
        let mut r = Report::default();
        let mut sys = deploy::build(&inputs, &wal).expect("tiny deployment builds");
        journal_history(&mut sys, &mix, p.seed, &mut r).expect("history journals");
        let journal = sys.audit_log().entries().to_vec();

        let mut honest = OneShots::new(
            &inputs,
            p.wal("setup"),
            wal.clone(),
            journal.clone(),
            0.0,
            1.0,
        );
        honest.at_least(1, &mut r).expect("samples run");
        assert!(r.correct(), "{:?}", r.notes);

        let mut altered = journal;
        altered[0].consumer = "someone-else".into();
        let mut lying = OneShots::new(&inputs, p.wal("setup"), wal, altered, 0.0, 1.0);
        lying.at_least(1, &mut r).expect("samples run");
        assert_eq!(r.failed, 1, "{:?}", r.notes);
        let _ = std::fs::remove_dir_all(&p.scratch);
    }

    /// Every journaled delivery of the history replays exactly and
    /// matches the journal.
    #[test]
    fn history_replays_every_delivery_exactly() {
        let p = crate::tests::tiny("audit-pass", false);
        let mix = deploy::report_mix();
        let inputs = Inputs {
            scenario: deploy::scenario(p.seed, 40, 200),
            reports: mix.iter().map(|m| m.spec.clone()).collect(),
            grants: deploy::mix_grants(),
        };
        let mut r = Report::default();
        let mut sys = deploy::build(&inputs, &p.wal("audit")).expect("tiny deployment builds");
        journal_history(&mut sys, &mix, p.seed, &mut r).expect("history journals");
        let (replayed, _) = pass(&sys, &mut r);
        assert!(r.correct(), "{:?}", r.notes);
        assert_eq!(replayed, delivered(sys.audit_log().entries()));
        let _ = std::fs::remove_dir_all(&p.scratch);
    }
}
