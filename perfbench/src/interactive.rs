//! `interactive` — one analyst at a time pulls one report through
//! `BiSystem::deliver`.
//!
//! Why: query execution and enforcement do most of the work of a single
//! delivery; the journal and the WAL do little. It is the headline
//! workload for engine changes.
//!
//! Predicted no-change layers: the render cache and the batch scheduler.
//! `deliver()` touches neither, so a change to them must leave every
//! number here unchanged. The requests cover 23 reports × 32 role
//! subsets = 736 distinct (report, effective role set) pairs, nearly
//! three times the 256 renders the default render cache holds, in
//! shuffled cycles: a change that put single deliveries behind that
//! cache could not win by caching everything.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bi_core::exec::Obs;
use bi_core::BiSystem;

use crate::deploy::{self, Cycle, EndToEnd, Inputs, MixReport, OneShots};
use crate::stats::{best_per_key, median, ms};
use crate::trace::{self, Offline, Sinks, Tracer};
use crate::{Params, Report};

struct Sizes {
    patients: usize,
    prescriptions: usize,
    /// Untimed deliveries before the timed phase; their WAL is the
    /// fixed log recovery is timed on.
    warmup: usize,
    /// Fewest set-up and recovery samples a run takes.
    min_samples: usize,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            patients: 60,
            prescriptions: 400,
            warmup: 40,
            min_samples: 3,
        }
    } else {
        Sizes {
            patients: 300,
            prescriptions: 3_000,
            warmup: 128,
            min_samples: 50,
        }
    }
}

/// Distinct (report, effective role set) pairs the requests cover.
pub fn distinct_pairs() -> usize {
    deploy::report_mix().len() * deploy::MIX_CONSUMERS
}

/// Per-request correctness: the outcome class matches the design and a
/// repeated request reproduces its first fingerprint.
struct Checker {
    first: HashMap<(usize, usize), u64>,
}

impl Checker {
    fn check(
        &mut self,
        r: &mut Report,
        mix: &[MixReport],
        key: (usize, usize),
        result: &Result<bi_core::report::EnforcedReport, bi_core::SystemError>,
    ) {
        let (ri, mask) = key;
        let id = &mix[ri].spec.id;
        let expected = mix[ri].expect_delivered(mask);
        let class_ok = match result {
            Ok(_) => expected,
            Err(_) => !expected && deploy::is_refusal(result),
        };
        r.check(class_ok, || match result {
            Ok(_) => format!("{id} for role set {mask:#07b}: delivered, expected a refusal"),
            Err(e) => format!("{id} for role set {mask:#07b}: {e}"),
        });
        let fp = deploy::fingerprint(result);
        let first = *self.first.entry(key).or_insert(fp);
        r.check(first == fp, || {
            format!("{id} for role set {mask:#07b}: identical request, different rows")
        });
    }
}

fn serve(
    sys: &mut BiSystem,
    mix: &[MixReport],
    key: (usize, usize),
) -> (
    Result<bi_core::report::EnforcedReport, bi_core::SystemError>,
    Duration,
) {
    let consumer = deploy::mix_consumer(key.1);
    let t = Instant::now();
    let result = sys.deliver(&mix[key.0].spec.id, &consumer);
    (result, t.elapsed())
}

/// The untimed prefix every system serves first: warms the check-program
/// cache and writes the fixed log recovery is measured on.
fn warm_up(
    sys: &mut BiSystem,
    mix: &[MixReport],
    order: &mut Cycle<(usize, usize)>,
    n: usize,
    checker: &mut Checker,
    r: &mut Report,
) {
    for _ in 0..n {
        let key = order.next();
        let (result, _) = serve(sys, mix, key);
        checker.check(r, mix, key, &result);
    }
}

/// A request: (report index in the mix, role subset).
type Key = (usize, usize);

/// Serves requests until `seconds` of client time have passed and at
/// least a key cycle's worth has been timed, sampling set-up and
/// recovery in between.
/// Returns the number of deliveries served and each timed delivery's
/// key and latency in ms (correctness checks and samples excluded; the
/// delivery right after a sample is served but not timed).
fn timed_loop(
    sys: &mut BiSystem,
    mix: &[MixReport],
    order: &mut Cycle<(usize, usize)>,
    seconds: f64,
    checker: &mut Checker,
    r: &mut Report,
    shots: &mut OneShots,
) -> Result<(usize, Vec<(Key, f64)>), String> {
    let mut lats = Vec::new();
    let mut wall = Duration::ZERO;
    let (mut served, mut after_sample) = (0, false);
    while wall.as_secs_f64() < seconds || lats.len() < distinct_pairs() {
        let key = order.next();
        let (result, lat) = serve(sys, mix, key);
        served += 1;
        wall += lat;
        if !after_sample {
            lats.push((key, ms(lat)));
        }
        checker.check(r, mix, key, &result);
        after_sample = shots.between(wall, r)?;
    }
    Ok((served, lats))
}

fn journal_complete(sys: &BiSystem, served: usize, r: &mut Report) {
    let len = sys.audit_log().entries().len();
    r.check(len == served, || {
        format!("journal holds {len} entries after {served} requests")
    });
}

pub fn run(p: &Params) -> Result<Report, String> {
    let sz = sizes(p.tiny);
    let mix = deploy::report_mix();
    let inputs = Inputs {
        scenario: deploy::scenario(p.seed, sz.patients, sz.prescriptions),
        reports: mix.iter().map(|m| m.spec.clone()).collect(),
        grants: deploy::mix_grants(),
    };
    let keys: Vec<(usize, usize)> = (0..mix.len())
        .flat_map(|ri| (0..deploy::MIX_CONSUMERS).map(move |m| (ri, m)))
        .collect();
    let mut r = Report::default();
    let live = p.wal("interactive");
    let fixed = p.wal("interactive-fixed");
    let (mut sys, first_build) = deploy::timed_build(&inputs, &live)?;

    let mut order = Cycle::new(keys.clone(), p.seed);
    let mut checker = Checker {
        first: HashMap::new(),
    };
    warm_up(&mut sys, &mix, &mut order, sz.warmup, &mut checker, &mut r);
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
    let wal_before = deploy::file_len(&live);
    let (served, samples) = timed_loop(
        &mut sys,
        &mix,
        &mut order,
        seconds,
        &mut checker,
        &mut r,
        &mut shots,
    )?;
    let wal_bytes = deploy::file_len(&live) - wal_before;
    journal_complete(&sys, sz.warmup + served, &mut r);
    shots.at_least(sz.min_samples, &mut r)?;

    r.note(format!(
        "interactive: {served} deliveries over {} distinct (report, role set) pairs (render cache holds 256); {} prescriptions",
        distinct_pairs(),
        sz.prescriptions
    ));
    if !p.trace {
        // One cycle serves every pair once; at each pair's best time
        // it takes the sum of the bests.
        let best = best_per_key(&samples);
        EndToEnd {
            setup_s: shots.setup_s,
            throughput_per_s: best.len() as f64 / (best.iter().sum::<f64>() / 1e3),
            wal_bytes_per_delivery: wal_bytes as f64 / served as f64,
            repeats: samples.len() / distinct_pairs(),
            best_ms: best,
            recover_s: shots.recover_s,
        }
        .report(&mut r);
        return Ok(r);
    }

    // Traced pass: a second deployment with observability on, the same
    // request order, every request followed by its layer probes.
    drop(sys);
    let mut tsys = deploy::build(&inputs, &live)?;
    let obs = Obs::enabled();
    tsys.engine_mut().exec.obs = obs.clone();
    let mut order = Cycle::new(keys, p.seed);
    warm_up(&mut tsys, &mix, &mut order, sz.warmup, &mut checker, &mut r);
    obs.reset();
    let mut t = Tracer::new();
    let mut sinks = Sinks::new(&p.wal("probe"))?;
    let mut traced_lats = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        request += 1;
        let key = order.next();
        let consumer = deploy::mix_consumer(key.1);
        let (result, root) = t.span("core.deliver", 0, request, || {
            tsys.deliver(&mix[key.0].spec.id, &consumer)
        });
        traced_lats.push((key, t.spans[root as usize - 1].dur().as_secs_f64() * 1e3));
        checker.check(&mut r, &mix, key, &result);
        let Some(entry) = tsys.audit_log().entries().last().cloned() else {
            r.check(false, || "delivery left no journal entry".into());
            continue;
        };
        let (snap, _) = t.span("warehouse.snapshot", root, request, || {
            tsys.warehouse().snapshot()
        });
        let agrees = trace::probe_render(
            &mut t,
            root,
            request,
            &mix[key.0].spec,
            &entry,
            snap.catalog(),
            &tsys,
        );
        r.check(agrees, || {
            format!("probe re-render of {} disagrees", entry.report)
        });
        trace::probe_journal(&mut t, root, request, &entry, &mut sinks);
    }
    let calls = request;
    let journal = tsys.audit_log().entries().to_vec();
    let tail = &journal[journal.len().saturating_sub(64)..];
    Offline {
        sys: &tsys,
        sources: &inputs.scenario.sources,
        pipeline: &deploy::nightly(),
        fixed_wal: &fixed,
        journal: tail,
        dispute_entries: 4,
        reps: 5,
    }
    .probe(&mut t, request + 1)?;
    trace::layer_metrics(
        &mut r,
        &t,
        "core.deliver",
        &sinks,
        &obs.snapshot(),
        calls,
        &journal,
    );
    r.metric(
        "bench.trace_overhead_ms",
        median(&best_per_key(&traced_lats)) - median(&best_per_key(&samples)),
        "ms",
    );
    r.spans = t.spans;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A changed row fingerprint on a repeated request trips the check.
    #[test]
    fn corrupted_rows_trip_the_fingerprint_check() {
        let p = crate::tests::tiny("interactive-corrupt", false);
        let mix = deploy::report_mix();
        let inputs = Inputs {
            scenario: deploy::scenario(p.seed, 60, 400),
            reports: mix.iter().map(|m| m.spec.clone()).collect(),
            grants: deploy::mix_grants(),
        };
        let mut sys = deploy::build(&inputs, &p.wal("live")).expect("tiny deployment builds");
        let mut checker = Checker {
            first: HashMap::new(),
        };
        let mut r = Report::default();
        let key = (0, 1); // disease counts for an analyst: delivered
        let (first, _) = serve(&mut sys, &mix, key);
        checker.check(&mut r, &mix, key, &first);
        let (again, _) = serve(&mut sys, &mix, key);
        checker.check(&mut r, &mix, key, &again);
        assert!(r.correct(), "{:?}", r.notes);

        let mut corrupted = again.expect("delivered");
        let row = corrupted.table.rows()[0].clone();
        corrupted.table.push_row(row).expect("row conforms");
        checker.check(&mut r, &mix, key, &Ok(corrupted));
        assert_eq!(r.failed, 1, "{:?}", r.notes);
        let _ = std::fs::remove_dir_all(&p.scratch);
    }

    /// A refusal where the design expects a delivery trips the class check.
    #[test]
    fn unexpected_outcome_class_trips_the_check() {
        let mix = deploy::report_mix();
        let mut checker = Checker {
            first: HashMap::new(),
        };
        let mut r = Report::default();
        let refused = Err(bi_core::SystemError::UnknownReport("x".into()));
        checker.check(&mut r, &mix, (0, 1), &refused);
        assert!(!r.correct());
    }
}
