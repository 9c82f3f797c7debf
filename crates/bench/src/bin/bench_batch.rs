//! Shared-render batch delivery benchmark: dashboard-shaped traffic.
//!
//! A delivery batch in a real BI deployment is thousands of consumers
//! pulling a few dozen distinct reports — the (report, effective-role)
//! profile count is tiny next to the request count. This bench builds a
//! hospital deployment with ~20 role profiles, fans a 10k-consumer
//! batch through `deliver_batch`, and compares:
//!
//! * **unshared** — sharing and the render cache disabled: every
//!   request renders from scratch (the pre-scheduler behaviour);
//! * **shared cold** — equivalence grouping on, cache empty: one
//!   render per profile serves its whole group;
//! * **shared warm** — the identical batch again on the same system:
//!   every group is a cross-batch cache hit, nothing renders.
//!
//! A post-ETL section re-runs a storage-rebuilding pipeline and
//! verifies the warm cache goes *quiet* (zero hits — the storage
//! versions in the key changed) and that the re-rendered batch matches
//! a serial `deliver` oracle row for row: no stale serves.
//!
//! Writes `BENCH_batch.json` for `scripts/bench_smoke.sh`.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_batch --
//! [--quick] [--out PATH]`. `--quick` shrinks the batch for smoke runs.

use std::time::Instant;

use bi_core::etl::{EtlOp, Pipeline};
use bi_core::exec::{ExecConfig, Obs};
use bi_core::query::plan::{scan, AggItem};
use bi_core::relation::expr::{col, lit};
use bi_core::report::ReportSpec;
use bi_core::types::{ConsumerId, Date, ReportId, RoleId};
use bi_core::BiSystem;
use bi_synth::{Scenario, ScenarioConfig};

const PROFILES: usize = 20;

fn etl(step_tag: &str, derive: bool) -> Pipeline {
    let mut p = Pipeline::new(step_tag).step(
        "e",
        EtlOp::Extract {
            source: "hospital".into(),
            table: "Prescriptions".into(),
            as_name: "s".into(),
        },
    );
    if derive {
        // Rebuilds the row storage, bumping the storage version the
        // enforcement key fingerprints.
        p = p.step(
            "d",
            EtlOp::Derive {
                table: "s".into(),
                column: "Loaded".into(),
                expr: lit(1),
            },
        );
    }
    p.step(
        "l",
        EtlOp::Load {
            table: "s".into(),
            warehouse_table: "FactPrescriptions".into(),
        },
    )
}

/// The deployment: one hospital source ETL'd into the warehouse, one
/// aggregation PLA, `PROFILES` single-role reports with distinct plans,
/// and `consumers` consumers spread round-robin over the roles.
fn build(consumers: usize, prescriptions: usize) -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 200,
        prescriptions,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(
        r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
}"#,
    )
    .expect("bench PLA parses");
    sys.run_etl(&etl("nightly", false), Some("quality"))
        .expect("bench ETL loads");
    let groups = ["Drug", "Disease", "Date", "Patient"];
    for i in 0..PROFILES {
        // Each profile gets its own plan: a distinct (vacuous) filter so
        // every unique render pays a real scan, and a rotating grouping
        // column so outputs differ across profiles.
        let plan = scan("FactPrescriptions")
            .filter(col("Disease").ne(lit(format!("no-such-disease-{i:02}"))))
            .aggregate(
                vec![groups[i % groups.len()].into()],
                vec![AggItem::count_star("N")],
            );
        sys.define_report(ReportSpec::new(
            format!("rep-{i:02}"),
            format!("Profile {i:02} rollup"),
            plan,
            [RoleId::new(format!("role-{i:02}"))],
        ));
    }
    for c in 0..consumers {
        sys.subjects_mut()
            .grant(format!("consumer-{c}"), format!("role-{:02}", c % PROFILES));
    }
    sys
}

fn requests(consumers: usize) -> Vec<(ReportId, ConsumerId)> {
    (0..consumers)
        .map(|c| {
            (
                ReportId::new(format!("rep-{:02}", c % PROFILES)),
                ConsumerId::new(format!("consumer-{c}")),
            )
        })
        .collect()
}

/// Row-level fingerprints of a batch's outcomes, for cross-mode and
/// stale-oracle comparison.
fn fingerprints(
    results: &[Result<bi_core::report::EnforcedReport, bi_core::SystemError>],
) -> Vec<String> {
    results
        .iter()
        .map(|r| match r {
            Ok(e) => format!("ok:{:?}", e.table.rows()),
            Err(e) => format!("err:{e}"),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_batch.json".to_string());

    let consumers = if quick { 2_000 } else { 10_000 };
    let prescriptions = if quick { 1_000 } else { 4_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = cores.min(8);
    let cfg = ExecConfig::with_threads(threads);
    let reqs = requests(consumers);

    // Unshared baseline: the pre-scheduler fan-out, one render per
    // request (grouping and the render cache both off).
    let mut unshared_sys = build(consumers, prescriptions);
    unshared_sys.engine_mut().exec = cfg.clone();
    unshared_sys.set_render_sharing(false);
    unshared_sys.set_render_cache_capacity(0);
    let t0 = Instant::now();
    let unshared_out = unshared_sys.deliver_batch(&reqs);
    let unshared_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Shared: grouped renders, cold cache — then the same batch warm.
    let mut shared_sys = build(consumers, prescriptions);
    shared_sys.engine_mut().exec = cfg.clone();
    let t0 = Instant::now();
    let shared_out = shared_sys.deliver_batch(&reqs);
    let shared_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let warm_out = shared_sys.deliver_batch(&reqs);
    let shared_warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Sharing must be invisible in the results.
    let reference = fingerprints(&unshared_out);
    assert_eq!(
        reference,
        fingerprints(&shared_out),
        "shared cold diverged from unshared"
    );
    assert_eq!(
        reference,
        fingerprints(&warm_out),
        "shared warm diverged from unshared"
    );

    // Counters on a separate observed system (untimed): cold batch,
    // warm batch, then a storage-rebuilding ETL commit and a third
    // batch that must not touch the cache.
    let obs = Obs::enabled();
    let mut counted = build(consumers, prescriptions);
    counted.engine_mut().exec = cfg.clone().with_obs(obs.clone());
    let _ = counted.deliver_batch(&reqs);
    let cold_snap = obs.snapshot();
    let render_unique = cold_snap
        .counters
        .get("deliver.render.unique")
        .copied()
        .unwrap_or(0);
    let render_shared = cold_snap
        .counters
        .get("deliver.render.shared")
        .copied()
        .unwrap_or(0);
    let _ = counted.deliver_batch(&reqs);
    let warm_hits = obs
        .snapshot()
        .counters
        .get("render.cache.hit")
        .copied()
        .unwrap_or(0)
        .saturating_sub(
            cold_snap
                .counters
                .get("render.cache.hit")
                .copied()
                .unwrap_or(0),
        );

    counted
        .run_etl(&etl("nightly-rebuild", true), Some("quality"))
        .expect("bench ETL reloads");
    let pre_etl_hits = obs
        .snapshot()
        .counters
        .get("render.cache.hit")
        .copied()
        .unwrap_or(0);
    let post_etl_out = counted.deliver_batch(&reqs);
    let post_etl_hits = obs
        .snapshot()
        .counters
        .get("render.cache.hit")
        .copied()
        .unwrap_or(0)
        .saturating_sub(pre_etl_hits);
    // Stale oracle: the serial path never consults the render cache —
    // one `deliver` per profile must agree with the post-ETL batch.
    let post_etl_fps = fingerprints(&post_etl_out);
    let mut post_etl_stale = false;
    for p in 0..PROFILES {
        let (id, c) = &reqs[p];
        let serial = counted.deliver(id, c);
        let serial_fp = fingerprints(std::slice::from_ref(&serial));
        if post_etl_fps[p] != serial_fp[0] {
            post_etl_stale = true;
        }
    }

    let speedup = unshared_ms / shared_cold_ms;
    let warm_speedup = unshared_ms / shared_warm_ms;
    eprintln!(
        "{consumers} requests over {PROFILES} profiles ({threads} threads): \
         unshared {unshared_ms:.1} ms  shared cold {shared_cold_ms:.1} ms (x{speedup:.2})  \
         shared warm {shared_warm_ms:.1} ms (x{warm_speedup:.2})"
    );
    eprintln!(
        "cold: {render_unique} unique renders / {render_shared} shared; \
         warm cache hits {warm_hits}; post-ETL cache hits {post_etl_hits} (stale: {post_etl_stale})"
    );

    let json = format!(
        "{{\"requests\":{consumers},\"profiles\":{PROFILES},\"threads\":{threads},\"cores\":{cores},\
\"quick\":{quick},\"unshared_ms\":{unshared_ms:.3},\"shared_cold_ms\":{shared_cold_ms:.3},\
\"shared_warm_ms\":{shared_warm_ms:.3},\"speedup\":{speedup:.3},\
\"warm_speedup\":{warm_speedup:.3},\"render_unique\":{render_unique},\
\"render_shared\":{render_shared},\"warm_cache_hits\":{warm_hits},\
\"post_etl_cache_hits\":{post_etl_hits},\"post_etl_stale\":{post_etl_stale}}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_batch.json");
    eprintln!("wrote {out_path}");
}
