//! Write-ahead-log benchmark: what durability costs at delivery time,
//! and what recovery costs at restart.
//!
//! Every journaled delivery appends one length-prefixed, checksummed
//! record to the WAL (buffered write + flush, no fsync — the declared
//! durability contract). This bench runs the same delivery workload
//! on two deployments — WAL off and WAL on — in alternating chunks, so
//! both see the same stretches of host speed, and reports the overhead
//! ratio of their summed times; then
//! it journals a deep delivery history and times `BiSystem::recover`,
//! verifying the recovered journal is complete.
//!
//! Writes `BENCH_wal.json` for `scripts/bench_smoke.sh`.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_wal --
//! [--quick] [--out PATH]`. `--quick` shrinks the workload for smoke
//! runs.

use std::path::PathBuf;
use std::time::Instant;

use bi_core::etl::{EtlOp, Pipeline};
use bi_core::query::plan::{scan, AggItem};
use bi_core::report::ReportSpec;
use bi_core::types::{ConsumerId, Date, ReportId, RoleId};
use bi_core::BiSystem;
use bi_synth::{Scenario, ScenarioConfig};

const REPORTS: usize = 8;

/// Deliveries per timed chunk (a whole number of report rounds); the
/// WAL-off and WAL-on deployments alternate chunk by chunk.
const CHUNK: usize = REPORTS * 25;

fn etl() -> Pipeline {
    Pipeline::new("nightly")
        .step(
            "e",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "s".into(),
            },
        )
        .step(
            "l",
            EtlOp::Load {
                table: "s".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
}

/// One hospital source, an aggregation PLA, `REPORTS` rollup reports
/// and one consumer per report role. `wal` attaches a log first so the
/// whole setup is journaled too, exactly as a durable deployment would.
fn build(prescriptions: usize, wal: Option<&PathBuf>) -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 100,
        prescriptions,
        lab_tests: 0,
        ..Default::default()
    });
    let mut sys = BiSystem::new(Date::new(2008, 7, 1).unwrap());
    if let Some(path) = wal {
        let _ = std::fs::remove_file(path);
        sys.enable_wal(path).expect("bench WAL opens");
    }
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(
        r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
}"#,
    )
    .expect("bench PLA parses");
    sys.run_etl(&etl(), Some("quality"))
        .expect("bench ETL loads");
    let groups = ["Drug", "Disease", "Date", "Patient"];
    for i in 0..REPORTS {
        sys.define_report(ReportSpec::new(
            format!("rep-{i}"),
            format!("Rollup {i}"),
            scan("FactPrescriptions").aggregate(
                vec![groups[i % groups.len()].into()],
                vec![AggItem::count_star("N")],
            ),
            [RoleId::new(format!("role-{i}"))],
        ));
        sys.grant(format!("consumer-{i}"), format!("role-{i}"));
    }
    sys
}

/// `deliveries` journal appends, spread round-robin over the reports.
fn run_deliveries(sys: &mut BiSystem, deliveries: usize) {
    for d in 0..deliveries {
        let i = d % REPORTS;
        sys.deliver(
            &ReportId::new(format!("rep-{i}")),
            &ConsumerId::new(format!("consumer-{i}")),
        )
        .expect("bench delivery succeeds");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_wal.json".to_string());

    let deliveries = if quick { 1_000 } else { 5_000 };
    let prescriptions = if quick { 500 } else { 2_000 };
    let recover_entries = if quick { 2_000 } else { 10_000 };
    let wal_path = std::env::temp_dir().join(format!("plabi-bench-wal-{}.wal", std::process::id()));

    // Delivery overhead: identical workloads, WAL off vs on.
    let mut off = build(prescriptions, None);
    let mut on = build(prescriptions, Some(&wal_path));
    let (mut wal_off_ms, mut wal_on_ms) = (0.0, 0.0);
    for _ in 0..deliveries / CHUNK {
        for (sys, total) in [(&mut off, &mut wal_off_ms), (&mut on, &mut wal_on_ms)] {
            let t0 = Instant::now();
            run_deliveries(sys, CHUNK);
            *total += t0.elapsed().as_secs_f64() * 1e3;
        }
    }
    assert!(
        on.wal_enabled(),
        "WAL must stay healthy through the workload"
    );
    let wal_bytes = std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let overhead = wal_on_ms / wal_off_ms;
    drop(on);

    // Recovery: journal a deep history, then rebuild from the log.
    let mut deep = build(prescriptions, Some(&wal_path));
    run_deliveries(&mut deep, recover_entries);
    let expected = deep.audit_log().entries().len();
    drop(deep);
    let t0 = Instant::now();
    let recovered = BiSystem::recover(&wal_path).expect("bench WAL recovers");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered_entries = recovered.audit_log().entries().len();
    assert_eq!(
        recovered_entries, expected,
        "recovery must replay the full journal"
    );
    let _ = std::fs::remove_file(&wal_path);

    eprintln!(
        "{deliveries} deliveries: WAL off {wal_off_ms:.1} ms, on {wal_on_ms:.1} ms \
         (x{overhead:.3}, {wal_bytes} bytes); \
         recover {recovered_entries} entries in {recover_ms:.1} ms"
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\"deliveries\":{deliveries},\"cores\":{cores},\"quick\":{quick},\"wal_off_ms\":{wal_off_ms:.3},\
\"wal_on_ms\":{wal_on_ms:.3},\"overhead\":{overhead:.4},\"wal_bytes\":{wal_bytes},\
\"recover_entries\":{recovered_entries},\"recover_expected\":{expected},\
\"recover_ms\":{recover_ms:.3}}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_wal.json");
    eprintln!("wrote {out_path}");
}
