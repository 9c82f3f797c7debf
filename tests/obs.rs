//! Observability-layer integration tests: the determinism contract
//! (snapshots invariant across thread counts), the no-op guarantee
//! (obs-disabled runs are byte-identical to obs-enabled ones), and the
//! audit linkage (every delivery's trace id resolves to its journal
//! entry and back).

use plabi::anonymize::{self, hierarchy::CategoricalBuilder, Hierarchy};
use plabi::exec::{ExecConfig, Obs, ObsSnapshot, TraceId};
use plabi::prelude::*;
use plabi::types::{Column, DataType, Schema};
use proptest::prelude::*;

fn today() -> Date {
    Date::new(2008, 7, 1).unwrap()
}

/// The standard deployment: hospital prescriptions ETL'd into the
/// warehouse, one approved meta-report, two reports (one deliverable,
/// one that the gate refuses), one consumer.
fn deployment() -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        patients: 40,
        prescriptions: 260,
        lab_tests: 60,
        ..Default::default()
    });
    let mut sys = BiSystem::new(today());
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(
        r#"pla "hospital-1" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 2;
  allow integration by hospital;
  allow integration by laboratory;
}"#,
    )
    .unwrap();
    let pipeline = Pipeline::new("nightly")
        .step(
            "e1",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "stg".into(),
            },
        )
        .step(
            "l1",
            EtlOp::Load {
                table: "stg".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        );
    sys.run_etl(&pipeline, Some("quality")).unwrap();
    sys.add_meta_report(
        MetaReport::new(
            "m1",
            "Prescription universe",
            scan("FactPrescriptions").project_cols(&["Patient", "Drug", "Disease", "Date"]),
        )
        .approved("hospital"),
    );
    sys.subjects_mut().grant("alice@agency", "analyst");
    sys.define_report(ReportSpec::new(
        "r-consumption",
        "Drug consumption",
        scan("FactPrescriptions").aggregate(
            vec!["Drug".into()],
            vec![AggItem::count_star("Consumption")],
        ),
        [RoleId::new("analyst")],
    ));
    sys.define_report(ReportSpec::new(
        "r-raw",
        "Raw rows",
        scan("FactPrescriptions").project_cols(&["Patient", "Disease"]),
        [RoleId::new("analyst")],
    ));
    sys
}

fn batch() -> Vec<(ReportId, ConsumerId)> {
    vec![
        (
            ReportId::new("r-consumption"),
            ConsumerId::new("alice@agency"),
        ),
        (ReportId::new("r-raw"), ConsumerId::new("alice@agency")),
        (ReportId::new("r-ghost"), ConsumerId::new("alice@agency")),
        (ReportId::new("r-consumption"), ConsumerId::new("nobody")),
        (
            ReportId::new("r-consumption"),
            ConsumerId::new("alice@agency"),
        ),
    ]
}

/// Runs the standard batch on a fresh deployment at `threads`, returning
/// the snapshot and the delivered row counts.
fn observed_run(threads: usize) -> (ObsSnapshot, Vec<Option<usize>>) {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
    let results = sys.deliver_batch(&batch());
    let rows: Vec<Option<usize>> = results
        .iter()
        .map(|r| r.as_ref().ok().map(|e| e.table.len()))
        .collect();
    (obs.snapshot(), rows)
}

/// The tentpole contract: counters, span counts and trace ids are
/// invariant across thread counts — only span nanos (excluded from
/// equality) may differ.
#[test]
fn snapshots_are_identical_across_thread_counts() {
    let (base, base_rows) = observed_run(1);
    assert!(!base.counters.is_empty(), "enabled obs records counters");
    for threads in [2, 8] {
        let (snap, rows) = observed_run(threads);
        assert_eq!(
            snap, base,
            "threads={threads}\n-- base --\n{base}\n-- got --\n{snap}"
        );
        assert_eq!(rows, base_rows, "threads={threads}");
    }
    // Spot-check the delivery-layer counters: 5 requests, 1 ghost
    // bypasses the journal, 1 refusal (r-raw), 1 distribution refusal
    // (nobody), 2 deliveries.
    assert_eq!(base.counters.get("deliver.requests"), Some(&5));
    assert_eq!(base.counters.get("deliver.delivered"), Some(&2));
    assert_eq!(base.counters.get("deliver.refused"), Some(&2));
    assert_eq!(base.counters.get("deliver.errors"), Some(&1));
    assert_eq!(base.counters.get("audit.journal.appends"), Some(&4));
    // Render spans: one per equivalence group, not per request — the
    // two alice/r-consumption requests share one render, the ghost
    // never renders. 3 groups render, 1 request rides along shared.
    assert_eq!(base.spans.get("deliver.render").map(|s| s.count), Some(3));
    assert_eq!(base.spans.get("deliver.batch").map(|s| s.count), Some(1));
    assert_eq!(base.counters.get("deliver.render.unique"), Some(&3));
    assert_eq!(base.counters.get("deliver.render.shared"), Some(&1));
    // Traces journaled in request order, skipping the ghost (trace 3).
    let nums: Vec<u64> = base.traces.iter().map(|t| t.value()).collect();
    assert_eq!(nums, vec![1, 2, 4, 5]);
}

/// The no-op guarantee: a disabled recorder changes nothing about the
/// delivered tables, and its snapshot is empty.
#[test]
fn disabled_obs_is_inert_and_byte_identical() {
    let mut plain = deployment();
    plain.engine_mut().exec = ExecConfig::with_threads(2);
    let baseline = plain.deliver_batch(&batch());
    assert!(!plain.engine_mut().exec.obs.is_enabled());
    assert_eq!(
        plain.engine_mut().exec.obs.snapshot(),
        ObsSnapshot::default()
    );

    let mut observed = deployment();
    let obs = Obs::enabled();
    observed.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let results = observed.deliver_batch(&batch());

    assert_eq!(baseline.len(), results.len());
    for (b, o) in baseline.iter().zip(&results) {
        match (b, o) {
            (Ok(be), Ok(oe)) => {
                assert_eq!(be.table.rows(), oe.table.rows());
                assert_eq!(be.table.schema(), oe.table.schema());
                assert_eq!(be.applied, oe.applied);
            }
            (Err(be), Err(oe)) => assert_eq!(be.to_string(), oe.to_string()),
            other => panic!("obs flipped a result: {other:?}"),
        }
    }
    // Journals agree too (modulo nothing: traces are assigned either way).
    let plain_entries: Vec<_> = plain
        .audit_log()
        .entries()
        .iter()
        .map(|e| (e.seq, e.report.clone()))
        .collect();
    let obs_entries: Vec<_> = observed
        .audit_log()
        .entries()
        .iter()
        .map(|e| (e.seq, e.report.clone()))
        .collect();
    assert_eq!(plain_entries, obs_entries);
}

/// The audit linkage: deliver → journal → recheck round-trip. Every
/// trace in the snapshot resolves to a journal entry carrying the
/// policy epoch that served it; the epoch-aware recheck replays each
/// entry against that snapshot and stays clean even after the policy
/// tightens, while the drift recheck flags the change.
#[test]
fn delivery_traces_round_trip_through_journal_and_recheck() {
    let mut sys = deployment();
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::with_threads(2).with_obs(obs.clone());
    let _ = sys.deliver_batch(&batch());
    let snap = obs.snapshot();
    assert!(!snap.traces.is_empty());
    for t in &snap.traces {
        let entry = sys
            .audit_log()
            .find_trace(*t)
            .expect("snapshot trace resolves in journal");
        assert_eq!(entry.provenance.trace, *t);
        assert!(
            entry.provenance.policy_epoch > 0,
            "epoch of the serving policy recorded"
        );
    }
    // One trace per journaled entry, in journal order.
    let journal_traces: Vec<TraceId> = sys
        .audit_log()
        .entries()
        .iter()
        .map(|e| e.provenance.trace)
        .collect();
    assert_eq!(snap.traces, journal_traces);
    // A trace never issued does not resolve.
    assert!(sys
        .audit_log()
        .find_trace(TraceId::new(0xdead_beef))
        .is_none());

    // Both rechecks are clean today.
    assert!(sys.recheck().unwrap().is_empty());
    assert!(sys.recheck_at_delivery().unwrap().is_empty());

    // The hospital tightens its agreement after delivery: Drug becomes
    // auditor-only, so the delivered consumption report drifts out of
    // compliance.
    sys.add_pla(
        PlaDocument::new("tighten", "hospital", PlaLevel::MetaReport).with_rule(
            PlaRule::AttributeAccess {
                attribute: AttrRef::new("FactPrescriptions", "Drug"),
                allowed_roles: [RoleId::new("auditor")].into_iter().collect(),
                condition: None,
            },
        ),
    );
    let drifted = sys.recheck().unwrap();
    assert!(
        !drifted.is_empty(),
        "drift recheck flags the tightened policy"
    );
    // Each finding links back to its journal entry by trace.
    for f in &drifted {
        let entry = sys.audit_log().find_trace(f.trace).unwrap();
        assert_eq!(entry.seq, f.seq);
        assert_eq!(entry.provenance.policy_epoch, f.policy_epoch);
    }
    // Replayed against the policies that actually served them, the
    // deliveries were compliant: no enforcement bug, only drift.
    assert!(sys.recheck_at_delivery().unwrap().is_empty());
}

// ---------- anonymization counters ----------

fn disease_hierarchy() -> Hierarchy {
    CategoricalBuilder::new()
        .edge("HIV", "infectious")
        .edge("hepatitis", "infectious")
        .edge("asthma", "respiratory")
        .edge("bronchitis", "respiratory")
        .edge("infectious", "any")
        .edge("respiratory", "any")
        .build("Disease")
        .unwrap()
}

fn patient_table(rows: &[(&str, i64)]) -> Table {
    Table::from_rows(
        "P",
        Schema::new(vec![
            Column::new("Disease", DataType::Text),
            Column::new("Age", DataType::Int),
        ])
        .unwrap(),
        rows.iter()
            .map(|(d, a)| vec![Value::from(*d), Value::Int(*a)])
            .collect(),
    )
    .unwrap()
}

/// K-anonymization counters derive from the accepted lattice node only,
/// so they are identical at any thread count even though the parallel
/// wave speculatively evaluates nodes the serial search never visits.
#[test]
fn kanon_counters_are_thread_invariant() {
    let table = patient_table(&[
        ("HIV", 30),
        ("hepatitis", 40),
        ("asthma", 30),
        ("bronchitis", 50),
        ("asthma", 40),
        ("HIV", 50),
    ]);
    let hs = vec![disease_hierarchy()];
    let run = |threads: usize| {
        let obs = Obs::enabled();
        let cfg = ExecConfig::with_threads(threads).with_obs(obs.clone());
        let out = anonymize::kanonymize_with(&table, &hs, 2, 1, &cfg).unwrap();
        (
            obs.snapshot(),
            out.table.rows().to_vec(),
            out.levels.clone(),
        )
    };
    let (base_snap, base_rows, base_levels) = run(1);
    assert!(base_snap.counters.contains_key("anonymize.lattice.nodes"));
    assert!(base_snap.counters.contains_key("anonymize.lattice.waves"));
    for threads in [2, 8] {
        let (snap, rows, levels) = run(threads);
        assert_eq!(snap, base_snap, "threads={threads}");
        assert_eq!(rows, base_rows);
        assert_eq!(levels, base_levels);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the determinism contract: for random small
    /// tables and parameters, the k-anonymization snapshot at 2 and 8
    /// threads equals the serial one, and the obs-enabled output equals
    /// the obs-disabled output byte for byte.
    #[test]
    fn prop_kanon_snapshot_and_output_deterministic(
        rows in proptest::collection::vec(
            (prop_oneof![Just("HIV"), Just("hepatitis"), Just("asthma"), Just("bronchitis")],
             20i64..60),
            4..24,
        ),
        k in 2usize..4,
        suppress in 0usize..3,
    ) {
        let table = patient_table(&rows);
        let hs = vec![disease_hierarchy()];
        let plain = anonymize::kanonymize_with(
            &table, &hs, k, suppress, &ExecConfig::default());
        let obs = Obs::enabled();
        let cfg = ExecConfig::default().with_obs(obs.clone());
        let observed = anonymize::kanonymize_with(&table, &hs, k, suppress, &cfg);
        match (plain, observed) {
            (Ok(p), Ok(o)) => {
                prop_assert_eq!(p.table.rows(), o.table.rows());
                prop_assert_eq!(&p.levels, &o.levels);
                let base = obs.snapshot();
                for threads in [2usize, 8] {
                    let tobs = Obs::enabled();
                    let tcfg = ExecConfig::with_threads(threads).with_obs(tobs.clone());
                    let t = anonymize::kanonymize_with(&table, &hs, k, suppress, &tcfg).unwrap();
                    prop_assert_eq!(t.table.rows(), o.table.rows());
                    prop_assert_eq!(tobs.snapshot(), base.clone(), "threads={}", threads);
                }
            }
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "obs flipped the result: {:?}", other.0.is_ok()),
        }
    }
}
