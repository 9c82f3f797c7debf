//! The default engine, end to end.
//!
//! A stock `BiSystem::new` runs the columnar + fused-pipeline engine.
//! Its deliveries must be indistinguishable from the row engine's
//! (`ExecConfig::row_oracle()`): every report of a synthetic deployment,
//! delivered to every subset of its distribution roles, yields the same
//! tables, enforcement actions, suppression counts, typed refusals and
//! journal entries, on either engine at 1, 2 and 8 pinned threads.

use plabi::exec::{ExecConfig, Obs};
use plabi::prelude::*;

const ROLES: [&str; 5] = ["analyst", "auditor", "planner", "pharmacist", "controller"];

/// A k-threshold, a role-conditional attribute under a row obligation,
/// a pseudonym, a forbidden source combination and a purpose limitation.
const PLAS: &str = r#"
pla "hospital-2008" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 3;
  allow attribute FactPrescriptions.Doctor to auditor when Disease <> 'HIV';
  anonymize FactPrescriptions.Patient with pseudonym;
  purpose quality, reimbursement;
}

pla "municipality-2008" source municipality version 1 level source {
  forbid join municipality with hospital;
}
"#;

fn today() -> Date {
    Date::new(2008, 7, 1).unwrap()
}

fn nightly() -> Pipeline {
    let mut p = Pipeline::new("nightly");
    for (source, table, stage, target) in [
        ("hospital", "Prescriptions", "presc", "FactPrescriptions"),
        ("health-agency", "DrugCost", "cost", "DimCost"),
        ("municipality", "Residents", "res", "DimResidents"),
    ] {
        p = p
            .step(
                format!("e-{stage}"),
                EtlOp::Extract {
                    source: source.into(),
                    table: table.into(),
                    as_name: stage.into(),
                },
            )
            .step(
                format!("l-{stage}"),
                EtlOp::Load {
                    table: stage.into(),
                    warehouse_table: target.into(),
                },
            );
    }
    p
}

/// Served shapes in two date windows (grouped counts, a pseudonymized
/// patient breakdown, the auditor-only obligation report, a permitted
/// join) plus three designed refusals (raw rows, a forbidden join, a
/// disallowed purpose).
fn reports() -> Vec<ReportSpec> {
    let count = || vec![AggItem::count_star("N")];
    let mut out = Vec::new();
    for (w, from) in ["2006-01-01", "2007-03-01"].iter().enumerate() {
        let base =
            scan("FactPrescriptions").filter(col("Date").ge(lit(Value::date(from).unwrap())));
        let served = [
            (
                "diseases",
                base.clone().aggregate(vec!["Disease".into()], count()),
            ),
            (
                "patient-drug",
                base.clone()
                    .aggregate(vec!["Patient".into(), "Drug".into()], count()),
            ),
            (
                "doctor-disease",
                base.clone()
                    .aggregate(vec!["Doctor".into(), "Disease".into()], count()),
            ),
            (
                "drug-cost",
                base.clone()
                    .join(scan("DimCost"), vec![("Drug".into(), "Drug".into())], "c")
                    .aggregate(
                        vec!["Disease".into()],
                        vec![AggItem::new("Cost", AggFunc::Sum, "Cost")],
                    ),
            ),
            (
                "drug-disease",
                base.clone()
                    .aggregate(vec!["Drug".into(), "Disease".into()], count()),
            ),
        ];
        let mut shapes: Vec<(&str, Plan, &str)> = served
            .into_iter()
            .map(|(name, plan)| (name, plan, "quality"))
            .collect();
        if w == 0 {
            shapes.push((
                "raw-rows",
                base.clone().project_cols(&["Patient", "Disease"]),
                "quality",
            ));
            shapes.push((
                "towns",
                base.clone()
                    .join(
                        scan("DimResidents"),
                        vec![("Patient".into(), "Patient".into())],
                        "r",
                    )
                    .aggregate(vec!["Municipality".into()], count()),
                "quality",
            ));
            shapes.push((
                "marketing",
                base.aggregate(vec!["Disease".into()], count()),
                "marketing",
            ));
        }
        for (name, plan, purpose) in shapes {
            out.push(
                ReportSpec::new(
                    format!("{name}-w{w}"),
                    name,
                    plan,
                    ROLES.iter().map(|r| RoleId::new(*r)),
                )
                .for_purpose(purpose),
            );
        }
    }
    out
}

fn consumer(mask: usize) -> ConsumerId {
    ConsumerId::new(format!("user-{mask:02}"))
}

/// A stock deployment: `BiSystem::new` defaults unless `exec` is given.
fn deployment(exec: Option<ExecConfig>) -> BiSystem {
    let scenario = Scenario::generate(ScenarioConfig {
        seed: 7,
        patients: 60,
        prescriptions: 600,
        lab_tests: 0,
    });
    let mut sys = BiSystem::new(today());
    if let Some(exec) = exec {
        sys.engine_mut().exec = exec;
    }
    for (sid, cat) in scenario.sources {
        sys.register_source(sid, cat);
    }
    sys.add_pla_text(PLAS).unwrap();
    sys.run_etl(&nightly(), Some("quality")).unwrap();
    for spec in reports() {
        sys.define_report(spec);
    }
    for mask in 0..(1usize << ROLES.len()) {
        for (bit, role) in ROLES.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                sys.grant(consumer(mask), *role);
            }
        }
    }
    sys
}

/// Every report to every role subset: one fingerprint per delivery
/// (table name, schema, rows, applied actions, suppressed groups — or
/// the typed refusal), then the whole journal.
fn deliver_all(sys: &mut BiSystem) -> (Vec<String>, Vec<String>) {
    let mut outcomes = Vec::new();
    for spec in reports() {
        for mask in 0..(1usize << ROLES.len()) {
            outcomes.push(match sys.deliver(&spec.id, &consumer(mask)) {
                Ok(r) => format!(
                    "ok {} {:?} {:?} {:?} {}",
                    r.table.name(),
                    r.table.schema(),
                    r.table.rows(),
                    r.applied,
                    r.suppressed_groups
                ),
                Err(e) => format!("err {e:?}"),
            });
        }
    }
    let journal = sys
        .audit_log()
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    (outcomes, journal)
}

#[test]
fn default_engine_deliveries_match_the_row_oracle() {
    let (outcomes, journal) = deliver_all(&mut deployment(None));
    // The mix exercises both outcomes and the enforcement paths.
    assert!(outcomes.iter().any(|o| o.starts_with("ok")));
    assert!(outcomes.iter().any(|o| o.starts_with("err")));
    assert!(
        outcomes
            .iter()
            .any(|o| o.starts_with("ok") && !o.ends_with(" 0")),
        "some delivery suppresses groups under the k-threshold"
    );
    assert_eq!(journal.len(), outcomes.len(), "every request is journaled");

    let pinned = |cfg: ExecConfig, threads: usize| ExecConfig {
        threads,
        pinned: true,
        ..cfg
    };
    for threads in [1, 2, 8] {
        for (engine, cfg) in [
            ("row oracle", pinned(ExecConfig::row_oracle(), threads)),
            ("default", pinned(ExecConfig::default(), threads)),
        ] {
            let (got, got_journal) = deliver_all(&mut deployment(Some(cfg)));
            assert_eq!(got.len(), outcomes.len());
            for (i, (a, b)) in outcomes.iter().zip(&got).enumerate() {
                assert_eq!(a, b, "{engine} at {threads} threads, request {i}");
            }
            assert_eq!(
                got_journal, journal,
                "{engine} at {threads} threads: journal"
            );
        }
    }
}

/// The obligation-bearing report (auditor-only `Doctor` under the
/// `Disease <> 'HIV'` row restriction) runs on the fast engine by
/// default, not the row engine.
#[test]
fn obligation_report_runs_on_the_fast_engine_by_default() {
    let mut sys = deployment(None);
    // Record the delivery alone, not the set-up's ETL.
    let obs = Obs::enabled();
    sys.engine_mut().exec = ExecConfig::default().with_obs(obs.clone());
    let auditor = consumer(1 << 1);
    let out = sys
        .deliver(&ReportId::new("doctor-disease-w0"), &auditor)
        .unwrap();
    assert!(
        out.applied.iter().any(|a| a.contains("HIV")),
        "the row obligation applied: {:?}",
        out.applied
    );
    let snap = obs.snapshot();
    let fast = ["plan.choice.pipeline", "plan.choice.columnar"]
        .iter()
        .map(|c| snap.counters.get(c).copied().unwrap_or(0))
        .sum::<u64>();
    assert!(
        fast >= 1,
        "no fast-engine choice recorded: {:?}",
        snap.counters
    );
}
