//! The deployment every workload serves from: generated inputs (excluded
//! from set-up time) and the timed build that turns them into a serving
//! `BiSystem` on its default configuration with a WAL attached.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;

use bi_core::etl::{EtlOp, Pipeline};
use bi_core::query::plan::{scan, AggFunc, AggItem, Plan};
use bi_core::relation::expr::{col, lit};
use bi_core::report::{EnforcedReport, ReportSpec};
use bi_core::types::{ConsumerId, Date, RoleId, Value};
use bi_core::{BiSystem, SystemError};
use bi_synth::{Scenario, ScenarioConfig};

/// The business date every deployment runs at.
pub fn today() -> Date {
    Date::new(2008, 7, 1).expect("valid date")
}

/// The agreements: a k-threshold, a role-conditional attribute with a
/// row obligation, a pseudonym, a forbidden source combination and a
/// purpose limitation. Joins with the health agency stay permitted.
pub const PLAS: &str = r#"
pla "hospital-2008" source hospital version 1 level meta-report {
  require aggregation FactPrescriptions min 5;
  allow attribute FactPrescriptions.Doctor to auditor when Disease <> 'HIV';
  anonymize FactPrescriptions.Patient with pseudonym;
  purpose quality, reimbursement;
}

pla "municipality-2008" source municipality version 1 level source {
  forbid join municipality with hospital;
}
"#;

/// Roles every interactive/audit report is distributed to. Consumer `c`
/// holds the subset of these whose bits are set in `c`.
pub const ROLES: [&str; 5] = ["analyst", "auditor", "planner", "pharmacist", "controller"];

/// Report shapes; each appears once per date window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Counts by disease: few large groups, nothing suppressed.
    DiseaseCounts,
    /// Counts by (patient, drug): many small groups, k-suppression and
    /// a pseudonymized `Patient`.
    PatientDrug,
    /// Counts by (doctor, disease): auditors only, under the
    /// `Disease <> 'HIV'` row obligation; everyone else is refused.
    DoctorDisease,
    /// Cost by disease through a permitted hospital ⋈ health-agency join.
    DrugCost,
    /// Counts by (drug, disease).
    DrugDisease,
    /// Raw rows: refused by the aggregation threshold.
    RawRows,
    /// Counts by municipality through the forbidden hospital ⋈
    /// municipality join: refused.
    TownCounts,
    /// Counts by disease for a purpose the PLAs do not allow: refused.
    Marketing,
}

pub const SHAPES: [Shape; 8] = [
    Shape::DiseaseCounts,
    Shape::PatientDrug,
    Shape::DoctorDisease,
    Shape::DrugCost,
    Shape::DrugDisease,
    Shape::RawRows,
    Shape::TownCounts,
    Shape::Marketing,
];

/// Lower bounds on `Date` that multiply each served shape into distinct
/// reports of graded cost, so latencies form a fine ladder rather than a
/// few far-apart clusters a percentile could straddle.
pub const WINDOWS: [&str; 4] = ["2006-01-01", "2006-08-01", "2007-03-01", "2007-10-01"];

/// One report of the mix with the outcome its design predicts.
#[derive(Debug, Clone)]
pub struct MixReport {
    pub spec: ReportSpec,
    pub shape: Shape,
}

impl MixReport {
    /// Whether a consumer holding the role subset `mask` must be served.
    /// Refusals by design are the expected outcome, not failures.
    pub fn expect_delivered(&self, mask: usize) -> bool {
        if mask == 0 {
            return false; // holds none of the distribution roles
        }
        match self.shape {
            Shape::DiseaseCounts | Shape::PatientDrug | Shape::DrugCost | Shape::DrugDisease => {
                true
            }
            Shape::DoctorDisease => mask & (1 << 1) != 0, // auditor
            Shape::RawRows | Shape::TownCounts | Shape::Marketing => false,
        }
    }
}

fn window_filter(from: &str) -> bi_core::relation::expr::Expr {
    col("Date").ge(lit(Value::date(from).expect("valid window date")))
}

fn shape_plan(shape: Shape, from: &str) -> Plan {
    let base = scan("FactPrescriptions").filter(window_filter(from));
    let count = || vec![AggItem::count_star("N")];
    match shape {
        Shape::DiseaseCounts | Shape::Marketing => base.aggregate(vec!["Disease".into()], count()),
        Shape::PatientDrug => base.aggregate(vec!["Patient".into(), "Drug".into()], count()),
        Shape::DoctorDisease => base.aggregate(vec!["Doctor".into(), "Disease".into()], count()),
        Shape::DrugCost => base
            .join(scan("DimCost"), vec![("Drug".into(), "Drug".into())], "c")
            .aggregate(
                vec!["Disease".into()],
                vec![AggItem::new("Cost", AggFunc::Sum, "Cost")],
            ),
        Shape::DrugDisease => base.aggregate(vec!["Drug".into(), "Disease".into()], count()),
        Shape::RawRows => base.project_cols(&["Patient", "Disease"]),
        Shape::TownCounts => base
            .join(
                scan("DimResidents"),
                vec![("Patient".into(), "Patient".into())],
                "r",
            )
            .aggregate(vec!["Municipality".into()], count()),
    }
}

/// The interactive/audit report mix, each report distributed to all of
/// [`ROLES`]: the served shapes in every window, the refused ones in the
/// first only, so refusals stay about a quarter of the requests.
pub fn report_mix() -> Vec<MixReport> {
    let mut out = Vec::new();
    for (w, from) in WINDOWS.iter().enumerate() {
        for shape in SHAPES {
            let refused = matches!(shape, Shape::RawRows | Shape::TownCounts | Shape::Marketing);
            if refused && w > 0 {
                continue;
            }
            let purpose = if shape == Shape::Marketing {
                "marketing"
            } else {
                "quality"
            };
            let spec = ReportSpec::new(
                format!("{shape:?}-w{w}"),
                format!("{shape:?} since {from}"),
                shape_plan(shape, from),
                ROLES.iter().map(|r| RoleId::new(*r)),
            )
            .for_purpose(purpose);
            out.push(MixReport { spec, shape });
        }
    }
    out
}

/// Consumer `c` of the interactive/audit mix; it holds role subset `c`.
pub fn mix_consumer(mask: usize) -> ConsumerId {
    ConsumerId::new(format!("user-{mask:02}"))
}

/// Grants for the interactive/audit mix: one consumer per role subset,
/// including the empty subset (refused everything by distribution).
pub fn mix_grants() -> Vec<(ConsumerId, RoleId)> {
    let mut out = Vec::new();
    for mask in 0..(1usize << ROLES.len()) {
        for (bit, role) in ROLES.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                out.push((mix_consumer(mask), RoleId::new(*role)));
            }
        }
    }
    out
}

/// Consumers of the mix (one per role subset).
pub const MIX_CONSUMERS: usize = 1 << ROLES.len();

/// The nightly ETL: the fact table and both dimensions, extracted and
/// loaded unchanged. The first run is the initial load; every later run
/// is an identity reload — the warehouse keeps sharing source storage,
/// so data versions and cached renders stay valid.
pub fn nightly() -> Pipeline {
    let mut p = Pipeline::new("nightly");
    for (source, table, stage, target) in [
        ("hospital", "Prescriptions", "presc", "FactPrescriptions"),
        ("health-agency", "DrugCost", "cost", "DimCost"),
        ("municipality", "Residents", "res", "DimResidents"),
    ] {
        p = p.step(
            format!("e-{stage}"),
            EtlOp::Extract {
                source: source.into(),
                table: table.into(),
                as_name: stage.into(),
            },
        );
        p = p.step(
            format!("l-{stage}"),
            EtlOp::Load {
                table: stage.into(),
                warehouse_table: target.into(),
            },
        );
    }
    p
}

/// A storage-rebuilding reload of the fact table alone: prescriptions
/// before `cutoff` are dropped, so the rows really change and the table
/// gets a new data version.
pub fn rebuild(cutoff: &str) -> Pipeline {
    Pipeline::new("rebuild")
        .step(
            "e-presc",
            EtlOp::Extract {
                source: "hospital".into(),
                table: "Prescriptions".into(),
                as_name: "presc".into(),
            },
        )
        .step(
            "cut",
            EtlOp::FilterRows {
                table: "presc".into(),
                pred: window_filter(cutoff),
            },
        )
        .step(
            "l-presc",
            EtlOp::Load {
                table: "presc".into(),
                warehouse_table: "FactPrescriptions".into(),
            },
        )
}

/// Cutoffs of the storage-rebuilding reloads, a month apart: each drops
/// a few percent of the oldest prescriptions, so the rows really change
/// (a cutoff that dropped nothing would share storage, an identity
/// reload in disguise).
pub const CUTOFFS: [&str; 4] = ["2006-02-01", "2006-03-01", "2006-04-01", "2006-05-01"];

/// Everything a deployment is built from. Generating it is not part of
/// set-up time.
pub struct Inputs {
    pub scenario: Scenario,
    pub reports: Vec<ReportSpec>,
    pub grants: Vec<(ConsumerId, RoleId)>,
}

/// Synthetic sources at the given size, from the workload seed.
pub fn scenario(seed: u64, patients: usize, prescriptions: usize) -> Scenario {
    Scenario::generate(ScenarioConfig {
        seed,
        patients,
        prescriptions,
        lab_tests: 0,
    })
}

/// The timed set-up: WAL attach, sources, PLAs, the initial ETL, report
/// definitions and grants, all on `BiSystem::new` defaults.
pub fn build(inputs: &Inputs, wal: &Path) -> Result<BiSystem, String> {
    let mut sys = BiSystem::new(today());
    sys.enable_wal(wal)
        .map_err(|e| format!("WAL attach: {e}"))?;
    for (sid, cat) in &inputs.scenario.sources {
        sys.register_source(sid.clone(), cat.clone());
    }
    sys.add_pla_text(PLAS).map_err(|e| format!("PLAs: {e}"))?;
    sys.run_etl(&nightly(), Some("quality"))
        .map_err(|e| format!("initial ETL: {e}"))?;
    for spec in &inputs.reports {
        sys.define_report(spec.clone());
    }
    for (consumer, role) in &inputs.grants {
        sys.grant(consumer.clone(), role.clone());
    }
    Ok(sys)
}

/// A stable fingerprint of a delivery outcome: the class plus, for a
/// delivered report, its schema, every row, the suppression count and
/// the enforcement actions.
pub fn fingerprint(result: &Result<EnforcedReport, SystemError>) -> u64 {
    let mut h = DefaultHasher::new();
    match result {
        Ok(r) => {
            1u8.hash(&mut h);
            for c in r.table.schema().columns() {
                c.name.hash(&mut h);
            }
            for row in r.table.rows() {
                row.hash(&mut h);
            }
            r.suppressed_groups.hash(&mut h);
            r.applied.hash(&mut h);
        }
        Err(e) => {
            0u8.hash(&mut h);
            e.to_string().hash(&mut h);
        }
    }
    h.finish()
}

/// True for the outcome a compliance refusal takes; every other error is
/// unexpected.
pub fn is_refusal(result: &Result<EnforcedReport, SystemError>) -> bool {
    matches!(
        result,
        Err(SystemError::Report(
            bi_core::report::ReportError::NonCompliant { .. }
        ))
    )
}

/// Builds the deployment and returns it with the build time in seconds.
pub fn timed_build(inputs: &Inputs, wal: &Path) -> Result<(BiSystem, f64), String> {
    let t = std::time::Instant::now();
    let sys = build(inputs, wal)?;
    Ok((sys, t.elapsed().as_secs_f64()))
}

/// Endless request order: every key once per cycle, each cycle in a
/// fresh seeded shuffle, so every run serves the same mix in
/// proportion whatever its seed.
pub struct Cycle<T> {
    keys: Vec<T>,
    pos: usize,
    rng: crate::stats::Rng,
}

impl<T: Copy> Cycle<T> {
    pub fn new(mut keys: Vec<T>, seed: u64) -> Self {
        let mut rng = crate::stats::Rng::new(seed);
        rng.shuffle(&mut keys);
        Cycle { keys, pos: 0, rng }
    }

    pub fn next(&mut self) -> T {
        if self.pos == self.keys.len() {
            self.rng.shuffle(&mut self.keys);
            self.pos = 0;
        }
        self.pos += 1;
        self.keys[self.pos - 1]
    }
}

/// Set-up and recovery samples are dealt into groups of about this many
/// samples at random points of the run; each group's best is one value
/// of the median.
pub const ONE_SHOT_GROUP: usize = 15;

/// The end-to-end metrics every workload reports, in one order.
pub struct EndToEnd {
    /// Build times of the deployment, in s, in sampling order.
    pub setup_s: Vec<f64>,
    /// Best latencies of the workload's unit operation, in ms: one per
    /// distinct operation, or per group of repeats of a single one (see
    /// each workload).
    pub best_ms: Vec<f64>,
    /// Timed repeats behind each of `best_ms`, on average.
    pub repeats: usize,
    /// Requests served per second when each distinct operation takes
    /// its best time (see each workload).
    pub throughput_per_s: f64,
    /// Recovery times of the workload's fixed WAL, in s, in sampling
    /// order.
    pub recover_s: Vec<f64>,
    pub wal_bytes_per_delivery: f64,
}

impl EndToEnd {
    pub fn report(&self, r: &mut crate::Report) {
        use crate::stats::{best_of_groups, median, quantile};
        let setup = best_of_groups(&self.setup_s, ONE_SHOT_GROUP);
        let recover = best_of_groups(&self.recover_s, ONE_SHOT_GROUP);
        r.metric("setup_s", median(&setup), "s");
        r.metric("latency_p50_ms", median(&self.best_ms), "ms");
        r.metric("latency_p90_ms", quantile(&self.best_ms, 0.9), "ms");
        r.metric("throughput_per_s", self.throughput_per_s, "1/s");
        r.metric("recover_s", median(&recover), "s");
        r.metric("wal_bytes_per_delivery", self.wal_bytes_per_delivery, "B");
        r.note(format!(
            "samples: latency over {} values, each the best of about {} repeats (p90 has {} beyond it); builds {} and recoveries {}, medians over the bests of random groups of {ONE_SHOT_GROUP}",
            self.best_ms.len(),
            self.repeats,
            self.best_ms.len() / 10,
            self.setup_s.len(),
            self.recover_s.len()
        ));
    }
}

/// Set-up and recovery samples a run takes, alternating, evenly spread
/// over the client time of the timed phase.
const ONE_SHOT_SAMPLES: f64 = 300.0;

/// Set-up and recovery are one-shot operations; each is sampled many
/// times, between the timed operations of the workload, so a slow
/// stretch of the host hits a few samples rather than all of them, and
/// the median of the bests of [`ONE_SHOT_GROUP`]-sample groups is
/// reported. Builds and recoveries alternate.
pub struct OneShots<'a> {
    inputs: &'a Inputs,
    setup_wal: std::path::PathBuf,
    fixed_wal: std::path::PathBuf,
    fixed_journal: Vec<bi_core::audit::AuditEntry>,
    pub setup_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Client time between samples, and when the next one is due, in s.
    interval: f64,
    due: f64,
}

impl<'a> OneShots<'a> {
    /// `first_build_s` is the live deployment's own build; `fixed_wal`
    /// must hold exactly `fixed_journal`; `seconds` is the client time
    /// of the timed phase.
    pub fn new(
        inputs: &'a Inputs,
        setup_wal: std::path::PathBuf,
        fixed_wal: std::path::PathBuf,
        fixed_journal: Vec<bi_core::audit::AuditEntry>,
        first_build_s: f64,
        seconds: f64,
    ) -> Self {
        let interval = seconds / ONE_SHOT_SAMPLES;
        OneShots {
            inputs,
            setup_wal,
            fixed_wal,
            fixed_journal,
            setup_s: vec![first_build_s],
            recover_s: Vec::new(),
            interval,
            due: interval,
        }
    }

    /// Takes the next sample once `client` time has reached its turn,
    /// and says whether it did: the operation after a sample runs on
    /// caches the sample evicted, so the workloads leave it untimed.
    pub fn between(
        &mut self,
        client: std::time::Duration,
        r: &mut crate::Report,
    ) -> Result<bool, String> {
        if client.as_secs_f64() < self.due {
            return Ok(false);
        }
        self.due += self.interval;
        self.sample(r)?;
        Ok(true)
    }

    /// Tops both sample sets up to at least `min` each.
    pub fn at_least(&mut self, min: usize, r: &mut crate::Report) -> Result<(), String> {
        while self.setup_s.len() < min || self.recover_s.len() < min {
            self.sample(r)?;
        }
        Ok(())
    }

    fn sample(&mut self, r: &mut crate::Report) -> Result<(), String> {
        let t = std::time::Instant::now();
        if self.recover_s.len() < self.setup_s.len() {
            let rec = BiSystem::recover(&self.fixed_wal);
            self.recover_s.push(t.elapsed().as_secs_f64());
            match rec {
                Ok(sys) => {
                    let got = sys.audit_log().entries();
                    r.check(got == self.fixed_journal, || {
                        format!(
                            "recovered journal differs: {} entries vs {} journaled",
                            got.len(),
                            self.fixed_journal.len()
                        )
                    });
                }
                Err(e) => r.check(false, || format!("recovery failed: {e}")),
            }
        } else {
            let (sys, secs) = timed_build(self.inputs, &self.setup_wal)?;
            self.setup_s.push(secs);
            drop(sys);
        }
        Ok(())
    }
}

/// Bytes of a file, 0 when unreadable.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
