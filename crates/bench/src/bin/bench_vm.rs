//! AST-walk vs bytecode-VM vs columnar expression evaluation.
//!
//! Every scalar evaluation path now routes through the expression
//! bytecode VM (`Program` + `Vm`), keeping the recursive `Expr::eval`
//! walker only as a fallback and property-test oracle. This bench pins
//! the payoff: on filter, projection and PLA-obligation workloads it
//! times the recursive walker (per-row `Expr::eval`), the VM
//! (`filter_scalar` / `project_scalar`, single thread so the speedup is
//! purely algorithmic) and — where the predicate vectorizes — the
//! columnar selection-vector kernels, timed in alternation (median of
//! each), verifying all backends produce
//! identical output and writing `BENCH_vm.json` for
//! `scripts/bench_smoke.sh`.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_vm --
//! [--full] [--out PATH]`. `--full` adds a 1M-row size.

use bi_bench::median_interleaved;
use bi_core::exec::ExecConfig;
use bi_core::relation::expr::{col, lit};
use bi_core::relation::{filter_columnar, filter_scalar, project_scalar, BinOp, Expr, Table};
use bi_core::types::{Column, DataType, Date, Schema, Value};

/// Fact(Patient, Disease, Cost, Date) shaped like the warehouse tables
/// PLA obligations filter: a quasi-identifier text column, a sensitive
/// low-cardinality text column with NULLs, a numeric measure and an
/// event date for retention cutoffs.
fn fact(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("Patient", DataType::Text),
        Column::nullable("Disease", DataType::Text),
        Column::new("Cost", DataType::Int),
        Column::new("Date", DataType::Date),
    ])
    .expect("distinct names, valid schema");
    let diseases = ["Flu", "HIV", "Diabetes", "Asthma", "Measles"];
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let disease = if i % 101 == 0 {
                Value::Null
            } else {
                Value::text(diseases[i % diseases.len()])
            };
            let date = Date::new(
                1998 + (i % 12) as i16,
                1 + (i % 12) as u8,
                1 + (i % 28) as u8,
            )
            .expect("day <= 28 always valid");
            vec![
                Value::text(format!("p{}", i % 997)),
                disease,
                Value::Int((i as i64 * 37) % 1000),
                Value::Date(date),
            ]
        })
        .collect();
    Table::from_rows("Fact", schema, data).expect("rows match the schema")
}

/// The retained recursive walker, run row by row — the legacy path
/// every filter took before the VM, kept as the baseline and oracle.
fn ast_filter(t: &Table, pred: &Expr) -> Table {
    let kept: Vec<Vec<Value>> = t
        .rows()
        .iter()
        .filter(|row| {
            pred.eval(t.schema(), row)
                .map(|v| v.as_bool().unwrap_or(false))
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    Table::from_rows(t.name(), t.schema().clone(), kept).expect("filter preserves the schema")
}

/// Recursive-walker projection: one `Expr::eval` per item per row.
fn ast_project(t: &Table, items: &[(String, Expr)]) -> Vec<Vec<Value>> {
    t.rows()
        .iter()
        .map(|row| {
            items
                .iter()
                .map(|(_, e)| {
                    e.eval(t.schema(), row)
                        .expect("bench expressions are well-typed")
                })
                .collect()
        })
        .collect()
}

struct OpResult {
    op: &'static str,
    ast_ms: f64,
    vm_ms: f64,
    columnar_ms: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_vm.json".to_string());

    let sizes: &[usize] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };
    let cfg = ExecConfig::row_oracle();
    let col_cfg = ExecConfig::default();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Report-style filter: measure threshold plus sensitive-value guard.
    let filter_pred = col("Cost")
        .ge(lit(250))
        .and(col("Disease").ne(lit("Measles")));
    // Report-style derivation: a passthrough, an adjusted measure and a
    // threshold flag. (Text-producing functions like `lower()` are
    // allocation-bound — every backend pays the same per-row string
    // build — so they would only dilute what this bench isolates: the
    // cost of *evaluating* expressions.)
    let project_items: Vec<(String, Expr)> = vec![
        ("Patient".into(), col("Patient")),
        (
            // (Cost * 3 + 10) * 2 - Cost: a copay-style formula.
            "CostAdj".into(),
            Expr::Bin(
                BinOp::Sub,
                Box::new(Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Bin(
                            BinOp::Mul,
                            Box::new(col("Cost")),
                            Box::new(lit(3)),
                        )),
                        Box::new(lit(10)),
                    )),
                    Box::new(lit(2)),
                )),
                Box::new(col("Cost")),
            ),
        ),
        (
            "High".into(),
            col("Cost").ge(lit(500)).and(col("Disease").ne(lit("HIV"))),
        ),
    ];
    // What a PLA check emits for a VPD row restriction plus a retention
    // cutoff (`attr >= today - max_age`), conjoined.
    let obligation_pred = col("Disease")
        .ne(lit("HIV"))
        .and(col("Date").ge(lit(Value::Date(Date::new(2000, 1, 1).expect("valid date")))));

    let mut size_entries = Vec::new();
    for &rows in sizes {
        let t = fact(rows);
        let rounds = if rows >= 1_000_000 { 3 } else { 15 };
        let mut op_entries = Vec::new();

        let mut results: Vec<OpResult> = Vec::new();
        for (op, pred) in [("filter", &filter_pred), ("obligation", &obligation_pred)] {
            let vm = || filter_scalar(&t, pred, &cfg).expect("bench filter executes");
            let (mut ast_out, mut vm_out) = (ast_filter(&t, pred), vm());
            let vectorizes = filter_columnar(&t, pred, &col_cfg).is_some();
            let mut col_out = None;
            let ms = if vectorizes {
                median_interleaved(
                    rounds,
                    &mut [
                        &mut || ast_out = ast_filter(&t, pred),
                        &mut || vm_out = vm(),
                        &mut || col_out = filter_columnar(&t, pred, &col_cfg),
                    ],
                )
            } else {
                median_interleaved(
                    rounds,
                    &mut [&mut || ast_out = ast_filter(&t, pred), &mut || {
                        vm_out = vm()
                    }],
                )
            };
            assert_eq!(
                ast_out.rows(),
                vm_out.rows(),
                "{op}@{rows}: VM diverges from the walker"
            );
            if let Some(out) = &col_out {
                assert_eq!(
                    ast_out.rows(),
                    out.rows(),
                    "{op}@{rows}: columnar diverges from the walker"
                );
            }
            results.push(OpResult {
                op,
                ast_ms: ms[0],
                vm_ms: ms[1],
                columnar_ms: ms.get(2).copied(),
            });
        }
        {
            let vm =
                || project_scalar(&t, &project_items, &cfg).expect("bench projection executes");
            let (mut ast_out, mut vm_out) = (ast_project(&t, &project_items), vm());
            let ms = median_interleaved(
                rounds,
                &mut [
                    &mut || ast_out = ast_project(&t, &project_items),
                    &mut || vm_out = vm(),
                ],
            );
            assert_eq!(
                ast_out.as_slice(),
                vm_out.rows(),
                "project@{rows}: VM diverges from the walker"
            );
            results.push(OpResult {
                op: "project",
                ast_ms: ms[0],
                vm_ms: ms[1],
                columnar_ms: None,
            });
        }

        for r in results {
            let speedup = r.ast_ms / r.vm_ms;
            let col_txt = r
                .columnar_ms
                .map(|ms| format!("  columnar {ms:8.2} ms"))
                .unwrap_or_default();
            eprintln!(
                "{rows:>8} rows  {op:<10} ast {ast:8.2} ms  vm {vm:8.2} ms  x{speedup:.2}{col_txt}",
                op = r.op,
                ast = r.ast_ms,
                vm = r.vm_ms,
            );
            let col_json = r
                .columnar_ms
                .map(|ms| format!("{ms:.3}"))
                .unwrap_or_else(|| "null".into());
            op_entries.push(format!(
                r#"{{"op":"{op}","ast_ms":{ast:.3},"vm_ms":{vm:.3},"speedup":{speedup:.3},"columnar_ms":{col_json}}}"#,
                op = r.op,
                ast = r.ast_ms,
                vm = r.vm_ms,
            ));
        }
        size_entries.push(format!(
            r#"{{"rows":{rows},"ops":[{}]}}"#,
            op_entries.join(",")
        ));
    }

    let json = format!(
        "{{\"threads\":1,\"cores\":{cores},\"full\":{full},\"sizes\":[{}]}}\n",
        size_entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_vm.json");
    eprintln!("wrote {out_path} (cores={cores})");
}
