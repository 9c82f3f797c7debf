//! Thread-sweep timings of the default engine on synthetic tables.
//!
//! Sweeps thread counts {1, 2, 4, 8} over four operators — scan,
//! predicate filter, hash join and grouped aggregation — at several
//! table sizes. Every point runs the default columnar + pipeline engine
//! at N threads and is compared with the same engine at one thread;
//! every output is verified *identical* to the row oracle
//! (`ExecConfig::row_oracle()`). Writes `BENCH_parallel.json` for
//! `scripts/bench_smoke.sh`.
//!
//! Two things make the numbers honest:
//!
//! * every measurement batches executions until the batch clears
//!   [`MIN_BATCH_MS`], so sub-microsecond operators (a scan is an Arc
//!   bump) report real per-op times and throughput instead of 0.000 ms,
//!   and every compared pair of configurations runs its batches in
//!   alternation, median batch of each, so both see the same stretches
//!   of host speed;
//! * thread counts are *requests*, clamped to the host's cores as in a
//!   deployment, and each point records which engine actually served
//!   the operator (`plan.choice.*`).
//!
//! A separate repeated-render section measures the version-keyed chunk
//! cache: the same columnar report plan rendered cold (cache cleared)
//! and warm, with hit/miss counts from the obs layer.
//!
//! Usage: `cargo run --release -p bi-bench --bin bench_parallel --
//! [--quick] [--out PATH]`. `--quick` drops the 1M-row size so the
//! smoke script stays fast.

use std::time::Instant;

use bi_bench::median_interleaved;
use bi_core::exec::{ExecConfig, Obs};
use bi_core::query::plan::{scan, AggItem, SortKey};
use bi_core::query::{execute_with, Catalog};
use bi_core::relation::column::cache;
use bi_core::relation::expr::{col, lit};
use bi_core::relation::Table;
use bi_core::types::{Column, DataType, Schema, Value};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A timing batch must take at least this long; per-op time is the
/// batch time divided by the iteration count. Short, so that many
/// batches fit in the pair's time budget.
const MIN_BATCH_MS: f64 = 0.25;

/// Wall time to spend per compared pair of configurations; the number
/// of alternating batch rounds follows from it, within [`ROUNDS`].
const PAIR_BUDGET_MS: f64 = 300.0;

/// Bounds on the alternating batch rounds per pair; the median batch
/// of each configuration counts.
const ROUNDS: std::ops::RangeInclusive<usize> = 7..=400;

/// Fact(K, G, V) with a NULL join key every 97th row, plus Dim(K, W).
fn catalog(rows: usize) -> Catalog {
    let fact_schema = Schema::new(vec![
        Column::nullable("K", DataType::Int),
        Column::new("G", DataType::Text),
        Column::new("V", DataType::Int),
    ])
    .unwrap();
    let fact_rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let k = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int((i as i64 * 31) % 400)
            };
            vec![
                k,
                Value::text(format!("segment-{:03}", i % 64)),
                Value::Int(i as i64 % 1000),
            ]
        })
        .collect();
    let dim_schema = Schema::new(vec![
        Column::new("K", DataType::Int),
        Column::new("W", DataType::Int),
    ])
    .unwrap();
    let dim_rows: Vec<Vec<Value>> = (0..400i64)
        .map(|k| vec![Value::Int(k), Value::Int(k * 7)])
        .collect();
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows("Fact", fact_schema, fact_rows).unwrap())
        .unwrap();
    cat.add_table(Table::from_rows("Dim", dim_schema, dim_rows).unwrap())
        .unwrap();
    cat
}

/// Executions per timing batch for `cfg`, doubled until one batch
/// clears [`MIN_BATCH_MS`], and that batch's wall time in milliseconds.
fn batch_size(plan: &bi_core::query::Plan, cat: &Catalog, cfg: &ExecConfig) -> (usize, f64) {
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = execute_with(plan, cat, cfg).expect("bench plan executes");
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms >= MIN_BATCH_MS {
            return (iters, ms);
        }
        iters *= 2;
    }
}

/// Per-execution wall times in milliseconds of each configuration
/// (median batch of each over rounds that run the configurations in
/// alternation), plus the output table of the last one.
fn time_configs(
    plan: &bi_core::query::Plan,
    cat: &Catalog,
    cfgs: &[&ExecConfig],
) -> (Vec<f64>, Table) {
    let run = |c: &ExecConfig| execute_with(plan, cat, c).expect("bench plan executes");
    let sized: Vec<(usize, f64)> = cfgs.iter().map(|c| batch_size(plan, cat, c)).collect();
    let batch_ms: f64 = sized.iter().map(|(_, ms)| ms).sum();
    let rounds = ((PAIR_BUDGET_MS / batch_ms) as usize).clamp(*ROUNDS.start(), *ROUNDS.end());
    let mut batches: Vec<_> = cfgs
        .iter()
        .zip(&sized)
        .map(|(cfg, &(iters, _))| {
            move || {
                for _ in 0..iters {
                    let _ = run(cfg);
                }
            }
        })
        .collect();
    let mut fs: Vec<&mut dyn FnMut()> = batches.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
    let ms = median_interleaved(rounds, &mut fs);
    let per_op = ms
        .iter()
        .zip(&sized)
        .map(|(ms, (iters, _))| ms / *iters as f64)
        .collect();
    (per_op, run(cfgs[cfgs.len() - 1]))
}

/// Which engine served the plan's interesting operator, read back from
/// the `plan.choice.*` counters of an observed run.
fn plan_choice(plan: &bi_core::query::Plan, cat: &Catalog, cfg: &ExecConfig) -> &'static str {
    let obs = Obs::enabled();
    let observed = cfg.clone().with_obs(obs.clone());
    execute_with(plan, cat, &observed).expect("bench plan executes");
    let snap = obs.snapshot();
    for (counter, label) in [
        ("plan.choice.pipeline", "pipeline"),
        ("plan.choice.columnar", "columnar"),
        ("plan.choice.serial", "serial"),
    ] {
        if snap.counters.contains_key(counter) {
            return label;
        }
    }
    "none"
}

fn throughput(rows: usize, ms: f64) -> f64 {
    rows as f64 / (ms * 1e-3)
}

/// Cold-vs-warm repeated render of a columnar dashboard over an
/// unchanged warehouse, with chunk-cache hit/miss counts.
///
/// The "dashboard" is three widgets over the *base* fact table — two
/// grouped aggregates and a top-k — because that is where the
/// version-keyed cache earns its keep: base storage versions are stable
/// across renders, so every dictionary encode and column conversion is
/// paid once and shared across widgets. (Intermediate tables get fresh
/// versions per render and are deliberately never cached.)
fn repeated_render(rows: usize) -> String {
    let cat = catalog(rows);
    let widgets = [
        scan("Fact").aggregate(
            vec!["G".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
                AggItem::new("peak", bi_core::query::AggFunc::Max, "K"),
            ],
        ),
        scan("Fact").aggregate(
            vec!["G".into(), "K".into()],
            vec![AggItem::new("spread", bi_core::query::AggFunc::Min, "V")],
        ),
        scan("Fact")
            .sort(vec![SortKey::desc("V"), SortKey::asc("G")])
            .limit(50),
    ];
    let cfg = ExecConfig::default();
    let render = |cfg: &ExecConfig| {
        for plan in &widgets {
            let _ = execute_with(plan, &cat, cfg).expect("bench plan executes");
        }
    };

    // Cold: every render starts from an empty cache — the pre-cache
    // behaviour, one full conversion per operator input per render.
    let mut cold = f64::INFINITY;
    for _ in 0..5 {
        cache::clear();
        let t0 = Instant::now();
        render(&cfg);
        cold = cold.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Warm: the cache holds this storage version's columns.
    cache::clear();
    render(&cfg);
    let mut warm = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        render(&cfg);
        warm = warm.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Hit/miss counts for one warm render.
    let obs = Obs::enabled();
    let observed = cfg.clone().with_obs(obs.clone());
    render(&observed);
    let snap = obs.snapshot();
    let hits = snap.counters.get("chunk.cache.hit").copied().unwrap_or(0);
    let misses = snap.counters.get("chunk.cache.miss").copied().unwrap_or(0);

    let speedup = cold / warm;
    eprintln!(
        "{rows:>8} rows  repeated render: cold {cold:8.2} ms  warm {warm:8.2} ms  x{speedup:.2}  \
         ({hits} hits / {misses} misses per warm render)"
    );
    format!(
        r#"{{"rows":{rows},"cold_ms":{cold:.3},"warm_ms":{warm:.3},"speedup":{speedup:.3},"warm_hits":{hits},"warm_misses":{misses}}}"#
    )
}

/// Obligation-shaped deep plan — Filter → Project → GroupBy, the chain
/// PLA row restrictions and retention cutoffs rewrite reports into —
/// timed at one thread so the speedup isolates fusion, not parallelism:
/// the fused morsel pipeline versus the same columnar engine running
/// operator-at-a-time (`with_pipeline(false)`), outputs verified
/// identical.
fn deep_plan_bench(rows: usize) -> String {
    let cat = catalog(rows);
    let plan = scan("Fact")
        .filter(col("V").ge(lit(250)).and(col("K").is_null().not()))
        .project(vec![
            ("G".to_string(), col("G")),
            ("V".to_string(), col("V")),
        ])
        .aggregate(
            vec!["G".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
            ],
        );
    let columnar = ExecConfig::default().with_pipeline(false);
    let fused = ExecConfig::default();
    let c_out = execute_with(&plan, &cat, &columnar).expect("bench plan executes");
    let (ms, p_out) = time_configs(&plan, &cat, &[&columnar, &fused]);
    let (c_ms, p_ms) = (ms[0], ms[1]);
    assert_eq!(
        c_out.rows(),
        p_out.rows(),
        "deep plan @{rows}: outputs diverge"
    );
    assert_eq!(
        c_out.schema(),
        p_out.schema(),
        "deep plan @{rows}: schemas diverge"
    );
    let choice = plan_choice(&plan, &cat, &fused);
    let speedup = c_ms / p_ms;
    eprintln!(
        "{rows:>8} rows  deep plan: columnar {c_ms:8.3} ms  pipeline {p_ms:8.3} ms  \
         x{speedup:.2}  [{choice}]"
    );
    format!(
        r#"{{"rows":{rows},"columnar_ms":{c_ms:.4},"pipeline_ms":{p_ms:.4},"speedup":{speedup:.3},"choice":"{choice}"}}"#
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());

    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let oracle = ExecConfig::row_oracle();
    let one_thread = ExecConfig::default();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let scan_plan = scan("Fact");
    let filter_plan =
        scan("Fact").filter(col("V").ge(lit(250)).and(col("G").ne(lit("segment-007"))));
    let join_plan = scan("Fact").join(scan("Dim"), vec![("K".into(), "K".into())], "d");
    let agg_plan = scan("Fact").aggregate(
        vec!["G".into()],
        vec![
            AggItem::count_star("n"),
            AggItem::new("total", bi_core::query::AggFunc::Sum, "V"),
        ],
    );
    // `materialize:false` ops do no per-row work (a scan of a base table
    // is an Arc bump); their "timings" are catalog-lookup overhead and
    // the smoke script must not gate speedups on them.
    let ops: [(&str, &bi_core::query::Plan, bool); 4] = [
        ("scan", &scan_plan, false),
        ("filter", &filter_plan, true),
        ("join", &join_plan, true),
        ("aggregate", &agg_plan, true),
    ];

    let mut size_entries = Vec::new();
    for &rows in sizes {
        let cat = catalog(rows);
        let mut op_entries = Vec::new();
        for (name, plan, materialize) in ops {
            let expected = execute_with(plan, &cat, &oracle).expect("bench plan executes");
            // The one-thread baseline is timed once per op and is the
            // sweep's 1-thread point; each larger thread count is timed
            // against it again, interleaved, for its speedup.
            let (ms, base_out) = time_configs(plan, &cat, &[&one_thread]);
            let b_ms = ms[0];
            let mut thread_entries = Vec::new();
            for n in THREAD_COUNTS {
                let cfg = ExecConfig::with_threads(n);
                let choice = plan_choice(plan, &cat, &cfg);
                let (base_ms, p_ms, p_out) = if n == 1 {
                    (b_ms, b_ms, base_out.clone())
                } else {
                    let (ms, out) = time_configs(plan, &cat, &[&one_thread, &cfg]);
                    (ms[0], ms[1], out)
                };
                assert_eq!(
                    expected.rows(),
                    p_out.rows(),
                    "{name}@{rows}x{n}: outputs diverge from the row oracle"
                );
                assert_eq!(
                    expected.name(),
                    p_out.name(),
                    "{name}@{rows}x{n}: names diverge from the row oracle"
                );
                let speedup = base_ms / p_ms;
                eprintln!(
                    "{rows:>8} rows  {name:<9} 1 thread {base_ms:8.3} ms  {n} thread(s) {p_ms:8.3} ms  \
                     x{speedup:.2}  [{choice}]"
                );
                thread_entries.push(format!(
                    r#"{{"threads":{n},"ms":{p_ms:.4},"base_ms":{base_ms:.4},"rows_per_s":{:.0},"speedup":{speedup:.3},"choice":"{choice}"}}"#,
                    throughput(rows, p_ms)
                ));
            }
            op_entries.push(format!(
                r#"{{"op":"{name}","materialize":{materialize},"one_thread_ms":{b_ms:.4},"one_thread_rows_per_s":{:.0},"by_threads":[{}]}}"#,
                throughput(rows, b_ms),
                thread_entries.join(",")
            ));
        }
        size_entries.push(format!(
            r#"{{"rows":{rows},"ops":[{}]}}"#,
            op_entries.join(",")
        ));
    }

    let deep_entries: Vec<String> = sizes.iter().map(|&rows| deep_plan_bench(rows)).collect();
    let render = repeated_render(if quick { 100_000 } else { 1_000_000 });

    let json = format!(
        "{{\"thread_counts\":[1,2,4,8],\"cores\":{cores},\"quick\":{quick},\"sizes\":[{}],\"deep_plan\":[{}],\"repeated_render\":{render}}}\n",
        size_entries.join(","),
        deep_entries.join(",")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_parallel.json");
    eprintln!("wrote {out_path} (cores={cores})");
}
