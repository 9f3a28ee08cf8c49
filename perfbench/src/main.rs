//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed loop with one client for `--seconds`,
//! checks every answer, prints a human-readable report and, as the last
//! line, one JSON result object. With `--trace 0` the metrics are the
//! end-to-end ones, measured on `Database` alone; with `--trace 1` each
//! operation also runs through the replay and the metrics are per layer.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use logres::engine::MetricsRegistry;
use logres_perfbench::replay::{Layers, OpResult, Replay, ALGRES_OPS};
use logres_perfbench::report::{self, metric, quantile, ratio, Metric};
use logres_perfbench::{timed_setups, workload, Op, Workload, SEMANTICS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Outcome of a run, whatever its mode.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Everything that went wrong, for the report.
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Metrics printed in the report only (not in the result line).
    extra: Vec<Metric>,
}

impl Run {
    fn fail(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut wl = workload(&args.workload, args.seed).expect("workload name was validated");
    let budget = Duration::from_secs(args.seconds);
    let run = if args.trace {
        run_traced(wl.as_mut(), budget)
    } else {
        run_plain(wl.as_mut(), budget)
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed to set up: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("machine: {}", report::machine_summary());
    for e in &run.errors {
        println!("error: {e}");
    }
    for m in &run.metrics {
        println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &run.extra {
        println!("info   {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = run.errors.is_empty() && run.failed == 0;
    println!(
        "{}",
        report::result_line(correct, run.attempted.max(1), run.failed, &run.metrics)
    );
    ExitCode::SUCCESS
}

/// Latency samples of a run, in milliseconds.
#[derive(Default)]
struct Samples {
    reads: Vec<f64>,
    writes: Vec<f64>,
    /// Whole cycles whose every operation succeeded.
    cycles: Vec<f64>,
    derived_facts: f64,
}

impl Samples {
    fn all(&self) -> Vec<f64> {
        self.reads.iter().chain(&self.writes).copied().collect()
    }

    fn record(&mut self, op: &Op, ms: f64) {
        if op.is_write() {
            self.writes.push(ms);
        } else {
            self.reads.push(ms);
        }
    }
}

/// The end-to-end run: `Database` alone, tracing off.
fn run_plain(wl: &mut dyn Workload, budget: Duration) -> Result<Run, String> {
    let (mut db, setups) = timed_setups(wl)?;
    let mut run = Run::default();
    let mut samples = Samples::default();
    let mut j = 0;
    // Cycle 1 warms up: checked, but neither timed nor counted.
    let start = Instant::now();
    while j == 0 || start.elapsed() < budget {
        j += 1;
        let mut cycle_ms = Some(0.0);
        for (op, expect) in wl.cycle(j) {
            let t = Instant::now();
            let out = op.run(&mut db);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            cycle_ms = cycle_ms.map(|c| c + ms);
            if j == 1 {
                if let Err(e) = out.and_then(|o| expect.check(&db, &o)) {
                    run.fail(format!("warm-up cycle: {e}"));
                }
                continue;
            }
            run.attempted += 1;
            match out.and_then(|o| expect.check(&db, &o).map(|()| o)) {
                Ok(o) => {
                    samples.record(&op, ms);
                    if let OpResult::Instance(inst) = &o {
                        samples.derived_facts += (inst.fact_count() - db.edb().fact_count()) as f64;
                    }
                }
                Err(e) => {
                    run.failed += 1;
                    cycle_ms = None;
                    run.fail(format!("cycle {j}: {e}"));
                }
            }
        }
        if let (true, Some(c)) = (j > 1, cycle_ms) {
            samples.cycles.push(c);
        }
    }
    if let Err(e) = wl.finish(&db, None) {
        run.fail(format!("final check: {e}"));
    }
    let all = samples.all();
    let busy_s: f64 = all.iter().sum::<f64>() / 1e3;
    run.metrics = vec![
        metric("setup_s", quantile(&setups, 0.5), "s"),
        metric("ops_per_s", ratio(all.len() as f64, busy_s), "ops/s"),
        metric("cycle_ms_p50", quantile(&samples.cycles, 0.5), "ms"),
        metric("query_ms_p90", quantile(&samples.reads, 0.9), "ms"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ];
    let n = |v: &Vec<f64>| v.len() as f64;
    run.extra = vec![
        metric("cycles", n(&samples.cycles), "count"),
        metric("cycle_ms_p90", quantile(&samples.cycles, 0.9), "ms"),
        metric("ops", n(&all), "count"),
        metric("op_ms_p50", quantile(&all, 0.5), "ms"),
        metric("query_ms_p50", quantile(&samples.reads, 0.5), "ms"),
        metric("query_samples", n(&samples.reads), "count"),
        metric("update_ms_p50", quantile(&samples.writes, 0.5), "ms"),
        metric("update_ms_p90", quantile(&samples.writes, 0.9), "ms"),
        metric("update_samples", n(&samples.writes), "count"),
        metric(
            "facts_per_s",
            ratio(samples.derived_facts, busy_s),
            "facts/s",
        ),
        metric(
            "failed_share",
            ratio(run.failed as f64, run.attempted as f64),
            "ratio",
        ),
        metric("setups", setups.len() as f64, "count"),
    ];
    Ok(run)
}

/// The traced run: every operation on `Database` and on the replay, whose
/// layer calls are timed; the metrics are per layer.
fn run_traced(wl: &mut dyn Workload, budget: Duration) -> Result<Run, String> {
    let mut db = wl.setup()?;
    let mut run = Run::default();
    let db_metrics = db.enable_metrics();
    let mut replay = Replay::new(db.state().clone(), SEMANTICS);
    let mut build_ms = 0.0;
    if wl.maintained() {
        let t = Instant::now();
        replay.build_view()?;
        build_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    let mut db_ms = 0.0;
    let mut replay_ms = 0.0;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut routes_before = Vec::new();
    let mut j = 0;
    let start = Instant::now();
    while j == 0 || start.elapsed() < budget {
        j += 1;
        if j == 2 {
            // The first cycle warms up; measure from the second.
            replay.reset_stats();
            routes_before = db_metrics.counter_snapshot();
        }
        for (op, expect) in wl.cycle(j) {
            let t = Instant::now();
            let out = op.run(&mut db);
            let d_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let replayed = op.replay(&mut replay);
            let r_ms = t.elapsed().as_secs_f64() * 1e3;
            let verdict = out.and_then(|o| {
                expect.check(&db, &o)?;
                match replayed {
                    Ok(r) if r == o => expect.check_view(&replay),
                    Ok(_) => Err("the replay's result differs from Database's".to_owned()),
                    Err(e) => Err(format!("replay: {e}")),
                }
            });
            if j == 1 {
                if let Err(e) = verdict {
                    run.fail(format!("warm-up cycle: {e}"));
                }
                continue;
            }
            run.attempted += 1;
            if let Err(e) = verdict {
                run.failed += 1;
                run.fail(format!("cycle {j}: {e}"));
            }
            db_ms += d_ms;
            replay_ms += r_ms;
            if op.is_write() {
                writes += 1;
            } else {
                reads += 1;
            }
        }
    }
    // Routes first: the final check evaluates on clones sharing the registry.
    let routes = route_counts(&routes_before, &db_metrics.counter_snapshot());
    if replay.state().edb != *db.edb() {
        run.fail("the replay's EDB differs from Database's after the loop".to_owned());
    }
    if let Err(e) = wl.finish(&db, Some(&replay)) {
        run.fail(format!("final check: {e}"));
    }
    if let Err(e) = check_routes(wl, &routes, &replay.layers, reads, writes) {
        run.fail(format!("routing precondition: {e}"));
    }
    let ops = (reads + writes) as f64;
    run.metrics = per_layer(&replay, ops, replay_ms, db_ms, build_ms, &routes);
    run.extra = routes
        .iter()
        .map(|(k, v)| metric(format!("route {k}"), *v as f64, "count"))
        .collect();
    run.extra.push(metric("traced_ops", ops, "count"));
    Ok(run)
}

/// Fallback counts by route and reason over the loop, from `Database`'s
/// own registry: `compile:<reason>`, `magic:fallback`,
/// `maintain:<reason>`.
fn route_counts(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    let families = [
        ("logres_compile_fallbacks_total", "compile"),
        ("logres_magic_fallbacks_total", "magic"),
        ("logres_maintain_fallbacks_total", "maintain"),
    ];
    let mut out = Vec::new();
    for (series, v) in after {
        let old = before
            .iter()
            .find(|(s, _)| s == series)
            .map_or(0, |(_, v)| *v);
        for (family, route) in families {
            if let Some(rest) = series.strip_prefix(family) {
                let reason = rest
                    .trim_start_matches("{reason=\"")
                    .trim_end_matches("\"}");
                let reason = if reason.is_empty() {
                    "fallback"
                } else {
                    reason
                };
                if v > &old {
                    out.push((format!("{route}:{reason}"), v - old));
                }
            }
        }
    }
    out
}

/// The routing precondition: each workload takes the paths its layer row
/// claims, and the replay took the same decisions as `Database`.
fn check_routes(
    wl: &dyn Workload,
    routes: &[(String, u64)],
    layers: &Layers,
    reads: u64,
    writes: u64,
) -> Result<(), String> {
    let replayed: Vec<(String, u64)> = layers.routes.clone().into_iter().collect();
    if replayed != routes {
        return Err(format!("Database took {routes:?}, the replay {replayed:?}"));
    }
    let total = |prefix: &str| -> f64 {
        routes
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let plan_runs = layers.get("engine.plan.runs");
    let interp_runs = layers.get("engine.inflationary.runs");
    let applies = layers.get("engine.maintain.applies");
    if wl.compiled() {
        // Every read is one compiled evaluation; every write is maintained.
        if !routes.is_empty() {
            return Err(format!("expected no fallback, got {routes:?}"));
        }
        if plan_runs != reads as f64 || interp_runs > 0.0 || applies != writes as f64 {
            return Err(format!(
                "expected {reads} compiled reads and {writes} maintained writes: \
                 {plan_runs} compiled, {interp_runs} interpreted, {applies} maintained"
            ));
        }
    } else {
        // Every evaluation falls back to the interpreter, every write to
        // full rederivation.
        let compile = total("compile:");
        if plan_runs > 0.0 || compile != interp_runs || compile < (reads + writes) as f64 {
            return Err(format!(
                "expected every evaluation to fall back: {compile} fallbacks, \
                 {plan_runs} compiled, {interp_runs} interpreted"
            ));
        }
        if total("maintain:") != writes as f64 || applies > 0.0 {
            return Err(format!(
                "expected {writes} maintenance fallbacks, got {routes:?}"
            ));
        }
    }
    Ok(())
}

/// The per-layer metrics of a traced run: times are milliseconds and
/// counts are per traced operation, so a layer's time over the mean
/// operation time is its share of the operation.
fn per_layer(
    replay: &Replay,
    ops: f64,
    replay_ms: f64,
    db_ms: f64,
    build_ms: f64,
    routes: &[(String, u64)],
) -> Vec<Metric> {
    let l = &replay.layers;
    let m: &MetricsRegistry = &replay.metrics;
    let leaf_ms = |name: &str| ratio(l.leaf.get(name).copied().unwrap_or(0) as f64 / 1e6, ops);
    let incl_ms = |name: &str| {
        ratio(
            l.inclusive.get(name).copied().unwrap_or(0) as f64 / 1e6,
            ops,
        )
    };
    let ns_ms = |name: &str| ratio(l.get(name) / 1e6, ops);
    let per_op = |name: &str| ratio(l.get(name), ops);
    let counter = |name: &'static str| m.counter(name).get() as f64;
    let route = |prefix: &str| {
        let n: u64 = routes
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum();
        ratio(n as f64, ops)
    };
    let covered_ms = l.covered_ns() as f64 / 1e6;
    let mut out = vec![
        metric("lang.parse_ms", leaf_ms("lang.parse"), "ms"),
        metric("lang.adorn_ms", leaf_ms("lang.adorn"), "ms"),
        metric(
            "lang.adorn_rewrite_share",
            ratio(l.get("lang.adorn.rewrites"), l.get("lang.adorn.calls")),
            "ratio",
        ),
        metric("lang.flow_ms", leaf_ms("lang.flow"), "ms"),
        metric(
            "engine.plan.compile_ms",
            leaf_ms("engine.plan.compile"),
            "ms",
        ),
        metric("engine.plan.run_ms", leaf_ms("engine.plan.run"), "ms"),
        metric(
            "engine.plan.unattributed_ms",
            ns_ms("engine.plan.unattributed_ns"),
            "ms",
        ),
        metric(
            "engine.plan.materialize_ms",
            ns_ms("engine.plan.materialize_ns"),
            "ms",
        ),
    ];
    for op in ALGRES_OPS.iter().chain(&["other"]) {
        let self_ms = ns_ms(&format!("algres.{op}.self_ns"));
        out.push(metric(format!("algres.{op}.self_ms"), self_ms, "ms"));
        let rows = per_op(&format!("algres.{op}.rows_out"));
        out.push(metric(format!("algres.{op}.rows_out"), rows, "rows/op"));
    }
    out.extend([
        metric(
            "engine.plan.rounds",
            per_op("engine.plan.rounds"),
            "count/op",
        ),
        metric(
            "engine.plan.hash_builds",
            ratio(counter("logres_compile_hash_builds_total"), ops),
            "count/op",
        ),
        metric(
            "engine.plan.probes",
            ratio(counter("logres_compile_probes_total"), ops),
            "count/op",
        ),
        metric(
            "engine.plan.memo_hits",
            ratio(counter("logres_compile_memo_hits_total"), ops),
            "count/op",
        ),
        metric(
            "engine.plan.delta_useful_share",
            ratio(
                l.get("engine.plan.delta_useful"),
                l.get("engine.plan.delta_evals"),
            ),
            "ratio",
        ),
        metric(
            "engine.plan.rows_per_answer",
            ratio(l.get("engine.plan.rows_out"), l.get("answers")),
            "rows/row",
        ),
        metric("engine.magic_ms", incl_ms("engine.magic"), "ms"),
        metric(
            "engine.magic.facts_per_answer",
            ratio(l.get("engine.magic.facts"), l.get("answers.magic")),
            "facts/row",
        ),
        metric("engine.goal.answer_ms", leaf_ms("engine.goal.answer"), "ms"),
        metric(
            "engine.maintain.batch_ms",
            leaf_ms("engine.maintain.batch"),
            "ms",
        ),
        metric(
            "engine.maintain.update_ms",
            leaf_ms("engine.maintain.update"),
            "ms",
        ),
        metric(
            "engine.maintain.rounds",
            per_op("engine.maintain.rounds"),
            "count/op",
        ),
        metric(
            "engine.maintain.deleted",
            ratio(counter("logres_maintain_deleted_total"), ops),
            "count/op",
        ),
        metric(
            "engine.maintain.rederived",
            ratio(counter("logres_maintain_rederived_total"), ops),
            "count/op",
        ),
        metric(
            "engine.maintain.inserted",
            ratio(counter("logres_maintain_inserted_total"), ops),
            "count/op",
        ),
        metric(
            "engine.maintain.rederive_share",
            ratio(
                counter("logres_maintain_rederived_total"),
                counter("logres_maintain_deleted_total"),
            ),
            "ratio",
        ),
        metric("engine.maintain.build_ms", build_ms, "ms"),
        metric(
            "engine.inflationary_ms",
            leaf_ms("engine.inflationary"),
            "ms",
        ),
        metric(
            "engine.inflationary.steps",
            per_op("engine.inflationary.steps"),
            "count/op",
        ),
        metric(
            "engine.inflationary.firings",
            per_op("engine.inflationary.firings"),
            "count/op",
        ),
        metric(
            "engine.inflationary.derived",
            per_op("engine.inflationary.derived"),
            "count/op",
        ),
        metric(
            "engine.inflationary.invented",
            per_op("engine.inflationary.invented"),
            "count/op",
        ),
        metric(
            "engine.inflationary.useful_share",
            ratio(
                l.get("engine.inflationary.derived"),
                l.get("engine.inflationary.firings"),
            ),
            "ratio",
        ),
        metric(
            "engine.matcher.probe_hit_share",
            ratio(
                counter("logres_matcher_probe_hits_total"),
                counter("logres_matcher_probe_hits_total")
                    + counter("logres_matcher_probe_misses_total"),
            ),
            "ratio",
        ),
        metric(
            "engine.matcher.scan_fallbacks",
            ratio(counter("logres_matcher_scan_fallbacks_total"), ops),
            "count/op",
        ),
        metric(
            "core.state.instance_ms",
            incl_ms("core.state.instance"),
            "ms",
        ),
        metric(
            "core.state.consistency_ms",
            leaf_ms("core.state.consistency"),
            "ms",
        ),
        metric(
            "core.database.other_ms",
            ratio(replay_ms - covered_ms, ops),
            "ms",
        ),
        metric("route.compile_fallbacks", route("compile:"), "count/op"),
        metric("route.magic_fallbacks", route("magic:"), "count/op"),
        metric("route.maintain_fallbacks", route("maintain:"), "count/op"),
        metric("trace.coverage", ratio(covered_ms, replay_ms), "ratio"),
        metric("trace.overhead", ratio(replay_ms, db_ms) - 1.0, "ratio"),
    ]);
    out
}
