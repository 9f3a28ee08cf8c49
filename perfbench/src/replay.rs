//! The traced run: each operation replayed through the public functions
//! `Database` calls for it, in the same order, with every call timed from
//! outside.
//!
//! [`Replay`] holds its own copy of the database state (and, for the
//! maintainable updates, its own materialized view) and mirrors
//! `logres::Database`'s routing for the three operation shapes the
//! workloads use: `Database::instance`, `Database::query`, and
//! `Database::apply_source` in RIDI and RIDV mode. The runner checks every
//! replayed result against what `Database` returned for the same
//! operation, so a replay that drifts from the real path fails the run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use logres::engine::{
    answer_goal, apply_batch, apply_update, batch_conflicts, compile_program_with,
    evaluate_inflationary, evaluate_seminaive, evaluate_stratified, is_ground_batch_rule,
    maintainable, run_compiled, seminaive_applicable, CompiledProgram, EvalOptions, EvalReport,
    MaterializedView, MetricsRegistry, Semantics, TraceEvent, Tracer, UpdateSpec,
};
use logres::lang::analyze::{infer, plan_goal, seeds_from_instance};
use logres::lang::{Atom, Rule, RuleSet};
use logres::model::{Instance, Schema, Sym};
use logres::{DatabaseState, Mode, Module, Rows};

/// Operator names reported one by one; every other operator is summed
/// under `algres.other`.
pub const ALGRES_OPS: [&str; 7] = [
    "scan", "join", "semijoin", "antijoin", "emit", "union", "diff",
];

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Leaf spans: nanoseconds per layer. Leaf spans never nest, so their
    /// sum is the traced operations' covered time.
    pub leaf: BTreeMap<&'static str, u64>,
    /// Inclusive spans that contain leaf spans (`engine.magic`,
    /// `core.state.instance`): nanoseconds.
    pub inclusive: BTreeMap<&'static str, u64>,
    /// Counters and sums.
    pub count: BTreeMap<String, f64>,
    /// Routing decisions the replay took: `compile:<reason>`,
    /// `magic:fallback`, `maintain:<reason>`.
    pub routes: BTreeMap<String, u64>,
}

impl Layers {
    /// Run `f` as one leaf span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.leaf.entry(layer).or_default() += start.elapsed().as_nanos() as u64;
        out
    }

    /// Add to a counter.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.count.entry(name.to_owned()).or_default() += v;
    }

    /// A counter's value (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0.0)
    }

    /// Total leaf nanoseconds so far.
    pub fn covered_ns(&self) -> u64 {
        self.leaf.values().sum()
    }

    fn route(&mut self, route: String) {
        *self.routes.entry(route).or_default() += 1;
    }
}

/// The result of one replayed (or real) operation, in the shape the runner
/// compares.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// `Database::instance`.
    Instance(Instance),
    /// A goal answer.
    Rows(Rows),
    /// A data-variant application: the EDB size after it.
    Applied(usize),
}

/// A replica of one database, driven through the public layer functions.
pub struct Replay {
    state: DatabaseState,
    semantics: Semantics,
    opts: EvalOptions,
    view: Option<MaterializedView>,
    /// Per-layer spans and counts.
    pub layers: Layers,
    /// The registry the replay's evaluations record into.
    pub metrics: Arc<MetricsRegistry>,
}

type EngineResult<T> = Result<T, String>;

impl Replay {
    /// A replica of `state`, evaluated under `semantics` with one thread,
    /// operator profiling on and a private metrics registry.
    pub fn new(state: DatabaseState, semantics: Semantics) -> Replay {
        let metrics = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            threads: 1,
            profile: true,
            metrics: Some(metrics.clone()),
            ..EvalOptions::default()
        };
        Replay {
            state,
            semantics,
            opts,
            view: None,
            layers: Layers::default(),
            metrics,
        }
    }

    /// Start the per-layer accounting afresh (after set-up and warm-up).
    pub fn reset_stats(&mut self) {
        self.layers = Layers::default();
        self.metrics = Arc::new(MetricsRegistry::new());
        self.opts.metrics = Some(self.metrics.clone());
    }

    /// The replica's state.
    pub fn state(&self) -> &DatabaseState {
        &self.state
    }

    /// The maintained instance, once an incremental update built the view.
    pub fn view_instance(&self) -> Option<&Instance> {
        self.view.as_ref().map(|v| v.instance())
    }

    /// Build the materialized view the first maintainable update would
    /// build (`Database` does it lazily; the benchmark does it at set-up).
    pub fn build_view(&mut self) -> EngineResult<()> {
        let schema = self.state.schema.clone();
        let mut build_opts = self.opts.clone();
        build_opts.profile = false;
        let (view, _) = self
            .layers
            .time("engine.maintain.build", || {
                MaterializedView::build(&schema, &self.state.rules, &self.state.edb, &build_opts)
            })
            .map_err(|e| e.to_string())?;
        let state = &self.state;
        let consistent = self
            .layers
            .time("core.state.consistency", || {
                state.check_consistency(view.instance())
            })
            .map_err(|e| e.to_string())?
            .is_consistent();
        if !consistent {
            return Err("base state is inconsistent".to_owned());
        }
        self.view = Some(view);
        Ok(())
    }

    /// `Database::instance`.
    pub fn instance(&mut self) -> EngineResult<OpResult> {
        let state = &self.state;
        let (inst, _) = evaluate(
            &mut self.layers,
            &self.opts,
            &state.schema,
            &state.rules,
            &state.edb,
            self.semantics,
        )?;
        Ok(OpResult::Instance(inst))
    }

    /// `Database::query`: demand-first, RIDI application on fallback.
    pub fn query(&mut self, src: &str) -> EngineResult<OpResult> {
        let module = self.parse(src)?;
        if let Some(goal) = &module.goal {
            let schema = union_schema(&self.state.schema, &module)?;
            let rules = self.state.rules.union(&module.rules);
            let magic_start = Instant::now();
            let plan = self
                .layers
                .time("lang.adorn", || plan_goal(&schema, &rules, goal));
            self.layers.add("lang.adorn.calls", 1.0);
            if let Some(rw) = plan.rewrite {
                self.layers.add("lang.adorn.rewrites", 1.0);
                let edb = &self.state.edb;
                let (inst, _) = evaluate_demand(
                    &mut self.layers,
                    &self.opts,
                    &rw.schema,
                    &rw.rules,
                    edb,
                    self.semantics,
                )?;
                let magic_ns = magic_start.elapsed().as_nanos() as u64;
                *self.layers.inclusive.entry("engine.magic").or_default() += magic_ns;
                let rows = self
                    .layers
                    .time("engine.goal.answer", || answer_goal(&schema, &inst, goal))
                    .map_err(|e| e.to_string())?;
                let derived = inst.fact_count().saturating_sub(edb.fact_count());
                self.layers.add("engine.magic.facts", derived as f64);
                self.layers.add("answers", rows.len() as f64);
                self.layers.add("answers.magic", rows.len() as f64);
                return Ok(OpResult::Rows(rows));
            }
            self.layers.route("magic:fallback".to_owned());
        }
        self.ridi(&module)
    }

    /// `Database::apply_source` in RIDI or RIDV mode.
    pub fn apply(&mut self, src: &str, mode: Mode) -> EngineResult<OpResult> {
        let module = self.parse(src)?;
        match mode {
            Mode::Ridi => self.ridi(&module),
            Mode::Ridv => self.ridv(&module),
            other => Err(format!("the replay does not model {other:?}")),
        }
    }

    fn parse(&mut self, src: &str) -> EngineResult<Module> {
        let schema = &self.state.schema;
        self.layers
            .time("lang.parse", || Module::parse(src, schema))
            .map_err(|e| e.to_string())
    }

    fn ridi(&mut self, module: &Module) -> EngineResult<OpResult> {
        let schema = union_schema(&self.state.schema, module)?;
        let rules = self.state.rules.union(&module.rules);
        let (inst, _) = evaluate(
            &mut self.layers,
            &self.opts,
            &schema,
            &rules,
            &self.state.edb,
            self.semantics,
        )?;
        let goal = module.goal.as_ref().ok_or("RIDI replay needs a goal")?;
        let rows = self
            .layers
            .time("engine.goal.answer", || answer_goal(&schema, &inst, goal))
            .map_err(|e| e.to_string())?;
        self.layers.add("answers", rows.len() as f64);
        Ok(OpResult::Rows(rows))
    }

    fn ridv(&mut self, module: &Module) -> EngineResult<OpResult> {
        if module.goal.is_none() && self.try_incremental(module)? {
            return Ok(OpResult::Applied(self.state.edb.fact_count()));
        }
        let schema = union_schema(&self.state.schema, module)?;
        let (new_edb, _) = evaluate(
            &mut self.layers,
            &self.opts,
            &schema,
            &module.rules,
            &self.state.edb,
            self.semantics,
        )?;
        let candidate = DatabaseState {
            schema,
            rules: self.state.rules.clone(),
            edb: new_edb,
            constraints: self.state.constraints.clone(),
        };
        let start = Instant::now();
        let (inst, _) = evaluate(
            &mut self.layers,
            &self.opts,
            &candidate.schema,
            &candidate.rules,
            &candidate.edb,
            self.semantics,
        )?;
        *self
            .layers
            .inclusive
            .entry("core.state.instance")
            .or_default() += start.elapsed().as_nanos() as u64;
        let consistency = self
            .layers
            .time("core.state.consistency", || {
                candidate.check_consistency(&inst)
            })
            .map_err(|e| e.to_string())?;
        if !consistency.is_consistent() {
            return Err(format!("rejected: {:?}", consistency.violations));
        }
        self.state = candidate;
        self.view = None;
        Ok(OpResult::Applied(self.state.edb.fact_count()))
    }

    /// The RIDV branch of `Database::try_incremental`: `Ok(false)` is a
    /// recorded fallback to the full path.
    fn try_incremental(&mut self, module: &Module) -> EngineResult<bool> {
        let fall_back = |layers: &mut Layers, reason: &str| {
            layers.route(format!("maintain:{reason}"));
            Ok(false)
        };
        if module.schema.classes().next().is_some()
            || !module.schema.isa_edges().is_empty()
            || !module.schema.renames().is_empty()
        {
            return fall_back(&mut self.layers, "schema");
        }
        let schema = union_schema(&self.state.schema, module)?;
        if !maintainable(&schema, &self.state.rules) {
            return fall_back(&mut self.layers, "fragment");
        }
        let (ground, nonground): (Vec<&Rule>, Vec<&Rule>) = module
            .rules
            .rules
            .iter()
            .partition(|r| is_ground_batch_rule(&schema, r));
        if !nonground.is_empty() {
            return fall_back(&mut self.layers, "nonground-rule");
        }
        let edb = &self.state.edb;
        let Ok(effect) = self.layers.time("engine.maintain.batch", || {
            apply_batch(&schema, &ground, edb)
        }) else {
            return fall_back(&mut self.layers, "batch");
        };
        let deleting: Vec<&Rule> = ground.iter().copied().filter(|r| r.head.negated).collect();
        let conflicts = self.layers.time("engine.maintain.batch", || {
            batch_conflicts(&schema, &deleting, &effect)
        });
        if !matches!(conflicts, Ok(false)) {
            return fall_back(&mut self.layers, "conflict");
        }
        let spec = UpdateSpec {
            inserts: effect.inserted,
            deletes: effect.deleted,
            ..UpdateSpec::default()
        };
        if self.view.is_none() {
            self.build_view()?;
        }
        let mut view = self.view.take().expect("view was just ensured");
        let edb = &self.state.edb;
        let opts = &self.opts;
        let result = self
            .layers
            .time("engine.maintain.update", || {
                apply_update(&schema, &mut view, &spec, edb, opts)
            })
            .map_err(|e| e.to_string())?;
        self.layers
            .add("engine.maintain.rounds", result.report.steps as f64);
        self.layers.add("engine.maintain.applies", 1.0);
        let candidate = DatabaseState {
            schema,
            rules: self.state.rules.clone(),
            edb: Instance::new(),
            constraints: self.state.constraints.clone(),
        };
        let consistency = self
            .layers
            .time("core.state.consistency", || {
                candidate.check_consistency_delta(view.instance(), &result.added)
            })
            .map_err(|e| e.to_string())?;
        if !consistency.is_consistent() {
            return Err(format!("rejected: {:?}", consistency.violations));
        }
        for f in &spec.deletes {
            self.state.edb.remove_fact(&candidate.schema, f);
        }
        for f in &spec.inserts {
            self.state.edb.insert_fact(&candidate.schema, f);
        }
        self.state.schema = candidate.schema;
        self.view = Some(view);
        Ok(true)
    }
}

fn union_schema(base: &Schema, module: &Module) -> EngineResult<Schema> {
    let mut s = base.union(&module.schema).map_err(|e| e.to_string())?;
    s.validate().map_err(|e| format!("{e:?}"))?;
    Ok(s)
}

/// `logres::engine::evaluate` with `compiled` on: flow summaries, then the
/// compiled plan, or the interpreter after a counted fallback.
fn evaluate(
    layers: &mut Layers,
    opts: &EvalOptions,
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
) -> EngineResult<(Instance, EvalReport)> {
    if let Some(result) = try_compiled(layers, opts, schema, rules, edb, semantics) {
        return result;
    }
    let report = layers.time("engine.inflationary", || match semantics {
        Semantics::Inflationary => evaluate_inflationary(schema, rules, edb, opts.clone()),
        Semantics::Stratified => evaluate_stratified(schema, rules, edb, opts.clone()),
    });
    let (inst, report) = report.map_err(|e| e.to_string())?;
    account_interpreted(layers, &report);
    Ok((inst, report))
}

/// `logres::engine::evaluate_demand` after planning: the rewritten program
/// on the compiled path, or — after a counted fallback — semi-naive or the
/// requested semantics with `compiled` off.
fn evaluate_demand(
    layers: &mut Layers,
    opts: &EvalOptions,
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
) -> EngineResult<(Instance, EvalReport)> {
    if let Some(result) = try_compiled(layers, opts, schema, rules, edb, semantics) {
        return result;
    }
    let mut opts = opts.clone();
    opts.compiled = false;
    if seminaive_applicable(schema, rules) {
        let out = layers.time("engine.inflationary", || {
            evaluate_seminaive(schema, rules, edb, opts)
        });
        let (inst, report) = out.map_err(|e| e.to_string())?;
        account_interpreted(layers, &report);
        Ok((inst, report))
    } else {
        evaluate(layers, &opts, schema, rules, edb, semantics)
    }
}

/// `logres::engine::try_evaluate_compiled` (provenance is always off here).
fn try_compiled(
    layers: &mut Layers,
    opts: &EvalOptions,
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    semantics: Semantics,
) -> Option<EngineResult<(Instance, EvalReport)>> {
    if !opts.compiled {
        return None;
    }
    let summaries = layers.time("lang.flow", || {
        let seeds = seeds_from_instance(schema, edb);
        infer(schema, rules, &seeds)
    });
    let compiled = layers.time("engine.plan.compile", || {
        compile_program_with(schema, rules, semantics, Some(&summaries))
    });
    let program = match compiled {
        Ok(p) => p,
        Err(u) => {
            layers.route(format!("compile:{}", u.reason));
            return None;
        }
    };
    // A per-run tracer: its round-by-round events tell which delta plans
    // read a non-empty delta.
    let tracer = Tracer::memory();
    let mut run_opts = opts.clone();
    run_opts.trace = Some(tracer.clone());
    let start = Instant::now();
    let result = run_compiled(schema, &program, rules, edb, &run_opts);
    let run_ns = start.elapsed().as_nanos() as u64;
    *layers.leaf.entry("engine.plan.run").or_default() += run_ns;
    Some(match result {
        Ok((inst, report)) => {
            account_compiled(layers, &program, rules, &report, &tracer.events(), run_ns);
            Ok((inst, report))
        }
        Err(e) => Err(e.to_string()),
    })
}

fn account_compiled(
    layers: &mut Layers,
    program: &CompiledProgram,
    rules: &RuleSet,
    report: &EvalReport,
    events: &[TraceEvent],
    run_ns: u64,
) {
    layers.add("engine.plan.runs", 1.0);
    layers.add("engine.plan.rounds", report.steps as f64);
    if let Some(profile) = &report.plan_profile {
        for op in profile.rules.iter().flat_map(|rp| rp.ops.iter()) {
            let name = match op.op.as_str() {
                "materialize" => {
                    layers.add("engine.plan.materialize_ns", op.self_nanos as f64);
                    continue;
                }
                op if ALGRES_OPS.contains(&op) => op,
                _ => "other",
            };
            layers.add(&format!("algres.{name}.self_ns"), op.self_nanos as f64);
            layers.add(&format!("algres.{name}.rows_out"), op.rows_out as f64);
            layers.add("engine.plan.rows_out", op.rows_out as f64);
        }
        let unattributed = run_ns.saturating_sub(profile.attributed_nanos());
        layers.add("engine.plan.unattributed_ns", unattributed as f64);
    }
    let (evals, useful) = delta_usefulness(program, rules, events);
    layers.add("engine.plan.delta_evals", evals as f64);
    layers.add("engine.plan.delta_useful", useful as f64);
}

/// Count delta-plan evaluations, and those whose `@delta_*` input was
/// non-empty, from the rounds of one compiled run. A stratum runs its full
/// plans in its first round and its delta plans in every later round; it
/// ends with the first round that derives nothing. A delta plan reading
/// predicate `p` sees exactly what the previous round derived into `p`.
fn delta_usefulness(
    program: &CompiledProgram,
    rules: &RuleSet,
    events: &[TraceEvent],
) -> (u64, u64) {
    let mut evals = 0;
    let mut useful = 0;
    let mut stratum = 0;
    let mut first_round = true;
    let mut prev: BTreeMap<Sym, usize> = BTreeMap::new();
    let mut cur: BTreeMap<Sym, usize> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::StepStart { .. } => cur.clear(),
            TraceEvent::RuleFired { rule, derived, .. } => {
                *cur.entry(rules.rules[*rule].head.target()).or_default() += derived;
            }
            TraceEvent::StepEnd { derived, .. } => {
                let Some(splan) = program.strata.get(stratum) else {
                    break;
                };
                if !first_round {
                    for step in &splan.steps {
                        for pred in delta_preds(&rules.rules[step.rule_index], &splan.idb) {
                            evals += 1;
                            if prev.get(&pred).copied().unwrap_or(0) > 0 {
                                useful += 1;
                            }
                        }
                    }
                }
                prev = std::mem::take(&mut cur);
                first_round = false;
                if *derived == 0 {
                    stratum += 1;
                    first_round = true;
                    prev.clear();
                }
            }
            _ => {}
        }
    }
    (evals, useful)
}

/// The predicates a rule's delta plans read, in plan order: its positive
/// body literals over predicates of its own stratum.
fn delta_preds(rule: &Rule, idb: &[Sym]) -> Vec<Sym> {
    rule.body
        .iter()
        .filter(|l| !l.negated)
        .filter_map(|l| match &l.atom {
            Atom::Pred { pred, .. } if idb.contains(pred) => Some(*pred),
            _ => None,
        })
        .collect()
}

fn account_interpreted(layers: &mut Layers, report: &EvalReport) {
    layers.add("engine.inflationary.runs", 1.0);
    layers.add("engine.inflationary.steps", report.steps as f64);
    for it in &report.iterations {
        layers.add("engine.inflationary.firings", it.firings as f64);
        layers.add("engine.inflationary.derived", it.derived as f64);
        layers.add("engine.inflationary.invented", it.invented as f64);
    }
}
