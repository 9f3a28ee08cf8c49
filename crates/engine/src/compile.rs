//! Compilation of the positive association fragment to the ALGRES algebra.
//!
//! The paper's prototype translates LOGRES onto ALGRES ([Ca90]); this module
//! reproduces that path for the positive, function-free association
//! fragment: each rule becomes a select–join–project expression, recursive
//! predicates become ALGRES fixpoints, and the fixpoint mode (naive vs.
//! semi-naive delta) is the "liberal closure" switch the paper highlights.
//! Benchmark E1 compares this compiled path against direct interpretation.

use algres::{eval, AlgExpr, Env, FixpointMode, Pred as APred, Relation, Scalar};
use logres_lang::{Atom, BinOp, Builtin, PredArg, Rule, RuleSet, Term};
use logres_model::{Instance, PredKind, Schema, Sym, TypeDesc, Value};
use rustc_hash::{FxHashMap, FxHashSet};

use std::sync::Arc;

use crate::error::EngineError;

/// The visible tuple type of a predicate (classes: effective type;
/// associations: their equation), domains expanded.
pub fn pred_type(schema: &Schema, pred: Sym) -> Option<TypeDesc> {
    match schema.kind(pred)? {
        PredKind::Class => Some(schema.expand(schema.effective(pred)?)),
        PredKind::Assoc => Some(schema.expand(schema.assoc_type(pred)?)),
        _ => None,
    }
}

/// A compiled rule set: one algebra expression per intensional predicate,
/// in dependency order.
#[derive(Debug, Clone)]
pub struct CompiledRules {
    /// `(predicate, expression)` in evaluation order.
    pub exprs: Vec<(Sym, AlgExpr)>,
}

impl CompiledRules {
    /// Evaluate over an extensional instance: binds every association as a
    /// relation, evaluates the compiled expressions in order, and returns
    /// the instance extended with the derived tuples.
    pub fn run(&self, schema: &Schema, edb: &Instance) -> Result<Instance, EngineError> {
        let mut env = env_from_instance(schema, edb);
        let mut out = edb.clone();
        for (pred, expr) in &self.exprs {
            let rel = eval(expr, &env)?;
            for t in rel.iter_shared() {
                out.insert_assoc_shared(*pred, Arc::clone(t));
            }
            // Later predicates (and re-binding) see base ∪ derived.
            let mut combined =
                relation_of(schema, &out, *pred).ok_or(EngineError::UnknownPredicate(*pred))?;
            combined.extend_from(&rel);
            env.bind(*pred, combined);
        }
        Ok(out)
    }
}

/// Build an ALGRES environment with one relation per association.
pub fn env_from_instance(schema: &Schema, inst: &Instance) -> Env {
    let mut env = Env::new();
    for a in schema.assocs() {
        if let Some(rel) = relation_of(schema, inst, a) {
            env.bind(a, rel);
        }
    }
    env
}

pub(crate) fn relation_of(schema: &Schema, inst: &Instance, assoc: Sym) -> Option<Relation> {
    let ty = schema.expand(schema.assoc_type(assoc)?);
    let cols: Vec<Sym> = ty.as_tuple()?.iter().map(|f| f.label).collect();
    Some(Relation::from_shared(
        cols,
        inst.tuples_shared(assoc).cloned(),
    ))
}

/// Compile a rule set. Errors with [`EngineError::UnsupportedFragment`]
/// outside the positive association fragment (negation, classes, data
/// functions, tuple variables, or mutual recursion between predicates).
pub fn compile_ruleset(
    schema: &Schema,
    rules: &RuleSet,
    mode: FixpointMode,
) -> Result<CompiledRules, EngineError> {
    let idb: FxHashSet<Sym> = rules.rules.iter().map(|r| r.head.target()).collect();

    // Group rules per intensional predicate.
    let mut by_pred: FxHashMap<Sym, Vec<&Rule>> = FxHashMap::default();
    for r in &rules.rules {
        by_pred.entry(r.head.target()).or_default().push(r);
    }

    // Dependency order among IDB predicates; mutual recursion unsupported.
    let mut order: Vec<Sym> = Vec::new();
    let mut preds: Vec<Sym> = by_pred.keys().copied().collect();
    preds.sort();
    let deps = |p: Sym| -> Vec<Sym> {
        let mut out = Vec::new();
        for r in &by_pred[&p] {
            for lit in &r.body {
                if let Atom::Pred { pred, .. } = &lit.atom {
                    if idb.contains(pred) && *pred != p && !out.contains(pred) {
                        out.push(*pred);
                    }
                }
            }
        }
        out
    };
    let mut placed: FxHashSet<Sym> = FxHashSet::default();
    while order.len() < preds.len() {
        let before = order.len();
        for &p in &preds {
            if placed.contains(&p) {
                continue;
            }
            if deps(p).iter().all(|d| placed.contains(d)) {
                order.push(p);
                placed.insert(p);
            }
        }
        if order.len() == before {
            return Err(EngineError::UnsupportedFragment {
                detail: "mutually recursive predicates cannot be compiled".to_owned(),
            });
        }
    }

    let mut exprs = Vec::new();
    for p in order {
        let mut base: Option<AlgExpr> = None;
        let mut step: Option<AlgExpr> = None;
        for r in &by_pred[&p] {
            let expr = compile_rule(schema, r)?;
            let recursive = r
                .body
                .iter()
                .any(|lit| matches!(&lit.atom, Atom::Pred { pred, .. } if *pred == p));
            let slot = if recursive { &mut step } else { &mut base };
            *slot = Some(match slot.take() {
                Some(acc) => acc.union(expr),
                None => expr,
            });
        }
        let expr = match (base, step) {
            (Some(b), Some(s)) => AlgExpr::Fixpoint {
                rec: p,
                base: Box::new(b),
                step: Box::new(s),
                mode,
            },
            (Some(b), None) => b,
            (None, Some(_)) => {
                return Err(EngineError::UnsupportedFragment {
                    detail: format!("recursive predicate `{p}` has no base rule"),
                })
            }
            (None, None) => unreachable!("predicate without rules"),
        };
        exprs.push((p, expr));
    }
    Ok(CompiledRules { exprs })
}

/// Column name carrying a rule variable.
fn var_col(v: Sym) -> Sym {
    Sym::new(&format!("?{v}"))
}

/// Flow-analysis hints for lowering one rule body, computed by
/// `plan::compile_program_with` from the whole-program
/// [`logres_lang::analyze::FlowSummaries`]. Everything here is an
/// optimization over an over-approximation: applying or ignoring a hint
/// never changes the produced instance.
#[derive(Debug, Clone, Default)]
pub struct FlowHints {
    /// Iteration order over body-literal indices (a permutation of
    /// `0..body.len()`): positive predicate literals join in this order,
    /// cheapest inferred cardinality band first. `None` keeps source order.
    pub order: Option<Vec<usize>>,
    /// Body-literal indices whose semijoin guard the flow analysis proved
    /// total (the probe side's values provably lie inside the guard's exact
    /// stored column): the reducer may be dropped entirely.
    pub skip: std::collections::BTreeSet<usize>,
}

fn compile_rule(schema: &Schema, rule: &Rule) -> Result<AlgExpr, EngineError> {
    compile_rule_plan(schema, rule, None)
}

pub(crate) fn compile_rule_plan(
    schema: &Schema,
    rule: &Rule,
    delta: Option<(usize, Sym)>,
) -> Result<AlgExpr, EngineError> {
    compile_rule_plan_with(schema, rule, delta, None, &mut Vec::new())
}

/// Compile one rule body to a select–join–project plan.
///
/// `delta` optionally names a body literal (by its index in `rule.body`) whose
/// relation scan should read from a substitute relation name instead of the
/// predicate itself — the semi-naive planner uses this to point one occurrence
/// of a recursive predicate at its per-round delta relation.
///
/// Positive literals that bind no new variables (magic-set `@magic_*` guards,
/// repeated-tuple tests) are lowered to [`AlgExpr::SemiJoin`] reducers rather
/// than full joins: once every variable of the literal is already bound, the
/// natural join can only filter, never widen.
///
/// `hints` optionally reorders the positive joins and elides statically-total
/// semijoin reducers (see [`FlowHints`]); each applied hint pushes one line
/// onto `notes` so EXPLAIN can surface what the flow analysis changed.
pub(crate) fn compile_rule_plan_with(
    schema: &Schema,
    rule: &Rule,
    delta: Option<(usize, Sym)>,
    hints: Option<&FlowHints>,
    notes: &mut Vec<String>,
) -> Result<AlgExpr, EngineError> {
    let unsupported = |detail: String| EngineError::UnsupportedFragment { detail };
    if rule.head.negated {
        return Err(unsupported("deleting heads cannot be compiled".into()));
    }
    let Atom::Pred {
        pred: head_pred,
        args: head_args,
        ..
    } = &rule.head.atom
    else {
        return Err(unsupported("member heads cannot be compiled".into()));
    };
    if schema.kind(*head_pred) != Some(PredKind::Assoc) {
        return Err(unsupported("class heads cannot be compiled".into()));
    }

    // Body predicates become renamed relation scans joined together;
    // negated literals become antijoins applied after everything that can
    // bind variables.
    let mut joined: Option<AlgExpr> = None;
    let mut bound_vars: FxHashSet<Sym> = FxHashSet::default();
    let mut builtins: Vec<(Builtin, &[Term])> = Vec::new();
    let mut negations: Vec<(Sym, &[PredArg])> = Vec::new();

    let order: Vec<usize> = match hints.and_then(|h| h.order.clone()) {
        Some(o) => o,
        None => (0..rule.body.len()).collect(),
    };
    for li in order {
        let lit = &rule.body[li];
        if lit.negated {
            match &lit.atom {
                Atom::Pred { pred, args, .. } => {
                    if schema.kind(*pred) != Some(PredKind::Assoc) {
                        return Err(unsupported(format!(
                            "negated class literal `{pred}` cannot be compiled"
                        )));
                    }
                    if *pred == *head_pred {
                        return Err(unsupported(
                            "negation of the rule's own head predicate cannot be compiled".into(),
                        ));
                    }
                    negations.push((*pred, args));
                    continue;
                }
                _ => return Err(unsupported("negated non-predicate literal".into())),
            }
        }
        match &lit.atom {
            Atom::Pred { pred, args, .. } => {
                if schema.kind(*pred) != Some(PredKind::Assoc) {
                    return Err(unsupported(format!(
                        "class literal `{pred}` cannot be compiled"
                    )));
                }
                let scan = match delta {
                    Some((dli, name)) if dli == li => name,
                    _ => *pred,
                };
                // A statically-total guard filters nothing: drop the whole
                // literal. Sound only when every argument is an
                // already-bound variable (no fresh bindings, no constant
                // selections) and the scan is not the delta redirection.
                if hints.is_some_and(|h| h.skip.contains(&li))
                    && joined.is_some()
                    && scan == *pred
                    && args.iter().all(|arg| {
                        matches!(arg, PredArg::Labeled(_, Term::Var(v)) if bound_vars.contains(v))
                    })
                {
                    notes.push(format!(
                        "skip-semijoin-by-flow: `{pred}` at body position {li} is statically total"
                    ));
                    continue;
                }
                let mut expr = AlgExpr::Rel(scan);
                // Does this literal bind any variable not already bound by an
                // earlier literal? If not, it can only filter: semijoin.
                let fresh = args.iter().any(|arg| {
                    matches!(arg, PredArg::Labeled(_, Term::Var(v)) if !bound_vars.contains(v))
                });
                let mut lit_vars: FxHashMap<Sym, Sym> = FxHashMap::default(); // var -> col
                let mut keep: Vec<Sym> = Vec::new();
                for arg in args {
                    match arg {
                        PredArg::Labeled(l, Term::Var(v)) => {
                            if let Some(first) = lit_vars.get(v) {
                                // Repeated variable inside one literal: keep
                                // one column, select equality.
                                expr = expr.select(APred::eq(Scalar::Col(*l), Scalar::Col(*first)));
                            } else {
                                lit_vars.insert(*v, *l);
                                keep.push(*l);
                            }
                        }
                        PredArg::Labeled(l, Term::Const(c)) => {
                            expr =
                                expr.select(APred::eq(Scalar::Col(*l), Scalar::Const(c.clone())));
                        }
                        other => {
                            return Err(unsupported(format!(
                                "argument form {other:?} cannot be compiled"
                            )))
                        }
                    }
                }
                // Project to the variable columns, renamed to ?var.
                expr = expr.project(keep.clone());
                for (v, col) in &lit_vars {
                    expr = expr.rename(*col, var_col(*v));
                    bound_vars.insert(*v);
                }
                joined = Some(match joined.take() {
                    Some(acc) if !fresh => AlgExpr::SemiJoin {
                        left: Box::new(acc),
                        right: Box::new(expr),
                    },
                    Some(acc) => acc.join(expr),
                    None => expr,
                });
            }
            Atom::Member { .. } => {
                return Err(unsupported("data functions cannot be compiled".into()))
            }
            Atom::Builtin { builtin, args, .. } => builtins.push((*builtin, args)),
        }
    }

    let mut expr = match joined {
        Some(j) => j,
        None => {
            // No positive body predicates: the body is satisfied exactly
            // once, by the empty valuation. Compile over the unit relation
            // (one zero-column tuple) so head constants and defining
            // builtins extend onto it — this is how ground facts such as
            // magic-set demand seeds (`@magic_p(a: "adam") <- .`) stay on
            // the compiled path.
            let mut unit = Relation::new(Vec::<Sym>::new());
            unit.insert(Value::tuple(std::iter::empty::<(Sym, Value)>()));
            AlgExpr::Const(unit)
        }
    };

    // Builtins: equalities become extends (defining) or selects (testing);
    // comparisons become selects.
    for (builtin, args) in builtins {
        match builtin {
            Builtin::Eq => {
                let (lhs, rhs) = (&args[0], &args[1]);
                match (lhs, rhs) {
                    (Term::Var(v), other) | (other, Term::Var(v)) if !bound_vars.contains(v) => {
                        let scalar = compile_scalar(other, &bound_vars)?;
                        expr = AlgExpr::Extend {
                            input: Box::new(expr),
                            col: var_col(*v),
                            value: scalar,
                        };
                        bound_vars.insert(*v);
                    }
                    _ => {
                        let a = compile_scalar(lhs, &bound_vars)?;
                        let b = compile_scalar(rhs, &bound_vars)?;
                        expr = expr.select(APred::eq(a, b));
                    }
                }
            }
            Builtin::Ne | Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
                let a = compile_scalar(&args[0], &bound_vars)?;
                let b = compile_scalar(&args[1], &bound_vars)?;
                let op = match builtin {
                    Builtin::Ne => algres::CmpOp::Ne,
                    Builtin::Lt => algres::CmpOp::Lt,
                    Builtin::Le => algres::CmpOp::Le,
                    Builtin::Gt => algres::CmpOp::Gt,
                    Builtin::Ge => algres::CmpOp::Ge,
                    _ => unreachable!(),
                };
                expr = expr.select(APred::Cmp(op, a, b));
            }
            other => {
                return Err(unsupported(format!(
                    "builtin `{}` cannot be compiled",
                    other.name()
                )))
            }
        }
    }

    // Negated literals: antijoin against the (filtered, projected) negated
    // relation on the shared variable columns. All their variables must be
    // bound by the positive part (safety guarantees this for checked rules).
    for (pred, args) in negations {
        let mut neg = AlgExpr::Rel(pred);
        let mut lit_vars: FxHashMap<Sym, Sym> = FxHashMap::default();
        let mut keep: Vec<Sym> = Vec::new();
        for arg in args {
            match arg {
                PredArg::Labeled(l, Term::Var(v)) => {
                    if !bound_vars.contains(v) {
                        return Err(unsupported(format!(
                            "variable `{v}` of a negated literal is not bound by the positive body"
                        )));
                    }
                    if let Some(first) = lit_vars.get(v) {
                        neg = neg.select(APred::eq(Scalar::Col(*l), Scalar::Col(*first)));
                    } else {
                        lit_vars.insert(*v, *l);
                        keep.push(*l);
                    }
                }
                PredArg::Labeled(l, Term::Const(c)) => {
                    neg = neg.select(APred::eq(Scalar::Col(*l), Scalar::Const(c.clone())));
                }
                other => {
                    return Err(unsupported(format!(
                        "negated argument form {other:?} cannot be compiled"
                    )))
                }
            }
        }
        neg = neg.project(keep);
        for (v, col) in &lit_vars {
            neg = neg.rename(*col, var_col(*v));
        }
        expr = AlgExpr::AntiJoin {
            left: Box::new(expr),
            right: Box::new(neg),
        };
    }

    // Head: rename variable columns to attribute labels, extend constants,
    // project to the head attribute list.
    let mut head_cols: Vec<Sym> = Vec::new();
    for arg in head_args {
        match arg {
            PredArg::Labeled(l, Term::Var(v)) => {
                if !bound_vars.contains(v) {
                    return Err(unsupported(format!(
                        "unbound head variable `{v}` cannot be compiled"
                    )));
                }
                expr = AlgExpr::Extend {
                    input: Box::new(expr),
                    col: *l,
                    value: Scalar::Col(var_col(*v)),
                };
                head_cols.push(*l);
            }
            PredArg::Labeled(l, Term::Const(c)) => {
                expr = AlgExpr::Extend {
                    input: Box::new(expr),
                    col: *l,
                    value: Scalar::Const(c.clone()),
                };
                head_cols.push(*l);
            }
            other => {
                return Err(unsupported(format!(
                    "head argument form {other:?} cannot be compiled"
                )))
            }
        }
    }
    Ok(expr.project(head_cols))
}

fn compile_scalar(t: &Term, bound: &FxHashSet<Sym>) -> Result<Scalar, EngineError> {
    match t {
        Term::Var(v) => {
            if bound.contains(v) {
                Ok(Scalar::Col(var_col(*v)))
            } else {
                Err(EngineError::UnsupportedFragment {
                    detail: format!("variable `{v}` not bound by body predicates"),
                })
            }
        }
        Term::Const(c) => Ok(Scalar::Const(c.clone())),
        Term::Nil => Ok(Scalar::Const(Value::Nil)),
        Term::BinOp { op, lhs, rhs } => {
            let a = Box::new(compile_scalar(lhs, bound)?);
            let b = Box::new(compile_scalar(rhs, bound)?);
            Ok(match op {
                BinOp::Add => Scalar::Add(a, b),
                BinOp::Sub => Scalar::Sub(a, b),
                BinOp::Mul => Scalar::Mul(a, b),
                BinOp::Div => Scalar::Div(a, b),
                BinOp::Mod => {
                    return Err(EngineError::UnsupportedFragment {
                        detail: "modulo cannot be compiled".to_owned(),
                    })
                }
            })
        }
        other => Err(EngineError::UnsupportedFragment {
            detail: format!("term {other} cannot be compiled to a scalar"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflationary::{evaluate_inflationary, EvalOptions};
    use crate::load::load_facts;
    use logres_lang::parse_program;
    use logres_model::OidGen;

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    const TC: &str = r#"
        associations
          e  = (a: integer, b: integer);
          tc = (a: integer, b: integer);
        facts
          e(a: 1, b: 2).
          e(a: 2, b: 3).
          e(a: 3, b: 4).
          e(a: 4, b: 5).
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
    "#;

    #[test]
    fn compiled_closure_matches_interpreter_in_both_modes() {
        let (schema, edb, rules) = setup(TC);
        let (interp, _) =
            evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        for mode in [FixpointMode::Naive, FixpointMode::Delta] {
            let compiled = compile_ruleset(&schema, &rules, mode).unwrap();
            let out = compiled.run(&schema, &edb).unwrap();
            let tc = Sym::new("tc");
            assert_eq!(out.assoc_len(tc), interp.assoc_len(tc), "{mode:?}");
            for t in interp.tuples_of(tc) {
                assert!(out.has_tuple(tc, t), "{mode:?} missing {t}");
            }
        }
    }

    #[test]
    fn constants_and_comparisons_compile() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              e   = (a: integer, b: integer);
              big = (a: integer, b: integer);
            facts
              e(a: 1, b: 10).
              e(a: 2, b: 20).
              e(a: 1, b: 5).
            rules
              big(a: X, b: Y) <- e(a: X, b: Y), Y >= 10, X = 1.
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        let out = compiled.run(&schema, &edb).unwrap();
        assert_eq!(out.assoc_len(Sym::new("big")), 1);
        assert!(out.has_tuple(
            Sym::new("big"),
            &Value::tuple([("a", Value::Int(1)), ("b", Value::Int(10))])
        ));
    }

    #[test]
    fn arithmetic_extends_compile() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              n   = (v: integer);
              inc = (v: integer, w: integer);
            facts
              n(v: 3).
            rules
              inc(v: X, w: Y) <- n(v: X), Y = X + 1.
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        let out = compiled.run(&schema, &edb).unwrap();
        assert!(out.has_tuple(
            Sym::new("inc"),
            &Value::tuple([("v", Value::Int(3)), ("w", Value::Int(4))])
        ));
    }

    #[test]
    fn repeated_variables_become_equality_selections() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              e    = (a: integer, b: integer);
              loop_t = (a: integer);
            facts
              e(a: 1, b: 1).
              e(a: 1, b: 2).
            rules
              loop_t(a: X) <- e(a: X, b: X).
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        let out = compiled.run(&schema, &edb).unwrap();
        assert_eq!(out.assoc_len(Sym::new("loop_t")), 1);
    }

    #[test]
    fn stratified_negation_compiles_to_antijoin() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              node     = (n: integer);
              edge     = (a: integer, b: integer);
              covered  = (n: integer);
              isolated = (n: integer);
            facts
              node(n: 1).
              node(n: 2).
              node(n: 3).
              edge(a: 1, b: 2).
            rules
              covered(n: X) <- edge(a: X, b: Y).
              covered(n: X) <- edge(a: Y, b: X).
              isolated(n: X) <- node(n: X), not covered(n: X).
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        let out = compiled.run(&schema, &edb).unwrap();
        // The perfect model: only node 3 is isolated.
        assert_eq!(out.assoc_len(Sym::new("isolated")), 1);
        assert!(out.has_tuple(Sym::new("isolated"), &Value::tuple([("n", Value::Int(3))])));
        // Agrees with the stratified interpreter.
        let (interp, _) =
            crate::stratified::evaluate_stratified(&schema, &rules, &edb, EvalOptions::default())
                .unwrap();
        assert_eq!(
            out.assoc_len(Sym::new("isolated")),
            interp.assoc_len(Sym::new("isolated"))
        );
    }

    #[test]
    fn negated_constants_compile_as_emptiness_tests() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
              p(d: 2).
            rules
              q(d: X) <- p(d: X), not p(d: 99).
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        let out = compiled.run(&schema, &edb).unwrap();
        // p(99) is absent, so the guard passes and everything copies.
        assert_eq!(out.assoc_len(Sym::new("q")), 2);
    }

    #[test]
    fn out_of_fragment_constructs_are_rejected() {
        for (src, needle) in [
            (
                r#"
                associations
                  p = (d: integer);
                  q = (d: integer);
                rules
                  q(d: X) <- p(d: X), not q(d: X).
                "#,
                "own head",
            ),
            (
                r#"
                classes
                  c = (n: integer);
                associations
                  p = (d: integer);
                rules
                  p(d: X) <- c(n: X).
                "#,
                "class literal",
            ),
        ] {
            let p = parse_program(src).unwrap();
            let err = compile_ruleset(&p.schema, &p.rules, FixpointMode::Naive).unwrap_err();
            match err {
                EngineError::UnsupportedFragment { detail } => {
                    assert!(detail.contains(needle), "{detail} vs {needle}")
                }
                other => panic!("expected UnsupportedFragment, got {other}"),
            }
        }
    }

    #[test]
    fn stratified_nonrecursive_chains_compile_in_order() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              e  = (a: integer, b: integer);
              p1 = (a: integer, b: integer);
              p2 = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
            rules
              p2(a: X, b: Y) <- p1(a: X, b: Y).
              p1(a: X, b: Y) <- e(a: X, b: Y).
        "#,
        );
        let compiled = compile_ruleset(&schema, &rules, FixpointMode::Naive).unwrap();
        // p1 must come before p2 regardless of rule order.
        let order: Vec<Sym> = compiled.exprs.iter().map(|(p, _)| *p).collect();
        assert_eq!(order, vec![Sym::new("p1"), Sym::new("p2")]);
        let out = compiled.run(&schema, &edb).unwrap();
        assert_eq!(out.assoc_len(Sym::new("p2")), 1);
    }
}
