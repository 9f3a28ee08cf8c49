//! Semi-naive evaluation of the positive association fragment.
//!
//! The classical Datalog optimization: after the first round, a recursive
//! rule only needs to re-fire for valuations that touch at least one fact
//! derived in the previous round. For each occurrence of an intensional
//! predicate in a rule body, the rule is evaluated once with that occurrence
//! bound to the *delta* instance and the other occurrences to the full one.
//!
//! Applicability ([`seminaive_applicable`]): positive heads over
//! associations, positive bodies over associations and builtins — no
//! negation, no classes, no data functions, no deletions. On this fragment
//! semi-naive evaluation provably computes the same instance as the
//! inflationary operator (asserted by tests here and measured by benchmark
//! E1).

use logres_lang::{Atom, PredArg, Rule, RuleSet};
use logres_model::{Instance, PredKind, Schema, Sym};
use rustc_hash::FxHashSet;

use std::time::Instant;

use crate::binding::Subst;
use crate::delta::{insert_derived, instantiate_head, InventionMemo};
use crate::error::EngineError;
use crate::governor::Governor;
use crate::inflationary::{EvalOptions, EvalReport, IterationStats};
use crate::matcher::{eval_body, BodyView};
use crate::metrics::EngineMetrics;
use crate::parallel::{effective_threads, ordered_map_cancellable};
use crate::provenance::Provenance;
use crate::trace::{self, TraceEvent};

/// Is the rule set inside the semi-naive fragment?
pub fn seminaive_applicable(schema: &Schema, rules: &RuleSet) -> bool {
    rules.rules.iter().all(|r| rule_applicable(schema, r))
}

fn rule_applicable(schema: &Schema, rule: &Rule) -> bool {
    if rule.head.negated {
        return false;
    }
    let head_ok = match &rule.head.atom {
        Atom::Pred { pred, args, .. } => {
            schema.kind(*pred) == Some(PredKind::Assoc)
                && args.iter().all(|a| !matches!(a, PredArg::SelfArg(_)))
        }
        _ => false,
    };
    if !head_ok {
        return false;
    }
    rule.body.iter().all(|lit| {
        if lit.negated {
            return false;
        }
        match &lit.atom {
            Atom::Pred { pred, .. } => schema.kind(*pred) == Some(PredKind::Assoc),
            Atom::Member { .. } => false,
            Atom::Builtin { .. } => lit.atom.functions().is_empty(),
        }
    })
}

/// Evaluate with semi-naive iteration. Errors with
/// [`EngineError::UnsupportedFragment`] outside the fragment.
pub fn evaluate_seminaive(
    schema: &Schema,
    rules: &RuleSet,
    edb: &Instance,
    opts: EvalOptions,
) -> Result<(Instance, EvalReport), EngineError> {
    if !seminaive_applicable(schema, rules) {
        return Err(EngineError::UnsupportedFragment {
            detail: "semi-naive evaluation needs positive association rules".to_owned(),
        });
    }

    // Intensional predicates: those defined by some rule head.
    let idb: FxHashSet<Sym> = rules.rules.iter().map(|r| r.head.target()).collect();
    let threads = effective_threads(opts.threads);

    let mut total = edb.clone();
    let mut memo = InventionMemo::new();
    let mut gen = edb.oid_gen();
    let em = opts.metrics.as_ref().map(EngineMetrics::new);
    let mut prov = if opts.provenance {
        Some(Provenance::new(rules, 0))
    } else {
        None
    };
    let mut report = EvalReport::with_rules(rules);
    let mut governor = Governor::new(&opts);
    let token = governor.token().clone();
    let tracer = opts.trace.as_deref();
    trace::emit(tracer, || TraceEvent::EvalStart {
        engine: "seminaive",
        rules: rules.rules.len(),
        facts: edb.fact_count(),
    });

    // Cancellation exit shared by round 0 and the delta rounds: close the
    // report over the work completed so far and ship it with the error.
    let cancel =
        |mut report: EvalReport, facts: usize, in_rule: Option<String>, governor: &Governor| {
            let cause = governor.check().expect("cancel taken only when tripped");
            let step = report.steps;
            report.facts = facts;
            report.cancelled_in_rule = in_rule;
            trace::emit(tracer, || TraceEvent::Cancelled {
                step,
                cause: cause.to_string(),
            });
            EngineError::Cancelled {
                cause,
                partial: Box::new(report),
            }
        };
    let rule_of = |token: &crate::governor::CancelToken| {
        token
            .last_item()
            .and_then(|r| rules.rules.get(r))
            .map(|r| r.to_string())
    };

    // Round 0: evaluate every rule over the EDB snapshot, then merge the
    // order-preserved valuation lists serially in rule order (the match
    // phase reads an immutable instance, so it parallelizes; the positive
    // fragment is monotone, so snapshot rounds reach the same fixpoint).
    let mut delta = Instance::new();
    token.reset_item();
    trace::emit(tracer, || TraceEvent::StepStart {
        step: 0,
        facts: total.fact_count(),
    });
    let match_start = Instant::now();
    let subs_per_rule = ordered_map_cancellable(threads, &rules.rules, &token, |i, rule| {
        token.note_item(i);
        let start = Instant::now();
        let tally = crate::metrics::ProbeTally::default();
        let view = BodyView::plain(&total).with_tally(em.as_ref().map(|_| &tally));
        let subs = eval_body(schema, view, &rule.body, Subst::new());
        if let Some(m) = em.as_ref() {
            tally.flush(m);
        }
        (subs, start.elapsed().as_nanos() as u64)
    });
    let mut stats = IterationStats {
        match_nanos: match_start.elapsed().as_nanos() as u64,
        ..IterationStats::default()
    };
    let mut per_rule = vec![IterationStats::default(); rules.rules.len()];
    let mut round_nodes = 0usize;
    let mut cancelled = false;
    let apply_start = Instant::now();
    for (idx, (rule, slot)) in rules.rules.iter().zip(subs_per_rule).enumerate() {
        let Some((subs, rule_nanos)) = slot else {
            cancelled = true;
            break;
        };
        per_rule[idx].match_nanos = rule_nanos;
        for theta in subs? {
            stats.firings += 1;
            per_rule[idx].firings += 1;
            let facts = instantiate_head(schema, &total, rule, idx, &theta, &mut memo, &mut gen)?;
            let premises = if prov.is_some() && !facts.is_empty() {
                crate::provenance::premises_of(schema, &total, rule, &theta)
            } else {
                Vec::new()
            };
            for fact in facts {
                let recorded = prov.is_some().then(|| fact.clone());
                if let Some(nodes) = insert_derived(schema, &mut total, Some(&mut delta), fact) {
                    stats.derived += 1;
                    per_rule[idx].derived += 1;
                    round_nodes += nodes;
                    if let (Some(p), Some(fact)) = (prov.as_mut(), recorded) {
                        p.record(fact, idx, 0, premises.clone());
                    }
                }
            }
        }
        if let Some(m) = &em {
            m.record_rule_step(
                idx,
                per_rule[idx].firings as u64,
                per_rule[idx].derived as u64,
                0,
                0,
            );
        }
        if per_rule[idx].firings > 0 {
            let s = per_rule[idx];
            trace::emit(tracer, || TraceEvent::RuleFired {
                step: 0,
                rule: idx,
                firings: s.firings,
                derived: s.derived,
                deleted: 0,
                match_nanos: s.match_nanos,
            });
        }
    }
    stats.apply_nanos = apply_start.elapsed().as_nanos() as u64;
    report.absorb_rule_stats(&per_rule);
    governor.charge_nodes(round_nodes);
    if let Some(m) = &em {
        m.steps.inc();
        m.value_nodes.add(round_nodes as u64);
        m.step_match_ms.observe(stats.match_nanos / 1_000_000);
        m.step_apply_ms.observe(stats.apply_nanos / 1_000_000);
        if let Some(headroom) = governor.deadline_headroom_ms() {
            m.deadline_headroom_ms.set(headroom);
        }
    }
    if cancelled || governor.check().is_some() {
        let in_rule = rule_of(&token);
        report.provenance = prov.take();
        return Err(cancel(report, total.fact_count(), in_rule, &governor));
    }
    trace::emit(tracer, || TraceEvent::StepEnd {
        step: 0,
        firings: stats.firings,
        derived: stats.derived,
        deleted: 0,
        facts: total.fact_count(),
        match_nanos: stats.match_nanos,
        apply_nanos: stats.apply_nanos,
    });
    trace::emit(tracer, || TraceEvent::Budget {
        step: 0,
        facts: total.fact_count(),
        value_nodes: governor.value_nodes(),
        elapsed_ms: governor.elapsed_ms(),
    });
    report.iterations.push(stats);
    report.steps = 1;

    // Delta rounds: one task per (rule, intensional body literal), with
    // that literal bound to the delta.
    let jobs: Vec<(usize, usize)> = rules
        .rules
        .iter()
        .enumerate()
        .flat_map(|(idx, rule)| {
            let idb = &idb;
            rule.body.iter().enumerate().filter_map(move |(li, lit)| {
                let Atom::Pred { pred, .. } = &lit.atom else {
                    return None;
                };
                idb.contains(pred).then_some((idx, li))
            })
        })
        .collect();

    while !delta_is_empty(&delta, &idb) {
        if report.steps >= opts.max_steps {
            return Err(EngineError::NoFixpoint {
                steps: opts.max_steps,
            });
        }
        if total.fact_count() > opts.max_facts {
            return Err(EngineError::TooManyFacts {
                limit: opts.max_facts,
            });
        }
        let round = report.steps;
        token.reset_item();
        trace::emit(tracer, || TraceEvent::StepStart {
            step: round,
            facts: total.fact_count(),
        });
        let match_start = Instant::now();
        let subs_per_job = ordered_map_cancellable(threads, &jobs, &token, |_, &(idx, li)| {
            token.note_item(idx);
            let start = Instant::now();
            let tally = crate::metrics::ProbeTally::default();
            let view = BodyView {
                full: &total,
                delta: Some((li, &delta)),
                tally: em.as_ref().map(|_| &tally),
            };
            let subs = eval_body(schema, view, &rules.rules[idx].body, Subst::new());
            if let Some(m) = em.as_ref() {
                tally.flush(m);
            }
            (subs, start.elapsed().as_nanos() as u64)
        });
        let mut stats = IterationStats {
            match_nanos: match_start.elapsed().as_nanos() as u64,
            ..IterationStats::default()
        };
        let mut per_rule = vec![IterationStats::default(); rules.rules.len()];
        let mut round_nodes = 0usize;
        let mut cancelled = false;
        let apply_start = Instant::now();
        let mut next_delta = Instance::new();
        for (&(idx, _), slot) in jobs.iter().zip(subs_per_job) {
            let Some((subs, rule_nanos)) = slot else {
                cancelled = true;
                break;
            };
            let rule = &rules.rules[idx];
            per_rule[idx].match_nanos += rule_nanos;
            for theta in subs? {
                stats.firings += 1;
                per_rule[idx].firings += 1;
                let facts =
                    instantiate_head(schema, &total, rule, idx, &theta, &mut memo, &mut gen)?;
                let premises = if prov.is_some() && !facts.is_empty() {
                    crate::provenance::premises_of(schema, &total, rule, &theta)
                } else {
                    Vec::new()
                };
                for fact in facts {
                    let recorded = prov.is_some().then(|| fact.clone());
                    if let Some(nodes) =
                        insert_derived(schema, &mut total, Some(&mut next_delta), fact)
                    {
                        stats.derived += 1;
                        per_rule[idx].derived += 1;
                        round_nodes += nodes;
                        if let (Some(p), Some(fact)) = (prov.as_mut(), recorded) {
                            p.record(fact, idx, round, premises.clone());
                        }
                    }
                }
            }
        }
        for (idx, s) in per_rule.iter().enumerate() {
            if let Some(m) = &em {
                m.record_rule_step(idx, s.firings as u64, s.derived as u64, 0, 0);
            }
            if s.firings > 0 {
                trace::emit(tracer, || TraceEvent::RuleFired {
                    step: round,
                    rule: idx,
                    firings: s.firings,
                    derived: s.derived,
                    deleted: 0,
                    match_nanos: s.match_nanos,
                });
            }
        }
        stats.apply_nanos = apply_start.elapsed().as_nanos() as u64;
        report.absorb_rule_stats(&per_rule);
        governor.charge_nodes(round_nodes);
        if let Some(m) = &em {
            m.steps.inc();
            m.value_nodes.add(round_nodes as u64);
            m.step_match_ms.observe(stats.match_nanos / 1_000_000);
            m.step_apply_ms.observe(stats.apply_nanos / 1_000_000);
            if let Some(headroom) = governor.deadline_headroom_ms() {
                m.deadline_headroom_ms.set(headroom);
            }
        }
        if cancelled || governor.check().is_some() {
            let in_rule = rule_of(&token);
            report.provenance = prov.take();
            return Err(cancel(report, total.fact_count(), in_rule, &governor));
        }
        trace::emit(tracer, || TraceEvent::StepEnd {
            step: round,
            firings: stats.firings,
            derived: stats.derived,
            deleted: 0,
            facts: total.fact_count(),
            match_nanos: stats.match_nanos,
            apply_nanos: stats.apply_nanos,
        });
        trace::emit(tracer, || TraceEvent::Budget {
            step: round,
            facts: total.fact_count(),
            value_nodes: governor.value_nodes(),
            elapsed_ms: governor.elapsed_ms(),
        });
        report.iterations.push(stats);
        delta = next_delta;
        report.steps += 1;
    }

    report.facts = total.fact_count();
    report.provenance = prov;
    trace::emit(tracer, || TraceEvent::EvalEnd {
        steps: report.steps,
        facts: report.facts,
        fixpoint: true,
    });
    Ok((total, report))
}

fn delta_is_empty(delta: &Instance, idb: &FxHashSet<Sym>) -> bool {
    idb.iter().all(|p| delta.assoc_len(*p) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflationary::evaluate_inflationary;
    use crate::load::load_facts;
    use logres_lang::parse_program;
    use logres_model::{OidGen, Value};

    fn setup(src: &str) -> (Schema, Instance, RuleSet) {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).expect("loads");
        (p.schema, edb, p.rules)
    }

    fn chain_edb(n: i64) -> String {
        let mut facts = String::new();
        for i in 0..n {
            facts.push_str(&format!("  e(a: {}, b: {}).\n", i, i + 1));
        }
        format!(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
            {facts}
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#
        )
    }

    #[test]
    fn matches_inflationary_on_transitive_closure() {
        let (schema, edb, rules) = setup(&chain_edb(12));
        let (semi, _) = evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        let (infl, _) =
            evaluate_inflationary(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        let tc = Sym::new("tc");
        assert_eq!(semi.assoc_len(tc), 13 * 12 / 2);
        assert_eq!(semi.assoc_len(tc), infl.assoc_len(tc));
        for t in infl.tuples_of(tc) {
            assert!(semi.has_tuple(tc, t));
        }
    }

    #[test]
    fn nonlinear_rules_are_handled() {
        // tc(X,Z) <- tc(X,Y), tc(Y,Z): two intensional occurrences; the
        // per-occurrence delta passes cover the mixed case.
        let src = r#"
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
              tc(a: X, b: Z) <- tc(a: X, b: Y), tc(a: Y, b: Z).
        "#;
        let (schema, edb, rules) = setup(src);
        let (semi, _) = evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        assert_eq!(semi.assoc_len(Sym::new("tc")), 5 * 4 / 2);
    }

    #[test]
    fn out_of_fragment_rules_are_rejected() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
            rules
              q(d: X) <- p(d: X), not q(d: X).
        "#,
        );
        assert!(!seminaive_applicable(&schema, &rules));
        assert!(matches!(
            evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()),
            Err(EngineError::UnsupportedFragment { .. })
        ));
    }

    #[test]
    fn builtins_inside_the_fragment_work() {
        let (schema, edb, rules) = setup(
            r#"
            associations
              n    = (v: integer);
              dbl  = (v: integer);
            facts
              n(v: 1).
              n(v: 2).
            rules
              dbl(v: X) <- n(v: Y), X = Y * 2.
        "#,
        );
        let (out, _) = evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        assert!(out.has_tuple(Sym::new("dbl"), &Value::tuple([("v", Value::Int(4))])));
    }

    #[test]
    fn round_counts_shrink_versus_naive_steps() {
        let (schema, edb, rules) = setup(&chain_edb(20));
        let (_, semi_report) =
            evaluate_seminaive(&schema, &rules, &edb, EvalOptions::default()).unwrap();
        // A 20-chain closes in ~20 delta rounds; the point of this assertion
        // is that the report is populated sensibly.
        assert!(semi_report.steps >= 20 && semi_report.steps <= 22);
        assert!(semi_report.facts > 0);
    }
}
