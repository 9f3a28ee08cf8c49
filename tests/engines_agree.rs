//! Cross-engine agreement: the inflationary interpreter, the semi-naive
//! evaluator, and the ALGRES-compiled plans must compute identical fact sets
//! on the shared fragment — and all must match an independent
//! graph-algorithm reference. The production dispatcher's
//! compiled fast path (`EvalOptions::compiled`) is held to the same
//! standard: bit-identical instances against the interpreted oracle at
//! every thread count, with every fallback accounted for by reason.

use std::sync::Arc;

use logres::engine::{
    compile_program, evaluate, evaluate_inflationary, evaluate_seminaive, load_facts, run_compiled,
    EvalOptions, MetricsRegistry, Semantics,
};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen, Sym, Value};
use logres_repro::generators::{
    chain_edges, closure_program, random_edges, reference_closure, tree_edges,
};
use proptest::prelude::*;

fn closure_with_all_engines(edges: &[(i64, i64)]) {
    let src = closure_program(edges);
    let program = parse_program(&src).expect("program parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&program.schema, &mut edb, &program.facts, &mut gen).unwrap();

    let (interp, _) = evaluate_inflationary(
        &program.schema,
        &program.rules,
        &edb,
        EvalOptions::default(),
    )
    .expect("interpreter");
    let par_opts = EvalOptions {
        threads: 4,
        ..EvalOptions::default()
    };
    let (par_interp, _) =
        evaluate_inflationary(&program.schema, &program.rules, &edb, par_opts.clone())
            .expect("parallel interpreter");
    assert_eq!(
        par_interp, interp,
        "parallel interpreter diverged from serial"
    );
    let (semi, _) = evaluate_seminaive(
        &program.schema,
        &program.rules,
        &edb,
        EvalOptions::default(),
    )
    .expect("semi-naive");
    let (par_semi, _) = evaluate_seminaive(&program.schema, &program.rules, &edb, par_opts)
        .expect("parallel semi-naive");
    assert_eq!(par_semi, semi, "parallel semi-naive diverged from serial");
    let plans = compile_program(&program.schema, &program.rules, Semantics::Inflationary)
        .expect("compiles");
    let (compiled, _) = run_compiled(
        &program.schema,
        &plans,
        &program.rules,
        &edb,
        &EvalOptions::default(),
    )
    .expect("compiled plans run");

    let reference = reference_closure(edges);
    let tc = Sym::new("tc");
    for (name, inst) in [
        ("interpreter", &interp),
        ("semi-naive", &semi),
        ("compiled", &compiled),
    ] {
        assert_eq!(
            inst.assoc_len(tc),
            reference.len(),
            "{name}: wrong closure size on {} edges",
            edges.len()
        );
        for &(a, b) in &reference {
            assert!(
                inst.has_tuple(
                    tc,
                    &Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))])
                ),
                "{name}: missing ({a},{b})"
            );
        }
    }
}

#[test]
fn engines_agree_on_chains() {
    closure_with_all_engines(&chain_edges(24));
}

#[test]
fn engines_agree_on_trees() {
    closure_with_all_engines(&tree_edges(30));
}

#[test]
fn engines_agree_on_random_graphs() {
    for seed in 0..5 {
        closure_with_all_engines(&random_edges(16, 32, seed));
    }
}

#[test]
fn engines_agree_on_cyclic_graphs() {
    // A cycle plus chords: closure reaches everything from everywhere.
    let mut edges = chain_edges(10);
    edges.push((10, 0));
    edges.push((3, 7));
    closure_with_all_engines(&edges);
}

/// Determinacy (Appendix B): runs over the same input are equal; runs over
/// renamed inputs are isomorphic.
#[test]
fn invention_is_determinate() {
    let src = r#"
        classes
          copy = (v: integer);
        associations
          src_t = (v: integer);
        facts
          src_t(v: 1).
          src_t(v: 2).
          src_t(v: 3).
        rules
          copy(self: X, v: V) <- src_t(v: V).
    "#;
    let run = || {
        let p = parse_program(src).unwrap();
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        let (inst, _) =
            evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap();
        (p.schema, inst)
    };
    let (schema, a) = run();
    let (_, b) = run();
    assert_eq!(a.class_len(Sym::new("copy")), 3);
    assert!(a.isomorphic(&schema, &b));
}

/// `:why` agrees across engines: the inflationary and semi-naive drivers
/// record the same first derivation (rule text and ground premises,
/// recursively) for every closure fact. Step and round numbering differ by
/// construction — one counts inflationary steps, the other semi-naive
/// rounds — so only the shape of the chain is compared.
#[test]
fn why_agrees_across_engines() {
    use logres::engine::Derivation;

    type Shape = (String, Option<String>, Vec<(String, Option<String>)>);
    fn shape(d: &Derivation) -> Shape {
        (
            d.fact.to_string(),
            d.rule_text.clone(),
            d.premises
                .iter()
                .map(|p| (p.fact.to_string(), p.rule_text.clone()))
                .collect(),
        )
    }
    fn assert_same_shape(a: &Derivation, b: &Derivation) {
        assert_eq!(shape(a), shape(b));
        for (pa, pb) in a.premises.iter().zip(&b.premises) {
            assert_same_shape(pa, pb);
        }
    }

    let src = closure_program(&chain_edges(8));
    let p = parse_program(&src).unwrap();
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
    let opts = EvalOptions {
        provenance: true,
        ..EvalOptions::default()
    };
    let (infl, infl_report) =
        evaluate_inflationary(&p.schema, &p.rules, &edb, opts.clone()).unwrap();
    let (semi, semi_report) = evaluate_seminaive(&p.schema, &p.rules, &edb, opts).unwrap();
    assert_eq!(infl, semi);
    let infl_prov = infl_report.provenance.expect("inflationary provenance");
    let semi_prov = semi_report.provenance.expect("semi-naive provenance");
    let tc = Sym::new("tc");
    let mut tuples: Vec<_> = infl.tuples_of(tc).collect();
    tuples.sort();
    assert!(!tuples.is_empty());
    for tuple in tuples {
        let fact = logres::model::Fact::Assoc {
            assoc: tc,
            tuple: tuple.clone(),
        };
        let a = infl_prov.explain(&fact);
        let b = semi_prov.explain(&fact);
        assert!(!a.is_edb(), "{fact} should be derived");
        assert_same_shape(&a, &b);
        assert_eq!(a.edb_leaves(), b.edb_leaves());
    }
}

/// The stratified driver and the inflationary driver agree on negation-free
/// programs (stratification only matters for negation / data functions /
/// deletion).
#[test]
fn semantics_coincide_on_positive_programs() {
    let edges = random_edges(12, 20, 7);
    let src = closure_program(&edges);
    let p = parse_program(&src).unwrap();
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
    let (infl, _) =
        evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap();
    let (strat, _) =
        logres::engine::evaluate_stratified(&p.schema, &p.rules, &edb, EvalOptions::default())
            .unwrap();
    let tc = Sym::new("tc");
    assert_eq!(infl.assoc_len(tc), strat.assoc_len(tc));
    for t in infl.tuples_of(tc) {
        assert!(strat.has_tuple(tc, t));
    }
}

// ---------------------------------------------------------------------------
// Compiled production path (`EvalOptions::compiled`) vs the interpreter
// ---------------------------------------------------------------------------

fn load(src: &str) -> (logres::lang::Program, Instance) {
    let p = parse_program(src).expect("program parses");
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
    (p, edb)
}

/// The compiled dispatcher path is bit-identical to the interpreted oracle
/// at every thread count — and it really took the compiled path (one run
/// counted, zero fallbacks).
#[test]
fn compiled_path_is_bit_identical_at_every_thread_count() {
    let (p, edb) = load(&closure_program(&random_edges(16, 32, 3)));
    let oracle_opts = EvalOptions {
        compiled: false,
        ..EvalOptions::default()
    };
    let (oracle, _) = evaluate(
        &p.schema,
        &p.rules,
        &edb,
        Semantics::Inflationary,
        oracle_opts,
    )
    .expect("interpreted oracle");
    for threads in [1usize, 2, 8, 0] {
        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            threads,
            metrics: Some(reg.clone()),
            ..EvalOptions::default()
        };
        let (inst, _) = evaluate(&p.schema, &p.rules, &edb, Semantics::Inflationary, opts)
            .expect("compiled path");
        assert_eq!(inst, oracle, "threads={threads} diverges from interpreter");
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
        let snap = reg.counter_snapshot();
        assert!(
            !snap
                .iter()
                .any(|(k, v)| k.starts_with("logres_compile_fallbacks_total") && *v > 0),
            "unexpected fallback at threads={threads}: {snap:?}"
        );
    }
}

/// Stratified negation also runs compiled, and stays bit-identical across
/// the thread sweep.
#[test]
fn compiled_negation_is_bit_identical_at_every_thread_count() {
    let (p, edb) = load(
        r#"
        associations
          e        = (a: integer, b: integer);
          covered  = (n: integer);
          node     = (n: integer);
          isolated = (n: integer);
        facts
          node(n: 0). node(n: 1). node(n: 2). node(n: 3).
          e(a: 0, b: 1). e(a: 1, b: 2).
        rules
          covered(n: X) <- e(a: X, b: Y).
          covered(n: Y) <- e(a: X, b: Y).
          isolated(n: X) <- node(n: X), not covered(n: X).
    "#,
    );
    let oracle_opts = EvalOptions {
        compiled: false,
        ..EvalOptions::default()
    };
    let (oracle, _) = evaluate(
        &p.schema,
        &p.rules,
        &edb,
        Semantics::Stratified,
        oracle_opts,
    )
    .expect("interpreted oracle");
    assert_eq!(oracle.assoc_len(Sym::new("isolated")), 1);
    for threads in [1usize, 2, 8, 0] {
        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            threads,
            metrics: Some(reg.clone()),
            ..EvalOptions::default()
        };
        let (inst, _) = evaluate(&p.schema, &p.rules, &edb, Semantics::Stratified, opts)
            .expect("compiled path");
        assert_eq!(inst, oracle, "threads={threads} diverges from interpreter");
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
    }
}

/// A stratum's environment holds only the relations its plans scan. The top
/// stratum here reads an extensional relation (`e`) and one derived two
/// strata below it (`tc`), with `far` in between; the compiled path must
/// still match the interpreter bit for bit at every thread count.
#[test]
fn compiled_strata_read_edb_and_lower_strata_bit_identically() {
    // A fixed path out of node 0 keeps both `far` and `top` non-empty.
    let mut edges = random_edges(12, 24, 5);
    edges.extend([(0, 1), (1, 2), (2, 3)]);
    let mut src = String::from(
        r#"
        associations
          e    = (a: integer, b: integer);
          node = (n: integer);
          tc   = (a: integer, b: integer);
          far  = (n: integer);
          top  = (a: integer, b: integer);
        facts
        "#,
    );
    // Nodes 12..16 have no edges, so they are `far` from node 0.
    for n in 0..16 {
        src.push_str(&format!("node(n: {n}).\n"));
    }
    for (a, b) in &edges {
        src.push_str(&format!("e(a: {a}, b: {b}).\n"));
    }
    src.push_str(
        r#"
        rules
          tc(a: X, b: Y) <- e(a: X, b: Y).
          tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
          far(n: X) <- node(n: X), not tc(a: 0, b: X).
          top(a: X, b: Z) <- e(a: X, b: Y), tc(a: Y, b: Z), not far(n: X).
          top(a: X, b: Z) <- top(a: X, b: Y), e(a: Y, b: Z).
        "#,
    );
    let (p, edb) = load(&src);
    let program = compile_program(&p.schema, &p.rules, Semantics::Stratified).expect("compiles");
    let stratum_of = |name: &str| {
        program
            .strata
            .iter()
            .position(|s| s.idb.contains(&Sym::new(name)))
            .expect("derived predicate has a stratum")
    };
    assert_eq!(program.strata.len(), 3, "tc, far, top stratify apart");
    assert_eq!(stratum_of("top"), stratum_of("tc") + 2);
    let oracle_opts = EvalOptions {
        compiled: false,
        ..EvalOptions::default()
    };
    let (oracle, _) = evaluate(
        &p.schema,
        &p.rules,
        &edb,
        Semantics::Stratified,
        oracle_opts,
    )
    .expect("interpreted oracle");
    assert!(oracle.assoc_len(Sym::new("top")) > 0, "top derives tuples");
    assert!(oracle.assoc_len(Sym::new("far")) > 0, "far derives tuples");
    for threads in [1usize, 2, 8, 0] {
        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            threads,
            metrics: Some(reg.clone()),
            ..EvalOptions::default()
        };
        let (inst, _) = evaluate(&p.schema, &p.rules, &edb, Semantics::Stratified, opts)
            .expect("compiled path");
        assert_eq!(inst, oracle, "threads={threads} diverges from interpreter");
        assert_eq!(reg.counter("logres_compile_runs_total").get(), 1);
    }
}

/// Per-operator plan profiles are bit-identical modulo timing at every
/// thread count: the compiled driver runs rule steps serially in canonical
/// order, so every counting field (evals, rows, builds, probes, memo hits)
/// matches exactly; only the wall-clock fields vary, and `normalized()`
/// zeroes precisely those.
#[test]
fn plan_profiles_are_bit_identical_at_every_thread_count() {
    let (p, edb) = load(&closure_program(&chain_edges(16)));
    let mut profiles = Vec::new();
    for threads in [1usize, 2, 8, 0] {
        let opts = EvalOptions {
            threads,
            profile: true,
            ..EvalOptions::default()
        };
        let (_, report) = evaluate(&p.schema, &p.rules, &edb, Semantics::Inflationary, opts)
            .expect("compiled path");
        let profile = report
            .plan_profile
            .expect("compiled run yields a plan profile");
        assert!(
            profile.rules.iter().any(|r| r
                .ops
                .iter()
                .any(|op| op.op == "materialize" && op.rows_out > 0)),
            "threads={threads}: profile attributes no materialized rows"
        );
        profiles.push((threads, profile.normalized()));
    }
    let (_, first) = &profiles[0];
    for (threads, profile) in &profiles[1..] {
        assert_eq!(
            profile, first,
            "threads={threads}: normalized profile diverges"
        );
    }
    // `normalized()` zeroed every timing field — and only those: row and
    // probe counts from the real run survive.
    let mut rows_out = 0u64;
    for rp in &first.rules {
        for op in &rp.ops {
            assert_eq!(
                (op.nanos, op.self_nanos),
                (0, 0),
                "timing survives in {op:?}"
            );
            rows_out += op.rows_out;
        }
    }
    assert!(rows_out > 0, "normalization erased the counting fields");
}

/// Integration-level regression pins for every `logres_compile_fallbacks_total`
/// reason label, driven through the public `evaluate` entry point: each
/// program trips exactly its own reason, never takes the compiled path, and
/// still produces the interpreter's answer.
#[test]
fn compile_fallback_reasons_are_pinned_per_label() {
    let closure = closure_program(&chain_edges(4));
    let cases: [(&str, String, Semantics, bool); 4] = [
        ("provenance", closure.clone(), Semantics::Inflationary, true),
        (
            "fragment",
            r#"
            classes
              copy = (v: integer);
            associations
              src_t = (v: integer);
            facts
              src_t(v: 1).
            rules
              copy(self: X, v: V) <- src_t(v: V).
            "#
            .to_string(),
            Semantics::Inflationary,
            false,
        ),
        (
            "inflationary-negation",
            r#"
            associations
              p = (d: integer);
              r = (d: integer);
              q = (d: integer);
            facts
              p(d: 1).
            rules
              q(d: X) <- p(d: X), not r(d: X).
            "#
            .to_string(),
            Semantics::Inflationary,
            false,
        ),
        (
            "unstratifiable",
            r#"
            associations
              p = (d: integer);
              q = (d: integer);
            facts
              q(d: 1).
            rules
              p(d: X) <- q(d: X), not p(d: X).
            "#
            .to_string(),
            Semantics::Stratified,
            false,
        ),
    ];
    const REASONS: [&str; 4] = [
        "provenance",
        "fragment",
        "inflationary-negation",
        "unstratifiable",
    ];
    for (reason, src, semantics, provenance) in &cases {
        let (p, edb) = load(src);
        let reg = Arc::new(MetricsRegistry::new());
        let opts = EvalOptions {
            provenance: *provenance,
            metrics: Some(reg.clone()),
            ..EvalOptions::default()
        };
        evaluate(&p.schema, &p.rules, &edb, *semantics, opts).expect("interpreter fallback runs");
        for label in REASONS {
            let want = u64::from(label == *reason);
            assert_eq!(
                reg.counter_with("logres_compile_fallbacks_total", "reason", label)
                    .get(),
                want,
                "program for `{reason}` miscounted label `{label}`"
            );
        }
        assert_eq!(
            reg.counter("logres_compile_runs_total").get(),
            0,
            "`{reason}` program must not take the compiled path"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random-program differential: on arbitrary small digraphs the
    /// compiled production path equals the interpreted oracle bit for bit
    /// at every thread count, and both match the graph-theoretic reference.
    #[test]
    fn compiled_and_interpreted_agree_on_random_programs(
        edges in proptest::collection::btree_set((0i64..8, 0i64..8), 1..20)
    ) {
        let edges: Vec<(i64, i64)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let (p, edb) = load(&closure_program(&edges));
        let oracle_opts = EvalOptions { compiled: false, ..EvalOptions::default() };
        let (oracle, _) =
            evaluate(&p.schema, &p.rules, &edb, Semantics::Inflationary, oracle_opts).unwrap();
        let reference = reference_closure(&edges);
        let tc = Sym::new("tc");
        prop_assert_eq!(oracle.assoc_len(tc), reference.len());
        for threads in [1usize, 2, 8, 0] {
            let opts = EvalOptions { threads, ..EvalOptions::default() };
            let (inst, _) =
                evaluate(&p.schema, &p.rules, &edb, Semantics::Inflationary, opts).unwrap();
            prop_assert_eq!(&inst, &oracle, "threads={} diverges", threads);
            for &(a, b) in &reference {
                prop_assert!(inst.has_tuple(
                    tc,
                    &Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))])
                ));
            }
        }
    }
}
