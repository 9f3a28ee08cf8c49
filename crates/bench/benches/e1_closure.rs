//! E1 — transitive closure: interpreter (serial and parallel) vs semi-naive
//! vs compiled ALGRES plans. The interpreter path probes the instance's
//! first-bound-argument index, so this benchmark also attributes the
//! indexing win versus the historical full-scan numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logres::engine::{
    compile_program, evaluate_inflationary, evaluate_seminaive, load_facts, run_compiled,
    EvalOptions, Semantics,
};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen};
use logres_bench::workloads::{chain_edges, closure_program};

/// `relations` independent chain closures in one program: 2·relations rules
/// whose per-step body matching is embarrassingly parallel.
fn wide_closure_program(relations: usize, n: usize) -> String {
    let mut assocs = String::new();
    let mut facts = String::new();
    let mut rules = String::new();
    for r in 0..relations {
        assocs.push_str(&format!(
            "  e{r}  = (a: integer, b: integer);\n  tc{r} = (a: integer, b: integer);\n"
        ));
        for (a, b) in chain_edges(n) {
            facts.push_str(&format!("  e{r}(a: {a}, b: {b}).\n"));
        }
        rules.push_str(&format!(
            "  tc{r}(a: X, b: Y) <- e{r}(a: X, b: Y).\n  \
               tc{r}(a: X, b: Z) <- tc{r}(a: X, b: Y), e{r}(a: Y, b: Z).\n"
        ));
    }
    format!("associations\n{assocs}facts\n{facts}rules\n{rules}")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_closure");
    group.sample_size(10);
    for n in [32usize, 64] {
        let src = closure_program(&chain_edges(n));
        let p = parse_program(&src).unwrap();
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();

        group.bench_with_input(BenchmarkId::new("interpreter", n), &n, |b, _| {
            b.iter(|| {
                evaluate_inflationary(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap()
            })
        });
        let par_opts = EvalOptions {
            threads: 0, // one per core
            ..EvalOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("interpreter_par", n), &n, |b, _| {
            b.iter(|| evaluate_inflationary(&p.schema, &p.rules, &edb, par_opts.clone()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| {
                evaluate_seminaive(&p.schema, &p.rules, &edb, EvalOptions::default()).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("seminaive_par", n), &n, |b, _| {
            b.iter(|| evaluate_seminaive(&p.schema, &p.rules, &edb, par_opts.clone()).unwrap())
        });
        let program = compile_program(&p.schema, &p.rules, Semantics::Inflationary).unwrap();
        let opts = EvalOptions::default();
        group.bench_with_input(BenchmarkId::new("compiled", n), &n, |b, _| {
            b.iter(|| run_compiled(&p.schema, &program, &p.rules, &edb, &opts).unwrap())
        });
    }

    // Wide workload: many independent rules, where the per-rule match phase
    // parallelizes.
    {
        let relations = 8;
        let src = wide_closure_program(relations, 32);
        let p = parse_program(&src).unwrap();
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        for (name, threads) in [("wide_serial", 1usize), ("wide_par", 0)] {
            let opts = EvalOptions {
                threads,
                ..EvalOptions::default()
            };
            group.bench_with_input(BenchmarkId::new(name, relations), &relations, |b, _| {
                b.iter(|| evaluate_inflationary(&p.schema, &p.rules, &edb, opts.clone()).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
