//! E9 — nested relations: data functions (Example 3.2) vs the ALGRES nest
//! operator.

use algres::AlgExpr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logres::engine::{
    compile_program, env_from_instance, evaluate, load_facts, run_compiled, EvalOptions,
};
use logres::lang::parse_program;
use logres::model::{Instance, OidGen, Sym};
use logres::Semantics;
use logres_bench::workloads::{chain_edges, closure_program, genealogy_program};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_nesting");
    group.sample_size(10);
    let n = 48usize;

    let p = parse_program(&genealogy_program(n)).unwrap();
    let mut edb = Instance::new();
    let mut gen = OidGen::new();
    load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
    group.bench_with_input(BenchmarkId::new("data_functions", n), &n, |b, _| {
        b.iter(|| {
            evaluate(
                &p.schema,
                &p.rules,
                &edb,
                Semantics::Stratified,
                EvalOptions::default(),
            )
            .unwrap()
        })
    });

    let flat = parse_program(&closure_program(&chain_edges(n))).unwrap();
    let mut edb2 = Instance::new();
    let mut gen2 = OidGen::new();
    load_facts(&flat.schema, &mut edb2, &flat.facts, &mut gen2).unwrap();
    group.bench_with_input(BenchmarkId::new("algres_nest", n), &n, |b, _| {
        b.iter(|| {
            let program =
                compile_program(&flat.schema, &flat.rules, Semantics::Inflationary).unwrap();
            let (out, _) = run_compiled(
                &flat.schema,
                &program,
                &flat.rules,
                &edb2,
                &EvalOptions::default(),
            )
            .unwrap();
            let env = env_from_instance(&flat.schema, &out);
            let nest = AlgExpr::Nest {
                input: Box::new(AlgExpr::Rel(Sym::new("tc"))),
                cols: vec![Sym::new("b")],
                into: Sym::new("des"),
            };
            algres::eval(&nest, &env).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
